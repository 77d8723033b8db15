/// \file
/// Differential battery for the live incremental SAT session
/// (mtm/incremental.h) against the one-program query (mtm/encoding.h),
/// which solves each program on a clean solver:
///
///  - per candidate: the enumerated model set over the projection
///    variables matches a ProgramEncoding of the candidate exactly,
///    across the whole embedded model zoo, every axiom (plus unfiltered
///    enumeration), and several event bounds;
///  - per suite: synthesize_suite output is byte-identical (tests, their
///    order, witnesses, violated sets, and the search counters) with the
///    structure-base cache off or at its default capacity, for every
///    model of the zoo and across worker counts.
///
/// These tests run under TSan/ASan in CI (see .github/workflows), so the
/// bounds are chosen to keep each case in the hundreds of milliseconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mtm/encoding.h"
#include "mtm/incremental.h"
#include "mtm/model.h"
#include "spec/registry.h"
#include "synth/engine.h"
#include "synth/skeleton.h"

namespace transform {
namespace {

/// Model-set key of one execution: the projection the blocking clauses
/// range over, so two enumerations agree iff these multisets agree.
std::vector<int>
execution_key(const elt::Execution& e)
{
    std::vector<int> key;
    key.reserve(e.rf_src.size() * 4);
    key.insert(key.end(), e.rf_src.begin(), e.rf_src.end());
    key.insert(key.end(), e.co_pos.begin(), e.co_pos.end());
    key.insert(key.end(), e.ptw_src.begin(), e.ptw_src.end());
    key.insert(key.end(), e.co_pa_pos.begin(), e.co_pa_pos.end());
    return key;
}

/// Full byte-level signature of a suite sequence: program events, witness
/// vectors, violated sets, and the counters the determinism contract
/// covers.
std::string
suite_signature(const std::vector<synth::SuiteResult>& suites)
{
    std::string sig;
    for (const synth::SuiteResult& suite : suites) {
        sig += suite.axiom + "|";
        sig += std::to_string(suite.programs_considered) + "|";
        sig += std::to_string(suite.executions_considered) + "|";
        sig += std::to_string(suite.duplicates_rejected) + "|";
        for (const synth::SynthesizedTest& t : suite.tests) {
            sig += t.canonical_key + ";" + std::to_string(t.size) + ";";
            for (const std::string& v : t.violated) {
                sig += v + ",";
            }
            const elt::Program& p = t.witness.program;
            for (int e = 0; e < p.num_events(); ++e) {
                const elt::Event& ev = p.event(e);
                sig += std::to_string(static_cast<int>(ev.kind)) + "/" +
                       std::to_string(ev.thread) + "/" +
                       std::to_string(ev.va) + "/" +
                       std::to_string(ev.map_pa) + " ";
            }
            for (int x : t.witness.rf_src) {
                sig += std::to_string(x) + ".";
            }
            for (int x : t.witness.co_pos) {
                sig += std::to_string(x) + ".";
            }
            for (int x : t.witness.ptw_src) {
                sig += std::to_string(x) + ".";
            }
            for (int x : t.witness.co_pa_pos) {
                sig += std::to_string(x) + ".";
            }
            sig += ";";
        }
    }
    return sig;
}

mtm::Model
zoo_model(const std::string& name)
{
    std::string error;
    const std::optional<spec::ResolvedModel> resolved =
        spec::resolve_model(name, &error);
    EXPECT_TRUE(resolved.has_value()) << name << ": " << error;
    return resolved->model;
}

std::vector<std::string>
zoo_names()
{
    std::vector<std::string> names;
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        names.push_back(entry.name);
    }
    return names;
}

/// Per-candidate differential: one live session vs a clean one-program
/// encoding per skeleton candidate, over every axiom of the model (and the
/// unfiltered enumeration) at the given bound. The model multisets must be
/// equal candidate by candidate — not just the counts.
void
check_per_candidate(const mtm::Model& model, int bound)
{
    std::vector<std::string> axioms{""};
    for (const mtm::Axiom& ax : model.axioms()) {
        axioms.push_back(ax.name);
    }
    synth::SkeletonOptions opts;
    opts.num_events = bound;
    opts.vm_enabled = model.vm_aware();
    opts.allow_full_flush = true;
    for (const std::string& axiom : axioms) {
        mtm::EncodingScratch scratch;
        mtm::IncrementalEncoding live;
        live.configure(&model, axiom, opts.max_vas,
                       opts.max_vas + opts.max_fresh_pas);
        synth::for_each_skeleton(opts, [&](const elt::Program& program) {
            std::vector<std::vector<int>> fresh_keys;
            std::vector<std::vector<int>> live_keys;
            mtm::ProgramEncoding fresh(program, &model, &scratch);
            fresh.enumerate(axiom, [&](const elt::Execution& e) {
                fresh_keys.push_back(execution_key(e));
                return true;
            });
            live.enumerate(program, [&](const elt::Execution& e) {
                live_keys.push_back(execution_key(e));
                return true;
            });
            std::sort(fresh_keys.begin(), fresh_keys.end());
            std::sort(live_keys.begin(), live_keys.end());
            EXPECT_EQ(fresh_keys, live_keys)
                << model.name() << " axiom='" << axiom << "' bound=" << bound;
            return fresh_keys == live_keys;  // stop at the first divergence
        });
    }
}

TEST(SatIncremental, PerCandidateModelsMatchFreshAcrossZoo)
{
    for (const std::string& name : zoo_names()) {
        const mtm::Model model = zoo_model(name);
        check_per_candidate(model, 3);
        check_per_candidate(model, 4);
    }
}

TEST(SatIncremental, PerCandidateModelsMatchFreshBuiltinsBound5)
{
    check_per_candidate(mtm::x86tso(), 5);
    check_per_candidate(mtm::x86t_elt(), 5);
}

/// Suite differential: the base cache is invisible to suites (the replay
/// picks every witness on a clean solver), so capacity 0 — every
/// structure change rebuilds — and the default capacity agree byte for
/// byte, witnesses included.
TEST(SatIncremental, SuitesByteIdenticalAcrossZoo)
{
    for (const std::string& name : zoo_names()) {
        const mtm::Model model = zoo_model(name);
        synth::SynthesisOptions options;
        options.min_bound = 2;
        options.bound = 4;
        options.backend = synth::Backend::kSat;
        options.sat_base_cache_capacity = 0;
        const std::string uncached =
            suite_signature(synth::synthesize_all(model, options));
        options.sat_base_cache_capacity =
            synth::SynthesisOptions().sat_base_cache_capacity;
        const std::string cached =
            suite_signature(synth::synthesize_all(model, options));
        EXPECT_EQ(uncached, cached) << name;
    }
}

TEST(SatIncremental, SuitesByteIdenticalAcrossJobs)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions options;
    options.min_bound = 3;
    options.bound = 5;
    options.backend = synth::Backend::kSat;
    options.sat_base_cache_capacity = 0;
    options.jobs = 1;
    const std::string reference =
        suite_signature(synth::synthesize_all(model, options));
    for (const int capacity :
         {0, synth::SynthesisOptions().sat_base_cache_capacity}) {
        for (const int jobs : {1, 2, 4, 8}) {
            options.sat_base_cache_capacity = capacity;
            options.jobs = jobs;
            const std::string run =
                suite_signature(synth::synthesize_all(model, options));
            EXPECT_EQ(reference, run)
                << "capacity=" << capacity << " jobs=" << jobs;
        }
    }
}

/// Base-cache differential, per candidate: a session with the cache
/// disabled (capacity 0 — every structure change rebuilds, the pre-cache
/// behavior) enumerates exactly the same model multisets as a session
/// with the default cache, across the skeleton stream whose rmw/linking
/// stages ping-pong between structures. Also pins the counters: the
/// cached session actually reuses bases, the uncached one never does.
TEST(SatIncremental, BaseCacheOffMatchesDefaultPerCandidate)
{
    // MCM vocabulary at bound 4: plain same-thread (R, W) pairs are free
    // to alias or not, so the innermost rmw-marking stage alternates the
    // structure key under a fixed placement prefix — the revisit pattern
    // the cache exists for. (vm-on at this bound pins every rmw-markable
    // pair to one VA assignment, so its key stream happens to be
    // monotone and the cache would never hit.)
    const mtm::Model model = mtm::x86tso();
    synth::SkeletonOptions opts;
    opts.num_events = 4;
    opts.vm_enabled = false;
    mtm::IncrementalEncoding cached;
    cached.configure(&model, "sc_per_loc", opts.max_vas,
                     opts.max_vas + opts.max_fresh_pas);
    mtm::IncrementalEncoding uncached;
    uncached.configure(&model, "sc_per_loc", opts.max_vas,
                       opts.max_vas + opts.max_fresh_pas);
    uncached.set_base_cache_capacity(0);
    synth::for_each_skeleton(opts, [&](const elt::Program& program) {
        std::vector<std::vector<int>> cached_keys;
        std::vector<std::vector<int>> uncached_keys;
        cached.enumerate(program, [&](const elt::Execution& e) {
            cached_keys.push_back(execution_key(e));
            return true;
        });
        uncached.enumerate(program, [&](const elt::Execution& e) {
            uncached_keys.push_back(execution_key(e));
            return true;
        });
        std::sort(cached_keys.begin(), cached_keys.end());
        std::sort(uncached_keys.begin(), uncached_keys.end());
        EXPECT_EQ(cached_keys, uncached_keys);
        return cached_keys == uncached_keys;
    });
    EXPECT_GT(cached.session_stats().candidates, 0u);
    EXPECT_EQ(cached.session_stats().candidates,
              uncached.session_stats().candidates);
    EXPECT_GT(cached.session_stats().bases_reused, 0u)
        << "the enumeration order must revisit structures for the cache "
           "to earn its keep";
    EXPECT_EQ(uncached.session_stats().bases_reused, 0u);
    EXPECT_LT(cached.session_stats().bases_built,
              uncached.session_stats().bases_built);
    // The counters surface through the merged lifetime stats too.
    EXPECT_EQ(cached.lifetime_stats().bases_built,
              cached.session_stats().bases_built);
    EXPECT_EQ(cached.lifetime_stats().bases_reused,
              cached.session_stats().bases_reused);
}

/// The session survives a visitor that stops mid-enumeration (the
/// engine's accept path) and stays exact for the following candidates —
/// the kept solver trail and deferred guard retirement must not leak
/// models across the stop.
TEST(SatIncremental, EarlyStopDoesNotPerturbLaterCandidates)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SkeletonOptions opts;
    opts.num_events = 4;
    opts.vm_enabled = true;
    mtm::EncodingScratch scratch;
    mtm::IncrementalEncoding live;
    live.configure(&model, "sc_per_loc", opts.max_vas,
                   opts.max_vas + opts.max_fresh_pas);
    int candidate = 0;
    synth::for_each_skeleton(opts, [&](const elt::Program& program) {
        ++candidate;
        if (candidate % 3 == 0) {
            // Stop after the first model on every third candidate.
            live.enumerate(program,
                           [&](const elt::Execution&) { return false; });
            return true;
        }
        std::vector<std::vector<int>> fresh_keys;
        std::vector<std::vector<int>> live_keys;
        mtm::ProgramEncoding fresh(program, &model, &scratch);
        fresh.enumerate("sc_per_loc", [&](const elt::Execution& e) {
            fresh_keys.push_back(execution_key(e));
            return true;
        });
        live.enumerate(program, [&](const elt::Execution& e) {
            live_keys.push_back(execution_key(e));
            return true;
        });
        std::sort(fresh_keys.begin(), fresh_keys.end());
        std::sort(live_keys.begin(), live_keys.end());
        EXPECT_EQ(fresh_keys, live_keys) << "candidate " << candidate;
        return fresh_keys == live_keys;
    });
    EXPECT_GT(candidate, 0);
}

}  // namespace
}  // namespace transform
