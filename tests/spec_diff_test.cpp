/// \file
/// Golden synthesis tests for the paper's three models: at bound 4 their
/// enumerative suites (canonical keys, sizes and violated-axiom lists) are
/// pinned byte for byte in tests/golden/, captured when the models were
/// still hand-written C++ closures, and every backend and worker count
/// must reproduce the test set. Also the zoo smoke: every registry model
/// synthesizes end-to-end and the models beyond the paper's produce
/// non-empty suites.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "mtm/model.h"
#include "spec/registry.h"
#include "synth/engine.h"

namespace transform::spec {
namespace {

mtm::Model
zoo_model(const std::string& name)
{
    std::string error;
    const auto resolved = resolve_model(name, &error);
    EXPECT_TRUE(resolved.has_value()) << error;
    return resolved->model;
}

/// Canonical keys + sizes (and per-suite axiom + count) of every suite —
/// the backend-independent identity of a synthesized test set.
std::string
key_fingerprint(const std::vector<synth::SuiteResult>& suites)
{
    std::ostringstream out;
    for (const synth::SuiteResult& suite : suites) {
        out << suite.axiom << ":" << suite.tests.size() << "\n";
        for (const synth::SynthesizedTest& test : suite.tests) {
            out << test.size << " " << test.canonical_key << "\n";
        }
    }
    return out.str();
}

/// As key_fingerprint plus the violated-axiom lists — identical for the
/// enumerative backend, whose execution order is fixed.
std::string
full_fingerprint(const std::vector<synth::SuiteResult>& suites)
{
    std::ostringstream out;
    for (const synth::SuiteResult& suite : suites) {
        out << key_fingerprint({suite});
        for (const synth::SynthesizedTest& test : suite.tests) {
            for (const std::string& v : test.violated) {
                out << v << " ";
            }
            out << "\n";
        }
    }
    return out.str();
}

std::vector<synth::SuiteResult>
synthesize(const mtm::Model& model, synth::Backend backend, int jobs,
           int bound)
{
    synth::SynthesisOptions options;
    options.min_bound = model.vm_aware() ? 4 : 2;
    options.bound = bound;
    options.backend = backend;
    options.jobs = jobs;
    return synth::synthesize_all_parallel(model, options);
}

std::string
golden(const std::string& model)
{
    const std::filesystem::path path = std::filesystem::path(
        TRANSFORM_SOURCE_ROOT) / "tests" / "golden" /
        (model + "_enum_bound4.txt");
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
expect_golden_suites(const mtm::Model& model)
{
    constexpr int kBound = 4;
    const auto reference =
        synthesize(model, synth::Backend::kEnumerative, 1, kBound);
    const std::string reference_keys = key_fingerprint(reference);
    const std::string reference_full = full_fingerprint(reference);
    EXPECT_EQ(reference_full, golden(model.name()));
    for (const synth::Backend backend :
         {synth::Backend::kEnumerative, synth::Backend::kSat}) {
        for (const int jobs : {1, 2, 4}) {
            const auto suites = synthesize(model, backend, jobs, kBound);
            EXPECT_EQ(key_fingerprint(suites), reference_keys)
                << "backend=" << static_cast<int>(backend)
                << " jobs=" << jobs;
            if (backend == synth::Backend::kEnumerative) {
                // Same enumeration order => the whole suite (violated
                // lists included) is byte-identical, not just the keys.
                EXPECT_EQ(full_fingerprint(suites), reference_full)
                    << "jobs=" << jobs;
            }
        }
    }
}

TEST(SpecDiff, X86TsoSuitesMatchTheGolden)
{
    expect_golden_suites(mtm::x86tso());
}

TEST(SpecDiff, X86tEltSuitesMatchTheGolden)
{
    expect_golden_suites(mtm::x86t_elt());
}

TEST(SpecDiff, ScTEltSuitesMatchTheGolden)
{
    expect_golden_suites(mtm::sc_t_elt());
}

TEST(SpecDiff, ZooModelsSynthesizeNonEmptySuites)
{
    // The acceptance bar: every zoo model runs end-to-end through --model
    // resolution + the parallel engine, and the models beyond the paper's
    // three all find tests. Per-axiom expectations pin the semantic deltas: a
    // weakened axiom must not grow its own suite at this bound.
    int beyond_paper_nonempty = 0;
    for (const RegistryEntry& entry : registry_entries()) {
        const mtm::Model model = zoo_model(entry.name);
        const auto suites =
            synthesize(model, synth::Backend::kEnumerative, 2, 4);
        EXPECT_EQ(suites.size(), model.axioms().size()) << entry.name;
        std::size_t total = 0;
        for (const synth::SuiteResult& suite : suites) {
            EXPECT_TRUE(suite.complete) << entry.name;
            total += suite.tests.size();
        }
        EXPECT_GT(total, 0u) << entry.name;
        const bool paper = std::string(entry.name) == "x86tso.mtm" ||
                           std::string(entry.name) == "x86t_elt.mtm" ||
                           std::string(entry.name) == "sc_t_elt.mtm";
        if (!paper && total > 0) {
            ++beyond_paper_nonempty;
        }
    }
    EXPECT_GE(beyond_paper_nonempty, 4);
}

TEST(SpecDiff, WeakenedModelsShrinkTheirSuites)
{
    // pso relaxes W->W on top of TSO: its causality suite is a strict
    // subset of x86tso's at the same bound.
    const auto tso = synthesize(mtm::x86tso(), synth::Backend::kEnumerative,
                                1, 4);
    const auto pso =
        synthesize(zoo_model("pso"), synth::Backend::kEnumerative, 1, 4);
    ASSERT_EQ(tso.size(), pso.size());
    for (std::size_t i = 0; i < tso.size(); ++i) {
        EXPECT_LE(pso[i].tests.size(), tso[i].tests.size()) << tso[i].axiom;
    }
    EXPECT_LT(pso[2].tests.size(), tso[2].tests.size());  // causality
}

}  // namespace
}  // namespace transform::spec
