/// \file
/// Tests for the synthesis engine: per-axiom suites at small bounds.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "elt/printer.h"
#include "elt/serialize.h"
#include "spec/registry.h"
#include "synth/canonical.h"
#include "synth/engine.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "synth/skeleton.h"

namespace transform::synth {
namespace {

SynthesisOptions
small_options(int min_bound, int bound)
{
    SynthesisOptions opt;
    opt.min_bound = min_bound;
    opt.bound = bound;
    opt.max_threads = 2;
    opt.max_vas = 2;
    opt.max_fresh_pas = 1;
    return opt;
}

TEST(Engine, InvlpgSuiteAtBound4ContainsPtwalk2)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult suite =
        synthesize_suite(model, "invlpg", small_options(4, 4));
    EXPECT_TRUE(suite.complete);
    ASSERT_FALSE(suite.tests.empty());
    const std::string ptwalk2_key =
        canonical_key(elt::fixtures::fig10a_ptwalk2().program);
    bool found = false;
    for (const SynthesizedTest& t : suite.tests) {
        found = found || t.canonical_key == ptwalk2_key;
    }
    EXPECT_TRUE(found) << "ptwalk2 must be synthesized at bound 4";
}

TEST(Engine, ScPerLocSuiteAtBound4NonEmpty)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult suite =
        synthesize_suite(model, "sc_per_loc", small_options(4, 4));
    EXPECT_GT(suite.tests.size(), 0u);
}

TEST(Engine, AllSynthesizedTestsAreMinimalAndUnique)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult suite =
        synthesize_suite(model, "sc_per_loc", small_options(4, 5));
    std::set<std::string> keys;
    for (const SynthesizedTest& t : suite.tests) {
        EXPECT_TRUE(keys.insert(t.canonical_key).second)
            << "duplicate canonical key in suite";
        const MinimalityVerdict verdict = judge(model, t.witness);
        EXPECT_TRUE(verdict.interesting);
        EXPECT_TRUE(verdict.minimal);
        // The witness really violates the target axiom.
        bool violates_target = false;
        for (const std::string& axiom : t.violated) {
            violates_target = violates_target || axiom == "sc_per_loc";
        }
        EXPECT_TRUE(violates_target);
    }
}

TEST(Engine, TlbCausalitySuiteAtSmallBound)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult suite =
        synthesize_suite(model, "tlb_causality", small_options(4, 5));
    EXPECT_GT(suite.tests.size(), 0u);
    for (const SynthesizedTest& t : suite.tests) {
        bool violates_target = false;
        for (const std::string& axiom : t.violated) {
            violates_target = violates_target || axiom == "tlb_causality";
        }
        EXPECT_TRUE(violates_target);
    }
}

TEST(Engine, RmwAtomicitySuiteNeedsMoreInstructions)
{
    const mtm::Model model = mtm::x86t_elt();
    // At bound 4 no rmw_atomicity test fits (rmw pair + extra write needs
    // at least 6 events).
    const SuiteResult small =
        synthesize_suite(model, "rmw_atomicity", small_options(4, 4));
    EXPECT_TRUE(small.tests.empty());
}

TEST(Engine, SuitesAreCumulativeAcrossBounds)
{
    const mtm::Model model = mtm::x86t_elt();
    const SuiteResult at4 =
        synthesize_suite(model, "invlpg", small_options(4, 4));
    const SuiteResult at5 =
        synthesize_suite(model, "invlpg", small_options(4, 5));
    EXPECT_GE(at5.tests.size(), at4.tests.size());
    // Every bound-4 test is still present at bound 5.
    std::set<std::string> keys5;
    for (const SynthesizedTest& t : at5.tests) {
        keys5.insert(t.canonical_key);
    }
    for (const SynthesizedTest& t : at4.tests) {
        EXPECT_TRUE(keys5.count(t.canonical_key) > 0);
    }
}

TEST(Engine, TimeBudgetMarksIncomplete)
{
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions opt = small_options(4, 8);
    opt.time_budget_seconds = 1e-6;
    const SuiteResult suite = synthesize_suite(model, "sc_per_loc", opt);
    EXPECT_FALSE(suite.complete);
}

TEST(Engine, McmBaselineSynthesizesTsoTests)
{
    // MCM-only synthesis (prior-work baseline): sc_per_loc tests exist at
    // tiny bounds (e.g. W x; R x reading stale).
    const mtm::Model tso = mtm::x86tso();
    const SuiteResult suite =
        synthesize_suite(tso, "sc_per_loc", small_options(2, 3));
    EXPECT_GT(suite.tests.size(), 0u);
    for (const SynthesizedTest& t : suite.tests) {
        for (int id = 0; id < t.witness.program.num_events(); ++id) {
            EXPECT_FALSE(elt::is_ghost(t.witness.program.event(id).kind));
        }
    }
}

TEST(Engine, ParallelDriverMatchesSerial)
{
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions opt = small_options(4, 5);
    const auto serial = synthesize_all(model, opt);
    const auto parallel = synthesize_all_parallel(model, opt);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].axiom, parallel[i].axiom);
        ASSERT_EQ(serial[i].tests.size(), parallel[i].tests.size())
            << serial[i].axiom;
        std::set<std::string> serial_keys;
        std::set<std::string> parallel_keys;
        for (const auto& t : serial[i].tests) {
            serial_keys.insert(t.canonical_key);
        }
        for (const auto& t : parallel[i].tests) {
            parallel_keys.insert(t.canonical_key);
        }
        EXPECT_EQ(serial_keys, parallel_keys) << serial[i].axiom;
    }
    EXPECT_EQ(unique_test_count(serial), unique_test_count(parallel));
}

/// Tests, in order, with sizes, violated lists and witnesses.
std::string
tests_fingerprint(const SuiteResult& suite)
{
    std::string out;
    for (const SynthesizedTest& test : suite.tests) {
        out += test.canonical_key + "|" + std::to_string(test.size);
        for (const std::string& axiom : test.violated) {
            out += "," + axiom;
        }
        out += "|" + elt::execution_to_xml(test.witness, "w") + "\n";
    }
    return out;
}

TEST(FusedSearch, MatchesThePerAxiomWalksOnEveryZooModel)
{
    // synthesize_all_parallel walks one candidate stream for every axiom;
    // synthesize_all walks each axiom's own pruned stream. The suites must
    // be the same at every worker count and backend: tests, witnesses
    // and every counter. Every candidate is searched and duplicates are
    // dropped at the merge, so no counter depends on scheduling.
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        std::string error;
        const auto resolved = spec::resolve_model(entry.name, &error);
        ASSERT_TRUE(resolved.has_value()) << error;
        const mtm::Model& model = resolved->model;
        for (const Backend backend : {Backend::kEnumerative, Backend::kSat}) {
            SynthesisOptions opt = small_options(model.vm_aware() ? 4 : 2,
                                                 model.vm_aware() ? 5 : 4);
            opt.backend = backend;
            const std::vector<SuiteResult> reference =
                synthesize_all(model, opt);
            for (const int jobs : {1, 2, 4}) {
                SynthesisOptions fused_opt = opt;
                fused_opt.jobs = jobs;
                const std::vector<SuiteResult> fused =
                    synthesize_all_parallel(model, fused_opt);
                ASSERT_EQ(fused.size(), reference.size());
                for (std::size_t i = 0; i < fused.size(); ++i) {
                    const std::string where =
                        std::string(entry.name) + " " + reference[i].axiom +
                        (backend == Backend::kSat ? " sat" : " enum") +
                        " jobs=" + std::to_string(jobs);
                    EXPECT_EQ(fused[i].axiom, reference[i].axiom);
                    EXPECT_TRUE(fused[i].complete) << where;
                    EXPECT_EQ(tests_fingerprint(fused[i]),
                              tests_fingerprint(reference[i]))
                        << where;
                    EXPECT_EQ(fused[i].programs_considered,
                              reference[i].programs_considered)
                        << where;
                    EXPECT_EQ(fused[i].executions_considered,
                              reference[i].executions_considered)
                        << where;
                    EXPECT_EQ(fused[i].duplicates_rejected,
                              reference[i].duplicates_rejected)
                        << where;
                }
            }
        }
    }
}

/// The axioms \p program is accepted for: those some well-formed execution
/// violates while being minimal (the engine's per-axiom verdict).
mtm::AxiomMask
accepted_axioms(const mtm::Model& model, const elt::Program& program,
                JudgeScratch* judge_scratch)
{
    mtm::AxiomMask accepted = 0;
    if (!contains_write(program)) {
        return accepted;
    }
    const mtm::AxiomMask all =
        (mtm::AxiomMask{1} << model.axioms().size()) - 1;
    elt::DerivedRelations derived;
    elt::DeriveScratch scratch;
    for_each_execution(program, model.vm_aware(),
                       [&](const elt::Execution& execution) {
        elt::derive_into(execution, model.derive_options(), &derived,
                         &scratch);
        if (derived.well_formed) {
            const mtm::AxiomMask violated =
                model.violated_mask(program, derived);
            if ((violated & ~accepted) != 0 &&
                judge(model, execution, judge_scratch).minimal) {
                accepted |= violated;
            }
        }
        return accepted != all;
    });
    return accepted;
}

TEST(MergeDedup, IsomorphsShareEveryAxiomVerdictOnEveryZooModel)
{
    // finish_search keeps, per (axiom, canonical key), the accepted test
    // with the smallest ticket. That is the class's smallest ticket — its
    // enumeration-earliest isomorph — only if every member of a key class
    // gets the same per-axiom verdict. Check it on the unpruned stream of every zoo model at
    // bound 6, member by member, for every class with two or more.
    std::uint64_t classes_checked = 0;
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        std::string error;
        const auto resolved = spec::resolve_model(entry.name, &error);
        ASSERT_TRUE(resolved.has_value()) << error;
        const mtm::Model& model = resolved->model;
        const SynthesisOptions opt = small_options(2, 6);
        const auto for_each_candidate = [&](const auto& visit) {
            for (int size = opt.min_bound; size <= opt.bound; ++size) {
                for_each_skeleton(
                    engine_skeleton_options(model, "", opt, size),
                    [&](const elt::Program& program) {
                        visit(program, canonical_key(program));
                        return true;
                    });
            }
        };
        // Pass 1 sizes the classes; pass 2 judges the members of the
        // classes with two or more against the first member's verdict.
        std::map<std::string, std::size_t> class_size;
        for_each_candidate([&](const elt::Program&, const std::string& key) {
            ++class_size[key];
        });
        std::map<std::string, std::pair<mtm::AxiomMask, std::string>> first;
        JudgeScratch scratch;
        for_each_candidate([&](const elt::Program& program,
                               const std::string& key) {
            if (class_size[key] < 2) {
                return;
            }
            const mtm::AxiomMask accepted =
                accepted_axioms(model, program, &scratch);
            const auto it =
                first.emplace(key, std::pair{accepted,
                                             elt::program_to_string(program)})
                    .first;
            EXPECT_EQ(accepted, it->second.first)
                << entry.name << " class " << key << ": "
                << it->second.second << " vs "
                << elt::program_to_string(program);
        });
        classes_checked += first.size();
    }
    EXPECT_GT(classes_checked, 0u);
}

TEST(FusedSearch, RunLevelCountersSitOnTheFirstSuite)
{
    // One search, measured once: the scheduler, phase and allocation
    // counters land on the first suite and are zero on the others, so a
    // sum over the suites counts the search once.
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions opt = small_options(4, 5);
    opt.jobs = 2;
    opt.collect_metrics = true;
    opt.track_allocs = true;
    const std::vector<SuiteResult> suites =
        synthesize_all_parallel(model, opt);
    ASSERT_EQ(suites.size(), model.axioms().size());
    EXPECT_GT(suites[0].scheduler.jobs_run, 0u);
    EXPECT_GT(suites[0].phases.total_nanos(), 0u);
    EXPECT_GT(suites[0].allocs.total_count(), 0u);
    for (std::size_t i = 1; i < suites.size(); ++i) {
        EXPECT_EQ(suites[i].scheduler.jobs_run, 0u) << suites[i].axiom;
        EXPECT_EQ(suites[i].scheduler.workers, 2) << suites[i].axiom;
        EXPECT_EQ(suites[i].phases.total_nanos(), 0u) << suites[i].axiom;
        EXPECT_EQ(suites[i].allocs.total_count(), 0u) << suites[i].axiom;
        EXPECT_EQ(suites[i].seconds, suites[0].seconds) << suites[i].axiom;
    }
}

TEST(FusedSearch, BudgetBoundsTheWholeSearch)
{
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions opt = small_options(4, 8);
    opt.jobs = 2;
    opt.time_budget_seconds = 0.2;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<SuiteResult> suites =
        synthesize_all_parallel(model, opt);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_LT(wall, 5.0);
    for (const SuiteResult& suite : suites) {
        EXPECT_FALSE(suite.complete) << suite.axiom;
    }
}

TEST(Engine, ThreeCoreSynthesisFindsCrossCoreInvlpgTests)
{
    // With three cores a WPTE must invoke three INVLPGs; the smallest
    // three-core invlpg test is WPTE + 3 INVLPG + R + Rptw = 6 events.
    const mtm::Model model = mtm::x86t_elt();
    SynthesisOptions opt = small_options(4, 6);
    opt.max_threads = 3;
    const auto suite = synthesize_suite(model, "invlpg", opt);
    bool found_three_core = false;
    for (const auto& test : suite.tests) {
        found_three_core =
            found_three_core || test.witness.program.num_threads() == 3;
    }
    EXPECT_TRUE(found_three_core);
}

TEST(Engine, UniqueTestCountDedupsAcrossSuites)
{
    const mtm::Model model = mtm::x86t_elt();
    std::vector<SuiteResult> suites;
    suites.push_back(synthesize_suite(model, "sc_per_loc", small_options(4, 4)));
    suites.push_back(synthesize_suite(model, "invlpg", small_options(4, 4)));
    const int unique = unique_test_count(suites);
    EXPECT_GT(unique, 0);
    EXPECT_LE(unique, static_cast<int>(suites[0].tests.size() +
                                       suites[1].tests.size()));
}

}  // namespace
}  // namespace transform::synth
