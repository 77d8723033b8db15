/// \file
/// Tests for the fault-tolerant synthesis runtime (docs/robustness.md):
/// the deterministic fault-injection plan, the solver's persistent
/// conflict budget and interrupt hook, cooperative cancellation, the
/// fault matrix (injected faults at every site, across jobs counts, must
/// leave the synthesized suite byte-identical after
/// retries), quarantine of deterministic faults, and the crash-safe
/// checkpoint journal — including a real SIGKILL mid-run followed by a
/// byte-identical resume.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "elt/serialize.h"
#include "mtm/model.h"
#include "sat/solver.h"
#include "sched/scheduler.h"
#include "spec/compile.h"
#include "spec/parser.h"
#include "spec/registry.h"
#include "synth/checkpoint.h"
#include "synth/engine.h"
#include "util/cancel.h"
#include "util/fault.h"

#if defined(__linux__)
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace transform {
namespace {

synth::SynthesisOptions
small_options(int min_bound, int bound)
{
    synth::SynthesisOptions opt;
    opt.min_bound = min_bound;
    opt.bound = bound;
    opt.max_threads = 2;
    opt.max_vas = 2;
    opt.max_fresh_pas = 1;
    return opt;
}

/// Byte-level identity of a suite: canonical keys, sizes, violated axiom
/// lists, and the exact witness XML (same comparator obs_test.cpp uses).
std::string
suite_fingerprint(const synth::SuiteResult& suite)
{
    std::string fp;
    for (const synth::SynthesizedTest& test : suite.tests) {
        fp += test.canonical_key;
        fp += '|';
        fp += std::to_string(test.size);
        for (const std::string& axiom : test.violated) {
            fp += ',';
            fp += axiom;
        }
        fp += '|';
        fp += elt::execution_to_xml(test.witness, "w");
        fp += '\n';
    }
    return fp;
}

std::string
temp_path(const std::string& name)
{
    return ::testing::TempDir() + "transform_fault_" + name;
}

sat::Lit
pos(sat::Var v)
{
    return sat::Lit(v, false);
}

sat::Lit
neg(sat::Var v)
{
    return sat::Lit(v, true);
}

/// Builds the classically hard UNSAT pigeonhole instance (holes + 1
/// pigeons into `holes` holes) into \p s.
void
add_pigeonhole(sat::Solver* s, int holes)
{
    const int pigeons = holes + 1;
    std::vector<std::vector<sat::Var>> in(pigeons,
                                          std::vector<sat::Var>(holes));
    for (auto& row : in) {
        for (auto& v : row) {
            v = s->new_var();
        }
    }
    for (int p = 0; p < pigeons; ++p) {
        sat::Clause clause;
        for (int h = 0; h < holes; ++h) {
            clause.push_back(pos(in[p][h]));
        }
        s->add_clause(clause);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                s->add_binary(neg(in[p1][h]), neg(in[p2][h]));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FaultPlan: grammar and deterministic firing.

TEST(FaultPlan, ParsesFullSpec)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse(
        "seed=7,site=sat_solve,kind=alloc,rate=64,mode=sticky,after=3",
        &plan, &error))
        << error;
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_EQ(plan.site, util::FaultSite::kSatSolve);
    EXPECT_EQ(plan.kind, util::FaultPlan::Kind::kBadAlloc);
    EXPECT_EQ(plan.rate, 64u);
    EXPECT_GT(plan.attempts, 1000);  // sticky = survives every retry
    EXPECT_EQ(plan.after, 3u);
}

TEST(FaultPlan, DefaultsAndTransientMode)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse("site=judge", &plan, &error)) << error;
    EXPECT_EQ(plan.site, util::FaultSite::kJudge);
    EXPECT_EQ(plan.kind, util::FaultPlan::Kind::kThrow);
    EXPECT_EQ(plan.rate, 1u);
    EXPECT_EQ(plan.attempts, 1);  // transient is the default
    EXPECT_EQ(plan.after, 0u);
}

TEST(FaultPlan, RejectsBadSpecs)
{
    util::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(util::FaultPlan::parse("bogus=1", &plan, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(util::FaultPlan::parse("site=nowhere", &plan, &error));
    EXPECT_FALSE(util::FaultPlan::parse("kind=sparkle", &plan, &error));
    EXPECT_FALSE(util::FaultPlan::parse("rate=0", &plan, &error));
    EXPECT_FALSE(util::FaultPlan::parse("mode=maybe", &plan, &error));
}

TEST(FaultPlan, FiringIsAPureFunctionOfSeedSiteKeyAttempt)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse("seed=9,site=derive,rate=4", &plan,
                                       &error))
        << error;
    const auto fired_keys = [&plan](int attempt) {
        std::set<std::uint64_t> keys;
        for (std::uint64_t key = 0; key < 512; ++key) {
            try {
                plan.maybe_fire(util::FaultSite::kDerive, key, attempt);
            } catch (const util::InjectedFault&) {
                keys.insert(key);
            }
        }
        return keys;
    };
    const std::set<std::uint64_t> first = fired_keys(0);
    EXPECT_FALSE(first.empty());
    EXPECT_LT(first.size(), 512u);            // rate=4 selects a subset
    EXPECT_EQ(fired_keys(0), first);          // replay: same keys fire
    EXPECT_TRUE(fired_keys(1).empty());       // transient: retry succeeds
    // Probes at a different site never fire.
    for (std::uint64_t key = 0; key < 512; ++key) {
        EXPECT_NO_THROW(
            plan.maybe_fire(util::FaultSite::kJudge, key, 0));
    }
    EXPECT_EQ(plan.fired(), first.size() * 2);
}

TEST(FaultPlan, AllocKindThrowsBadAlloc)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse("site=derive,kind=alloc,rate=1",
                                       &plan, &error))
        << error;
    EXPECT_THROW(plan.maybe_fire(util::FaultSite::kDerive, 0, 0),
                 std::bad_alloc);
}

TEST(FaultPlan, AfterSkipsTheFirstSelectedProbes)
{
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse("site=derive,rate=1,after=2", &plan,
                                       &error))
        << error;
    EXPECT_NO_THROW(plan.maybe_fire(util::FaultSite::kDerive, 0, 0));
    EXPECT_NO_THROW(plan.maybe_fire(util::FaultSite::kDerive, 1, 0));
    EXPECT_THROW(plan.maybe_fire(util::FaultSite::kDerive, 2, 0),
                 util::InjectedFault);
    EXPECT_EQ(plan.fired(), 1u);
}

// ---------------------------------------------------------------------------
// Solver: persistent conflict budget and interrupt hook.

TEST(SolverBudget, PersistentConflictBudgetAnswersUnknown)
{
    sat::Solver s;
    add_pigeonhole(&s, 8);
    s.set_conflict_budget(5);
    EXPECT_EQ(s.solve(), sat::SolveResult::kUnknown);
    EXPECT_EQ(s.unknown_cause(), sat::UnknownCause::kConflictBudget);
    // 0 restores the unlimited default and the instance is decidable again.
    s.set_conflict_budget(0);
    EXPECT_EQ(s.solve(), sat::SolveResult::kUnsat);
    EXPECT_EQ(s.unknown_cause(), sat::UnknownCause::kNone);
}

TEST(SolverBudget, InterruptHookStopsTheSearch)
{
    sat::Solver s;
    add_pigeonhole(&s, 9);  // needs far more than one poll interval
    s.set_interrupt([] { return true; });
    EXPECT_EQ(s.solve(), sat::SolveResult::kUnknown);
    EXPECT_EQ(s.unknown_cause(), sat::UnknownCause::kInterrupt);
}

// ---------------------------------------------------------------------------
// Pool backstop: a throwing job must not take the process down.

TEST(PoolFaults, ThrowingJobIsContainedAndCounted)
{
    sched::WorkStealingPool pool(2);
    pool.run_batch({[](int) { throw std::runtime_error("job boom"); },
                    [](int) { /* healthy sibling */ }});
    EXPECT_EQ(pool.stats().job_faults, 1u);
    // The pool stays serviceable afterwards.
    std::atomic<int> ran{0};
    pool.run_batch({[&ran](int) { ran.fetch_add(1); },
                    [&ran](int) { ran.fetch_add(1); }});
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.stats().job_faults, 1u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation.

TEST(Cancellation, PreRequestedTokenYieldsEmptyCancelledSuite)
{
    const mtm::Model model = mtm::x86t_elt();
    util::CancelSource source;
    source.request();
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.cancel = source.token();
    opt.jobs = 2;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_TRUE(suite.cancelled);
    EXPECT_FALSE(suite.complete);
    EXPECT_TRUE(suite.tests.empty());
    // The seconds fix: a suite cancelled before any shard ran reports ~0
    // searched time, not the queue wait.
    EXPECT_LT(suite.seconds, 0.01);
}

TEST(Cancellation, MidRunRequestStopsWithinTheRun)
{
    const mtm::Model model = mtm::x86t_elt();
    util::CancelSource source;
    synth::SynthesisOptions opt = small_options(4, 7);
    opt.cancel = source.token();
    opt.jobs = 2;
    std::thread trigger([&source] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        source.request();
    });
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "sc_per_loc", opt);
    trigger.join();
    EXPECT_TRUE(suite.cancelled);
    EXPECT_FALSE(suite.complete);
}

/// A search whose enumerator emits almost nothing for seconds: at bound
/// 30 with eight cores and eight VAs, nearly every invlpg slot structure
/// dies at linking or in its VA constraints before a candidate exists.
synth::SynthesisOptions
silent_enumerator_options()
{
    synth::SynthesisOptions opt = small_options(4, 30);
    opt.max_threads = 8;
    opt.max_vas = 8;
    opt.jobs = 2;
    return opt;
}

TEST(Cancellation, BudgetIsHonouredWhileTheEnumeratorEmitsNothing)
{
    // The enumerator polls the deadline every 1024 decisions, not only per
    // emitted candidate, so a 0.5 s budget ends the search within seconds.
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions opt = silent_enumerator_options();
    opt.time_budget_seconds = 0.5;
    const auto start = std::chrono::steady_clock::now();
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_FALSE(suite.complete);
    EXPECT_FALSE(suite.cancelled);
    EXPECT_LT(wall, 5.0);
}

TEST(Cancellation, CancelIsHonouredWhileTheEnumeratorEmitsNothing)
{
    const mtm::Model model = mtm::x86t_elt();
    util::CancelSource source;
    synth::SynthesisOptions opt = silent_enumerator_options();
    opt.cancel = source.token();
    std::thread trigger([&source] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        source.request();
    });
    const auto start = std::chrono::steady_clock::now();
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    trigger.join();
    EXPECT_TRUE(suite.cancelled);
    EXPECT_FALSE(suite.complete);
    EXPECT_LT(wall, 5.0);
}

TEST(Cancellation, BudgetAndCancelAreHonouredAtEveryBound)
{
    // The liveness sweep: at bounds up to the cap (64), a 0.3 s budget and
    // a cancel after 0.3 s each end the search, incomplete, within a fixed
    // wall-time bound.
    const mtm::Model model = mtm::x86t_elt();
    const auto seconds_since = [](std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t)
            .count();
    };
    for (const int bound : {8, 16, 32, 64}) {
        synth::SynthesisOptions budgeted = silent_enumerator_options();
        budgeted.bound = bound;
        budgeted.time_budget_seconds = 0.3;
        auto start = std::chrono::steady_clock::now();
        const synth::SuiteResult timed_out =
            synth::synthesize_suite(model, "invlpg", budgeted);
        EXPECT_FALSE(timed_out.complete) << "bound " << bound;
        EXPECT_FALSE(timed_out.cancelled) << "bound " << bound;
        EXPECT_LT(seconds_since(start), 5.0) << "bound " << bound;

        util::CancelSource source;
        synth::SynthesisOptions cancellable = silent_enumerator_options();
        cancellable.bound = bound;
        cancellable.cancel = source.token();
        std::thread trigger([&source] {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            source.request();
        });
        start = std::chrono::steady_clock::now();
        const synth::SuiteResult cancelled =
            synth::synthesize_suite(model, "invlpg", cancellable);
        const double wall = seconds_since(start);
        trigger.join();
        EXPECT_FALSE(cancelled.complete) << "bound " << bound;
        EXPECT_TRUE(cancelled.cancelled) << "bound " << bound;
        EXPECT_LT(wall, 5.0) << "bound " << bound;
    }
}

// ---------------------------------------------------------------------------
// The fault matrix: a rate=1 transient fault at every site, across jobs
// counts, must be absorbed by retries into a suite
// byte-identical to the fault-free baseline.

TEST(FaultMatrix, TransientFaultsPreserveTheSuiteAtEverySite)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::string baseline =
        suite_fingerprint(synth::synthesize_suite(model, "invlpg",
                                                  small_options(4, 4)));
    ASSERT_FALSE(baseline.empty());
    const char* sites[] = {"shard_boundary", "derive", "judge"};
    for (const char* site : sites) {
        for (const int jobs : {1, 2, 4, 8}) {
            util::FaultPlan plan;
            std::string error;
            ASSERT_TRUE(util::FaultPlan::parse(
                std::string("seed=7,site=") + site + ",rate=1,mode=transient",
                &plan, &error))
                << error;
            synth::SynthesisOptions opt = small_options(4, 4);
            opt.jobs = jobs;
            opt.fault_plan = &plan;
            const synth::SuiteResult suite =
                synth::synthesize_suite(model, "invlpg", opt);
            const std::string label =
                std::string(site) + " jobs=" + std::to_string(jobs);
            EXPECT_TRUE(suite.complete) << label;
            EXPECT_FALSE(suite.cancelled) << label;
            EXPECT_TRUE(suite.failures.empty()) << label;
            EXPECT_GT(plan.fired(), 0u) << label;
            EXPECT_GT(suite.scheduler.shard_retries, 0u) << label;
            EXPECT_EQ(suite_fingerprint(suite), baseline) << label;
        }
    }
}

TEST(FaultMatrix, TransientSatSolveFaultPreservesTheSuite)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions base = small_options(4, 4);
    base.backend = synth::Backend::kSat;
    const std::string baseline =
        suite_fingerprint(synth::synthesize_suite(model, "invlpg", base));
    ASSERT_FALSE(baseline.empty());
    for (const int jobs : {1, 2}) {
        util::FaultPlan plan;
        std::string error;
        ASSERT_TRUE(util::FaultPlan::parse(
            "seed=7,site=sat_solve,rate=1,mode=transient", &plan, &error))
            << error;
        synth::SynthesisOptions opt = base;
        opt.jobs = jobs;
        opt.fault_plan = &plan;
        const synth::SuiteResult suite =
            synth::synthesize_suite(model, "invlpg", opt);
        EXPECT_TRUE(suite.complete) << "jobs=" << jobs;
        EXPECT_GT(plan.fired(), 0u) << "jobs=" << jobs;
        EXPECT_GT(suite.scheduler.shard_retries, 0u) << "jobs=" << jobs;
        EXPECT_EQ(suite_fingerprint(suite), baseline) << "jobs=" << jobs;
    }
}

TEST(FaultMatrix, AllocationFaultIsContainedLikeAnyOther)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::string baseline =
        suite_fingerprint(synth::synthesize_suite(model, "invlpg",
                                                  small_options(4, 4)));
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse(
        "seed=3,site=derive,kind=alloc,rate=1,mode=transient", &plan,
        &error))
        << error;
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.jobs = 2;
    opt.fault_plan = &plan;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_TRUE(suite.complete);
    EXPECT_GT(plan.fired(), 0u);
    EXPECT_EQ(suite_fingerprint(suite), baseline);
}

TEST(FaultMatrix, StickyFaultExhaustsRetriesAndQuarantines)
{
    const mtm::Model model = mtm::x86t_elt();
    util::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(util::FaultPlan::parse(
        "seed=5,site=derive,rate=1,mode=sticky", &plan, &error))
        << error;
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.jobs = 2;
    opt.fault_plan = &plan;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_FALSE(suite.complete);
    EXPECT_FALSE(suite.cancelled);
    ASSERT_FALSE(suite.failures.empty());
    EXPECT_EQ(suite.scheduler.shards_quarantined, suite.failures.size());
    for (const synth::ShardFailure& failure : suite.failures) {
        EXPECT_EQ(failure.attempts, opt.shard_retry_limit + 1);
        EXPECT_FALSE(failure.shard.empty());
        EXPECT_NE(failure.error.find("injected"), std::string::npos)
            << failure.error;
    }
}

TEST(FaultMatrix, ConflictBudgetExhaustionIsARetryableFault)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions opt = small_options(4, 5);
    opt.backend = synth::Backend::kSat;
    opt.sat_conflict_budget = 1;  // deterministically too small
    opt.jobs = 1;
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "sc_per_loc", opt);
    EXPECT_FALSE(suite.complete);
    EXPECT_FALSE(suite.cancelled);
    ASSERT_FALSE(suite.failures.empty());
    EXPECT_GT(suite.scheduler.shards_quarantined, 0u);
    EXPECT_NE(suite.failures.front().error.find("budget"),
              std::string::npos)
        << suite.failures.front().error;
}

// ---------------------------------------------------------------------------
// Checkpoint/resume.

TEST(Checkpoint, ResumeReplaysJournaledShardsByteIdentically)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::string path = temp_path("roundtrip.journal");
    const std::string fingerprint = "fault_test roundtrip v1";
    std::string error;

    auto journal =
        synth::CheckpointJournal::create(path, fingerprint, &error);
    ASSERT_NE(journal, nullptr) << error;
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.jobs = 2;
    opt.checkpoint = journal.get();
    const synth::SuiteResult first =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_TRUE(first.complete);
    EXPECT_GT(first.scheduler.checkpoint_shards_saved, 0u);
    journal.reset();

    auto resumed =
        synth::CheckpointJournal::resume(path, fingerprint, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_GT(resumed->loaded(), 0u);
    opt.checkpoint = resumed.get();
    const synth::SuiteResult second =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_TRUE(second.complete);
    EXPECT_GT(second.scheduler.checkpoint_shards_replayed, 0u);
    EXPECT_EQ(suite_fingerprint(second), suite_fingerprint(first));
    EXPECT_EQ(second.programs_considered, first.programs_considered);
    EXPECT_EQ(second.executions_considered, first.executions_considered);
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeReplaysJournaledShardsAfterTheBudgetExpired)
{
    // A replay costs no search, so an expired budget drops only the shards
    // that would need one: resuming a fully journaled run under a budget
    // that expires at once still replays every record.
    const mtm::Model model = mtm::x86t_elt();
    const std::string path = temp_path("budgeted.journal");
    const std::string fingerprint = "fault_test budgeted resume v1";
    std::string error;
    auto journal =
        synth::CheckpointJournal::create(path, fingerprint, &error);
    ASSERT_NE(journal, nullptr) << error;
    synth::SynthesisOptions opt = small_options(4, 5);
    opt.jobs = 2;
    opt.checkpoint = journal.get();
    const synth::SuiteResult first =
        synth::synthesize_suite(model, "invlpg", opt);
    ASSERT_TRUE(first.complete);
    journal.reset();

    auto resumed =
        synth::CheckpointJournal::resume(path, fingerprint, &error);
    ASSERT_NE(resumed, nullptr) << error;
    opt.checkpoint = resumed.get();
    opt.time_budget_seconds = 1e-9;
    const synth::SuiteResult second =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_TRUE(second.complete);
    EXPECT_EQ(second.scheduler.checkpoint_shards_replayed,
              first.scheduler.checkpoint_shards_saved);
    EXPECT_EQ(suite_fingerprint(second), suite_fingerprint(first));
    EXPECT_EQ(second.programs_considered, first.programs_considered);
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeReplaysAFusedSearchByteIdentically)
{
    // One journal serves the fused all-axiom search: each record carries
    // every axiom's counters and axiom-tagged tests.
    const mtm::Model model = mtm::x86t_elt();
    const std::string path = temp_path("fused.journal");
    const std::string fingerprint = "fault_test fused v2";
    std::string error;
    auto journal =
        synth::CheckpointJournal::create(path, fingerprint, &error);
    ASSERT_NE(journal, nullptr) << error;
    synth::SynthesisOptions opt = small_options(4, 5);
    opt.jobs = 2;
    opt.checkpoint = journal.get();
    const std::vector<synth::SuiteResult> first =
        synth::synthesize_all_parallel(model, opt);
    EXPECT_GT(first.front().scheduler.checkpoint_shards_saved, 0u);
    journal.reset();

    auto resumed =
        synth::CheckpointJournal::resume(path, fingerprint, &error);
    ASSERT_NE(resumed, nullptr) << error;
    opt.checkpoint = resumed.get();
    const std::vector<synth::SuiteResult> second =
        synth::synthesize_all_parallel(model, opt);
    EXPECT_GT(second.front().scheduler.checkpoint_shards_replayed, 0u);
    EXPECT_EQ(second.front().scheduler.checkpoint_shards_saved, 0u);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(second[i].complete) << first[i].axiom;
        EXPECT_EQ(suite_fingerprint(second[i]), suite_fingerprint(first[i]))
            << first[i].axiom;
        EXPECT_EQ(second[i].programs_considered,
                  first[i].programs_considered)
            << first[i].axiom;
    }
    std::remove(path.c_str());
}

/// Runs elt_synth --resume on the journal at \p path (an invlpg bound-4
/// run) and returns its exit status, or -1 when it did not exit normally.
#if defined(__linux__) && defined(TRANSFORM_ELT_SYNTH)
int
elt_synth_resume_status(const std::string& path)
{
    const pid_t child = fork();
    if (child < 0) {
        return -1;
    }
    if (child == 0) {
        std::freopen("/dev/null", "w", stdout);
        std::freopen("/dev/null", "w", stderr);
        execl(TRANSFORM_ELT_SYNTH, "elt_synth", "--axiom", "invlpg",
              "--bound", "4", "--quiet", "--checkpoint", path.c_str(),
              "--resume", static_cast<char*>(nullptr));
        _exit(127);
    }
    int status = 0;
    if (waitpid(child, &status, 0) != child || !WIFEXITED(status)) {
        return -1;
    }
    return WEXITSTATUS(status);
}
#endif

TEST(Checkpoint, ResumeRefusesAJournalOfThePreviousFormat)
{
    // Format v1 journaled one axiom's counters per record and untagged
    // tests; v2 journaled a duplicates counter per axiom and checksummed
    // the payload only; v3 journaled split records and hashed ticket
    // strides and skips into task ids. Read as v4 any of them would be
    // misparsed, so resume refuses them by their header — and elt_synth
    // exits 2 (bad input), not 1 (I/O).
    const std::string fingerprint =
        synth::model_fingerprint(mtm::x86t_elt()) +
        " axioms=invlpg bound=4 threads=2 vas=2 backend=enum";
    for (const std::string format :
         {"transform-checkpoint v1", "transform-checkpoint v2",
          "transform-checkpoint v3"}) {
        const std::string path = temp_path("old_format.journal");
        {
            std::ofstream out(path, std::ios::binary);
            out << format << "\n"
                << "fingerprint " << fingerprint.size() << "\n"
                << fingerprint << "\n"
                << "shard 42 10 20 3 0 0 0 0 0 1469598103934665603\n";
        }
        std::string error;
        bool refused = false;
        auto resumed = synth::CheckpointJournal::resume(path, fingerprint,
                                                        &error, &refused);
        EXPECT_EQ(resumed, nullptr) << format;
        EXPECT_TRUE(refused) << format;
        EXPECT_NE(error.find(format), std::string::npos) << error;
#if defined(__linux__) && defined(TRANSFORM_ELT_SYNTH)
        EXPECT_EQ(elt_synth_resume_status(path), 2) << format;
#endif
        std::remove(path.c_str());
    }
}

#if defined(__linux__) && defined(TRANSFORM_ELT_SYNTH)
TEST(Checkpoint, CorruptedJournalResumesCleanlyOrExitsTwo)
{
    // A seeded byte-mutation pass over a real journal: truncations, byte
    // flips anywhere, and digit changes in the journal
    // header and record lines (their numbers steer the replay and carry
    // the counters). Every mutant either resumes (dropping what it cannot
    // verify) to the uninterrupted run's suite and counters with exit 0,
    // or is refused with exit 2; never an abort.
    const std::string path = temp_path("mutant.journal");
    const std::string pristine = temp_path("pristine.journal");
    const std::string base_out = temp_path("mutant_base.txt");
    const std::string command =
        std::string(TRANSFORM_ELT_SYNTH) +
        " --axiom invlpg --bound 5 --quiet";
    // stdout (the suite) and the summary line without its wall time.
    const auto outcome = [](const std::string& out, const std::string& err) {
        std::ifstream suite(out), log(err);
        std::string text((std::istreambuf_iterator<char>(suite)),
                         std::istreambuf_iterator<char>());
        for (std::string line; std::getline(log, line);) {
            if (line.rfind("[x86t_elt / invlpg]", 0) == 0) {
                text += line.substr(0, line.rfind(", "));
            }
        }
        return text;
    };
    const std::string base_err = temp_path("mutant_base.err");
    ASSERT_EQ(std::system((command + " --checkpoint " + pristine + " > " +
                           base_out + " 2> " + base_err)
                              .c_str()),
              0);
    const std::string expected = outcome(base_out, base_err);
    ASSERT_NE(expected.find(" programs"), std::string::npos) << expected;
    std::string bytes;
    {
        std::ifstream in(pristine, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 100u);
    // Offsets of the bytes of the header lines and "shard" record lines.
    std::vector<std::size_t> lines;
    for (std::size_t at = 0; at < bytes.size();) {
        const std::size_t eol = std::min(bytes.find('\n', at), bytes.size());
        if (at == 0 || bytes.compare(at, 6, "shard ") == 0 ||
            bytes.compare(at, 12, "fingerprint ") == 0) {
            for (std::size_t i = at; i < eol; ++i) {
                lines.push_back(i);
            }
        }
        at = eol + 1;
    }
    std::mt19937_64 rng(20261020);
    for (int mutant = 0; mutant < 48; ++mutant) {
        std::string mutated = bytes;
        if (mutant % 4 == 0) {
            mutated.resize(rng() % mutated.size());
        } else {
            for (int flips = 1 + mutant % 2; flips > 0; --flips) {
                if (mutant % 4 == 1) {
                    mutated[rng() % mutated.size()] ^=
                        static_cast<char>(1 + rng() % 255);
                    continue;
                }
                char& c = mutated[lines[rng() % lines.size()]];
                const int shift = static_cast<int>(1 + rng() % 9);
                c = c >= '0' && c <= '9'
                        ? static_cast<char>('0' + (c - '0' + shift) % 10)
                        : static_cast<char>(c ^ (1 + rng() % 255));
            }
        }
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << mutated;
        }
        const std::string out_path = temp_path("mutant_out.txt");
        const std::string err_path = temp_path("mutant_out.err");
        const int status = std::system(
            (command + " --checkpoint " + path + " --resume > " + out_path +
             " 2> " + err_path)
                .c_str());
        ASSERT_TRUE(WIFEXITED(status)) << "mutant " << mutant;
        const int code = WEXITSTATUS(status);
        EXPECT_TRUE(code == 0 || code == 2)
            << "mutant " << mutant << " exited " << code;
        if (code == 0) {
            EXPECT_EQ(outcome(out_path, err_path), expected)
                << "mutant " << mutant;
        }
        std::remove(out_path.c_str());
        std::remove(err_path.c_str());
    }
    for (const std::string& file : {path, pristine, base_out, base_err}) {
        std::remove(file.c_str());
    }
}
#endif

TEST(Checkpoint, ResumeRefusesAMismatchedFingerprint)
{
    const std::string path = temp_path("fingerprint.journal");
    std::string error;
    auto journal =
        synth::CheckpointJournal::create(path, "configuration A", &error);
    ASSERT_NE(journal, nullptr) << error;
    journal.reset();
    auto resumed =
        synth::CheckpointJournal::resume(path, "configuration B", &error);
    EXPECT_EQ(resumed, nullptr);
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeRefusesAJournalAfterAnAxiomEdit)
{
    // The journal names the model by its normalised source, so editing an
    // axiom between --checkpoint and --resume refuses the journal instead
    // of merging shards judged under two models; comments do not count.
    const auto compile = [](const std::string& source) {
        spec::Diagnostic diag;
        const auto parsed = spec::parse_model(source, &diag);
        EXPECT_TRUE(parsed.has_value()) << diag.to_string("<fault_test>");
        return spec::compile_model(*parsed);
    };
    std::string source;
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        if (std::string(entry.name) == "x86t_elt.mtm") {
            source = entry.source;
        }
    }
    std::string edited = source;
    const std::string axiom = "acyclic(fr_va | po | remap)";
    ASSERT_NE(edited.find(axiom), std::string::npos);
    edited.replace(edited.find(axiom), axiom.size(),
                   "acyclic(fr_va | fence | remap)");
    const mtm::Model model = compile(source);
    const std::string fingerprint = synth::model_fingerprint(model) +
                                    " bound=4";
    const std::string path = temp_path("axiom_edit.journal");
    std::string error;
    auto journal =
        synth::CheckpointJournal::create(path, fingerprint, &error);
    ASSERT_NE(journal, nullptr) << error;
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.checkpoint = journal.get();
    const synth::SuiteResult first =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_GT(first.scheduler.checkpoint_shards_saved, 0u);
    journal.reset();

    const mtm::Model edited_model = compile(edited);
    EXPECT_EQ(edited_model.name(), model.name());
    auto refused = synth::CheckpointJournal::resume(
        path, synth::model_fingerprint(edited_model) + " bound=4", &error);
    EXPECT_EQ(refused, nullptr);
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

    const mtm::Model commented = compile("// a new comment\n" + source);
    auto resumed = synth::CheckpointJournal::resume(
        path, synth::model_fingerprint(commented) + " bound=4", &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_GT(resumed->loaded(), 0u);
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeDropsATornTail)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::string path = temp_path("torn.journal");
    const std::string fingerprint = "fault_test torn v1";
    std::string error;

    auto journal =
        synth::CheckpointJournal::create(path, fingerprint, &error);
    ASSERT_NE(journal, nullptr) << error;
    synth::SynthesisOptions opt = small_options(4, 4);
    opt.checkpoint = journal.get();
    const synth::SuiteResult first =
        synth::synthesize_suite(model, "invlpg", opt);
    const std::uint64_t saved = first.scheduler.checkpoint_shards_saved;
    ASSERT_GT(saved, 0u);
    journal.reset();

    {
        // A crash mid-append: a record header with no payload behind it.
        std::ofstream torn(path, std::ios::app | std::ios::binary);
        torn << "shard 12345 1 1 0";
    }
    auto resumed =
        synth::CheckpointJournal::resume(path, fingerprint, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_EQ(resumed->loaded(), saved);
    opt.checkpoint = resumed.get();
    const synth::SuiteResult second =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_EQ(suite_fingerprint(second), suite_fingerprint(first));
    std::remove(path.c_str());
}

#if defined(__linux__)
/// The acceptance test for crash safety: SIGKILL the process mid-run (via
/// the kill-kind fault plan), then resume from the journal and get a
/// byte-identical suite and the same counters. Bound 6, where the merge
/// drops accepted isomorphs, so the duplicates count crosses the journal.
TEST(Checkpoint, KillMidRunThenResumeIsByteIdentical)
{
    const mtm::Model model = mtm::x86t_elt();
    const std::string path = temp_path("kill.journal");
    const std::string fingerprint = "fault_test kill v1";
    const synth::SuiteResult uninterrupted =
        synth::synthesize_suite(model, "invlpg", small_options(4, 6));
    const std::string baseline = suite_fingerprint(uninterrupted);
    ASSERT_FALSE(baseline.empty());
    EXPECT_GT(uninterrupted.duplicates_rejected, 0u);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: journal the run and die on the third shard
        // boundary. jobs=1 keeps the process-wide `after` skip counter
        // deterministic.
        std::string error;
        auto journal =
            synth::CheckpointJournal::create(path, fingerprint, &error);
        util::FaultPlan plan;
        if (journal == nullptr ||
            !util::FaultPlan::parse(
                "seed=1,site=shard_boundary,kind=kill,rate=1,after=2",
                &plan, &error)) {
            _exit(10);
        }
        synth::SynthesisOptions opt = small_options(4, 6);
        opt.jobs = 1;
        opt.checkpoint = journal.get();
        opt.fault_plan = &plan;
        (void)synth::synthesize_suite(model, "invlpg", opt);
        _exit(11);  // the kill plan should never let us get here
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited with " << WEXITSTATUS(status)
        << " instead of dying by signal";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    std::string error;
    auto resumed =
        synth::CheckpointJournal::resume(path, fingerprint, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_GE(resumed->loaded(), 1u);  // the shards finished before the kill
    synth::SynthesisOptions opt = small_options(4, 6);
    opt.jobs = 4;
    opt.checkpoint = resumed.get();
    const synth::SuiteResult suite =
        synth::synthesize_suite(model, "invlpg", opt);
    EXPECT_TRUE(suite.complete);
    EXPECT_GT(suite.scheduler.checkpoint_shards_replayed, 0u);
    EXPECT_EQ(suite_fingerprint(suite), baseline);
    EXPECT_EQ(suite.programs_considered, uninterrupted.programs_considered);
    EXPECT_EQ(suite.executions_considered,
              uninterrupted.executions_considered);
    EXPECT_EQ(suite.duplicates_rejected, uninterrupted.duplicates_rejected);
    std::remove(path.c_str());
}
#endif  // __linux__

}  // namespace
}  // namespace transform
