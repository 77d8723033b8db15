/// \file
/// Tests for the v2 parallel synthesis runtime: the Chase-Lev lock-free
/// deque, the persistent work-stealing pool (job groups, in-job spawning,
/// reuse across batches), the sharded canonical-key index (perfbench's
/// replay uses it), and the engine-level determinism contract — a multi-threaded synthesize_suite
/// run yields the exact same canonical suite (keys, order, witnesses) and
/// the same job count as jobs=1, on both backends. This binary also runs
/// under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "elt/serialize.h"
#include "mtm/model.h"
#include "obs/trace.h"
#include "sched/chase_lev.h"
#include "sched/scheduler.h"
#include "sched/sharded_index.h"
#include "synth/engine.h"
#include "util/stopwatch.h"

namespace transform {
namespace {

TEST(ChaseLevDeque, OwnerPushPopIsLifo)
{
    sched::ChaseLevDeque<int> deque;
    int out = 0;
    EXPECT_FALSE(deque.pop(&out));
    for (int i = 0; i < 10; ++i) {
        deque.push(i);
    }
    EXPECT_EQ(deque.size_estimate(), 10u);
    for (int i = 9; i >= 0; --i) {
        ASSERT_TRUE(deque.pop(&out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(deque.pop(&out));
    EXPECT_EQ(deque.size_estimate(), 0u);
}

TEST(ChaseLevDeque, StealTakesOldestFirst)
{
    sched::ChaseLevDeque<int> deque;
    for (int i = 0; i < 5; ++i) {
        deque.push(i);
    }
    // FIFO from the top end, run on a second thread as in production.
    std::jthread thief([&deque] {
        int out = -1;
        for (int i = 0; i < 5; ++i) {
            ASSERT_TRUE(deque.steal(&out));
            EXPECT_EQ(out, i);
        }
        EXPECT_FALSE(deque.steal(&out));
    });
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity)
{
    sched::ChaseLevDeque<int> deque(4);
    EXPECT_EQ(deque.capacity(), 4u);
    constexpr int kItems = 1000;
    for (int i = 0; i < kItems; ++i) {
        deque.push(i);
    }
    EXPECT_GE(deque.capacity(), static_cast<std::size_t>(kItems));
    int out = 0;
    for (int i = kItems - 1; i >= 0; --i) {
        ASSERT_TRUE(deque.pop(&out));
        EXPECT_EQ(out, i);
    }
    EXPECT_FALSE(deque.pop(&out));
}

TEST(ChaseLevDeque, ConcurrentStealsLoseNothingAndDuplicateNothing)
{
    // The owner interleaves pushes and pops while thieves hammer steal();
    // every pushed value must be consumed exactly once, split arbitrarily
    // between the two ends. Growth is exercised via a tiny initial ring.
    sched::ChaseLevDeque<int> deque(2);
    constexpr int kItems = 20000;
    constexpr int kThieves = 4;
    std::vector<std::atomic<int>> seen(kItems);
    std::atomic<int> consumed{0};
    std::atomic<bool> done{false};
    {
        std::vector<std::jthread> thieves;
        for (int t = 0; t < kThieves; ++t) {
            thieves.emplace_back([&] {
                int out = -1;
                while (!done.load(std::memory_order_acquire) ||
                       deque.size_estimate() > 0) {
                    if (deque.steal(&out)) {
                        seen[static_cast<std::size_t>(out)].fetch_add(1);
                        consumed.fetch_add(1);
                    }
                }
            });
        }
        int out = -1;
        for (int i = 0; i < kItems; ++i) {
            deque.push(i);
            if (i % 3 == 0 && deque.pop(&out)) {
                seen[static_cast<std::size_t>(out)].fetch_add(1);
                consumed.fetch_add(1);
            }
        }
        while (deque.pop(&out)) {
            seen[static_cast<std::size_t>(out)].fetch_add(1);
            consumed.fetch_add(1);
        }
        done.store(true, std::memory_order_release);
    }
    EXPECT_EQ(consumed.load(), kItems);
    for (int i = 0; i < kItems; ++i) {
        EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << i;
    }
}

TEST(ResolveJobs, ZeroMeansHardwareConcurrency)
{
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(sched::resolve_jobs(0), hw == 0 ? 1 : static_cast<int>(hw));
    EXPECT_EQ(sched::resolve_jobs(1), 1);
    EXPECT_EQ(sched::resolve_jobs(7), 7);
    EXPECT_EQ(sched::resolve_jobs(-3), sched::resolve_jobs(0));
}

TEST(WorkStealingPool, RunsEveryJobExactlyOnce)
{
    for (const int workers : {1, 2, 4, 8}) {
        sched::WorkStealingPool pool(workers);
        EXPECT_EQ(pool.workers(), workers);
        constexpr int kJobs = 500;
        std::vector<std::atomic<int>> runs(kJobs);
        std::vector<sched::WorkStealingPool::Job> jobs;
        for (int i = 0; i < kJobs; ++i) {
            jobs.push_back([&runs, i, workers](int worker) {
                EXPECT_GE(worker, 0);
                EXPECT_LT(worker, workers);
                runs[static_cast<std::size_t>(i)].fetch_add(1);
            });
        }
        pool.run_batch(std::move(jobs));
        for (int i = 0; i < kJobs; ++i) {
            EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << i;
        }
        const sched::SchedulerStats stats = pool.stats();
        EXPECT_EQ(stats.workers, workers);
        EXPECT_EQ(stats.jobs_run, static_cast<std::uint64_t>(kJobs));
        EXPECT_LE(stats.steals, stats.jobs_run);
    }
}

TEST(WorkStealingPool, EmptyBatchIsANoOp)
{
    sched::WorkStealingPool pool(4);
    pool.run_batch({});
    EXPECT_EQ(pool.stats().jobs_run, 0u);
}

TEST(WorkStealingPool, UnevenJobsAllComplete)
{
    // A few heavy jobs seeded onto one deque force stealing to finish the
    // batch; completion (not the steal count, which is timing-dependent) is
    // the contract.
    sched::WorkStealingPool pool(4);
    std::atomic<std::uint64_t> total{0};
    std::vector<sched::WorkStealingPool::Job> jobs;
    for (int i = 0; i < 64; ++i) {
        jobs.push_back([&total, i](int) {
            std::uint64_t spins = (i % 16 == 0) ? 200000 : 100;
            volatile std::uint64_t sink = 0;
            for (std::uint64_t s = 0; s < spins; ++s) {
                sink += s;
            }
            total.fetch_add(1);
        });
    }
    pool.run_batch(std::move(jobs));
    EXPECT_EQ(total.load(), 64u);
}

TEST(WorkStealingPool, PersistsAcrossBatches)
{
    // v1 pools were single-shot; the v2 pool parks its workers between
    // batches and serves any number of them.
    sched::WorkStealingPool pool(2);
    std::atomic<int> total{0};
    for (int batch = 0; batch < 5; ++batch) {
        std::vector<sched::WorkStealingPool::Job> jobs;
        for (int i = 0; i < 20; ++i) {
            jobs.push_back([&total](int) { total.fetch_add(1); });
        }
        pool.run_batch(std::move(jobs));
        EXPECT_EQ(total.load(), 20 * (batch + 1));
    }
    EXPECT_EQ(pool.stats().jobs_run, 100u);
}

TEST(WorkStealingPool, ConcurrentGroupsTrackTheirOwnStats)
{
    sched::WorkStealingPool pool(4);
    const auto small = pool.make_group();
    const auto large = pool.make_group();
    std::atomic<int> small_runs{0};
    std::atomic<int> large_runs{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit(small, [&small_runs](int) { small_runs.fetch_add(1); });
    }
    std::vector<sched::WorkStealingPool::Job> batch;
    for (int i = 0; i < 40; ++i) {
        batch.push_back([&large_runs](int) { large_runs.fetch_add(1); });
    }
    pool.submit(large, std::move(batch));
    pool.wait(small);
    EXPECT_EQ(small_runs.load(), 8);
    pool.wait(large);
    EXPECT_EQ(large_runs.load(), 40);
    EXPECT_EQ(pool.group_stats(small).jobs_run, 8u);
    EXPECT_EQ(pool.group_stats(large).jobs_run, 40u);
    EXPECT_EQ(pool.stats().jobs_run, 48u);
}

TEST(WorkStealingPool, JobsCanSpawnIntoTheirOwnGroup)
{
    // A job may submit follow-up jobs into its own group (the engine
    // retries a faulted shard this way), and wait() only returns once the
    // whole spawn tree has drained.
    sched::WorkStealingPool pool(3);
    const auto group = pool.make_group();
    std::atomic<int> leaves{0};
    std::function<void(int, int)> fan_out = [&](int depth, int) {
        if (depth == 0) {
            leaves.fetch_add(1);
            return;
        }
        for (int c = 0; c < 3; ++c) {
            pool.submit(group, [&fan_out, depth](int worker) {
                fan_out(depth - 1, worker);
            });
        }
    };
    pool.submit(group, [&fan_out](int worker) { fan_out(3, worker); });
    pool.wait(group);
    EXPECT_EQ(leaves.load(), 27);  // 3^3 leaves
    EXPECT_EQ(pool.group_stats(group).jobs_run, 1u + 3u + 9u + 27u);
}

TEST(WorkStealingPool, WaitOnEmptyGroupReturnsImmediately)
{
    sched::WorkStealingPool pool(2);
    const auto group = pool.make_group();
    pool.wait(group);
    EXPECT_EQ(pool.group_stats(group).jobs_run, 0u);
}

TEST(SchedStats, MergeSumsCountersAndMaxesOverlappingFields)
{
    sched::SchedulerStats a;
    a.workers = 2;
    a.jobs_run = 10;
    a.steals = 3;
    a.skip_enumerations = 100;
    a.queue_wait_seconds = 0.5;
    sched::SchedulerStats b;
    b.workers = 4;
    b.jobs_run = 5;
    b.steals = 2;
    b.skip_enumerations = 50;
    b.queue_wait_seconds = 0.25;
    a.merge(b);
    EXPECT_EQ(a.workers, 4);  // same-pool maximum, not a sum
    EXPECT_EQ(a.jobs_run, 15u);
    EXPECT_EQ(a.steals, 5u);
    EXPECT_EQ(a.skip_enumerations, 150u);
    EXPECT_EQ(a.queue_wait_seconds, 0.5);  // waits overlap: maximum
}

TEST(ShardedKeyIndex, RecordKeepsMinimumTicket)
{
    sched::ShardedKeyIndex index(8);
    EXPECT_EQ(index.stripes(), 8);

    auto first = index.record("k", 42);
    EXPECT_TRUE(first.inserted);
    EXPECT_TRUE(first.is_min);
    EXPECT_EQ(first.min_ticket, 42u);

    auto higher = index.record("k", 99);
    EXPECT_FALSE(higher.inserted);
    EXPECT_FALSE(higher.is_min);
    EXPECT_EQ(higher.min_ticket, 42u);

    auto lower = index.record("k", 7);
    EXPECT_FALSE(lower.inserted);
    EXPECT_TRUE(lower.is_min);
    EXPECT_EQ(lower.min_ticket, 7u);

    EXPECT_EQ(index.min_ticket("k"), 7u);
    EXPECT_EQ(index.hits(), 2u);
    EXPECT_EQ(index.size(), 1u);
}

TEST(ShardedKeyIndex, ConcurrentRecordsConvergeToGlobalMinimum)
{
    sched::ShardedKeyIndex index(16);
    constexpr int kKeys = 50;
    constexpr int kThreads = 8;
    {
        std::vector<std::jthread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&index, t] {
                for (int k = 0; k < kKeys; ++k) {
                    index.record("key" + std::to_string(k),
                                 static_cast<std::uint64_t>(100 * k + t));
                }
            });
        }
    }
    EXPECT_EQ(index.size(), static_cast<std::size_t>(kKeys));
    EXPECT_EQ(index.hits(),
              static_cast<std::uint64_t>(kKeys * (kThreads - 1)));
    for (int k = 0; k < kKeys; ++k) {
        EXPECT_EQ(index.min_ticket("key" + std::to_string(k)),
                  static_cast<std::uint64_t>(100 * k));
    }
}

synth::SynthesisOptions
suite_options(int bound, int jobs, synth::Backend backend)
{
    synth::SynthesisOptions opt;
    opt.min_bound = 4;
    opt.bound = bound;
    opt.jobs = jobs;
    opt.backend = backend;
    return opt;
}

/// Serializes a suite to the parts the determinism contract covers: keys,
/// order, witnesses, sizes, violated lists (not counters or timing).
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

TEST(SchedDeterminism, EnumerativeSuiteIdenticalAcrossJobCounts)
{
    const mtm::Model model = mtm::x86t_elt();
    for (const std::string axiom : {"sc_per_loc", "invlpg", "tlb_causality"}) {
        const synth::SuiteResult reference = synth::synthesize_suite(
            model, axiom, suite_options(5, 1, synth::Backend::kEnumerative));
        EXPECT_TRUE(reference.complete);
        EXPECT_FALSE(reference.tests.empty()) << axiom;
        for (const int jobs : {2, 4}) {
            const synth::SuiteResult parallel = synth::synthesize_suite(
                model, axiom,
                suite_options(5, jobs, synth::Backend::kEnumerative));
            EXPECT_EQ(suite_fingerprint(reference),
                      suite_fingerprint(parallel))
                << axiom << " with jobs=" << jobs;
        }
    }
}

TEST(SchedDeterminism, SatBackendSuiteIdenticalAcrossJobCounts)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult reference = synth::synthesize_suite(
        model, "invlpg", suite_options(4, 1, synth::Backend::kSat));
    EXPECT_FALSE(reference.tests.empty());
    const synth::SuiteResult parallel = synth::synthesize_suite(
        model, "invlpg", suite_options(4, 4, synth::Backend::kSat));
    EXPECT_EQ(suite_fingerprint(reference), suite_fingerprint(parallel));
}

TEST(SchedDeterminism, BackendsAgreeUnderParallelism)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult enumerative = synth::synthesize_suite(
        model, "invlpg", suite_options(4, 4, synth::Backend::kEnumerative));
    const synth::SuiteResult sat = synth::synthesize_suite(
        model, "invlpg", suite_options(4, 4, synth::Backend::kSat));
    std::set<std::string> enum_keys;
    std::set<std::string> sat_keys;
    for (const auto& t : enumerative.tests) {
        enum_keys.insert(t.canonical_key);
    }
    for (const auto& t : sat.tests) {
        sat_keys.insert(t.canonical_key);
    }
    EXPECT_EQ(enum_keys, sat_keys);
}

TEST(SchedDeterminism, SuiteIsSortedByCanonicalKey)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult suite = synth::synthesize_suite(
        model, "sc_per_loc",
        suite_options(5, 4, synth::Backend::kEnumerative));
    for (std::size_t i = 1; i < suite.tests.size(); ++i) {
        EXPECT_LT(suite.tests[i - 1].canonical_key,
                  suite.tests[i].canonical_key);
    }
}

TEST(SchedDeterminism, HardwareConcurrencyJobsProducesSameSuite)
{
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult reference = synth::synthesize_suite(
        model, "rmw_atomicity",
        suite_options(5, 1, synth::Backend::kEnumerative));
    const synth::SuiteResult parallel = synth::synthesize_suite(
        model, "rmw_atomicity",
        suite_options(5, 0, synth::Backend::kEnumerative));
    EXPECT_EQ(suite_fingerprint(reference), suite_fingerprint(parallel));
    EXPECT_EQ(parallel.scheduler.workers, sched::resolve_jobs(0));
}

TEST(SchedDeterminism, ObservabilityOnIsByteIdenticalAtEveryWorkerCount)
{
    // The observability layer (metrics + trace) must be purely
    // observational: same fingerprint as the uninstrumented jobs=1 run at
    // every worker count.
    const mtm::Model model = mtm::x86t_elt();
    const synth::SuiteResult reference = synth::synthesize_suite(
        model, "invlpg", suite_options(5, 1, synth::Backend::kEnumerative));
    for (const int jobs : {1, 2, 4}) {
        synth::SynthesisOptions options =
            suite_options(5, jobs, synth::Backend::kEnumerative);
        options.collect_metrics = true;
        obs::TraceCollector trace(4);
        options.trace = &trace;
        const synth::SuiteResult observed =
            synth::synthesize_suite(model, "invlpg", options);
        EXPECT_EQ(suite_fingerprint(reference), suite_fingerprint(observed))
            << "jobs=" << jobs;
    }
}

/// The shards of one axiom's search: each event bound's static partition
/// at synth::shard_depth_for(size) decisions.
std::uint64_t
partition_size(const mtm::Model& model, const std::string& axiom,
               const synth::SynthesisOptions& options)
{
    std::uint64_t shards = 0;
    for (int size = options.min_bound; size <= options.bound; ++size) {
        shards += synth::partition_skeletons_at_depth(
                      synth::engine_skeleton_options(model, axiom, options,
                                                     size),
                      synth::shard_depth_for(size))
                      .size();
    }
    return shards;
}

TEST(SchedStats, CountersAreFilledAndJobsIndependent)
{
    // The engine searches one static partition per event bound, so the job
    // count is the partition's shard count — a pure function of the
    // options, identical at every worker count.
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions options =
        suite_options(6, 1, synth::Backend::kEnumerative);
    const synth::SuiteResult one =
        synth::synthesize_suite(model, "invlpg", options);
    EXPECT_EQ(one.scheduler.workers, 1);
    EXPECT_EQ(one.scheduler.jobs_run,
              partition_size(model, "invlpg", options));
    EXPECT_EQ(one.scheduler.skip_enumerations, 0u);
    // Every candidate is searched and duplicates are dropped once, at the
    // merge, so the enumerative counters are pure functions of the
    // options at every worker count. At bound 6 the merge drops accepted
    // isomorphs, so duplicates_rejected is exercised too.
    EXPECT_GT(one.duplicates_rejected, 0u);
    for (const int jobs : {1, 2, 4}) {
        options.jobs = jobs;
        const synth::SuiteResult run =
            synth::synthesize_suite(model, "invlpg", options);
        const std::string where = "jobs=" + std::to_string(jobs);
        EXPECT_EQ(run.scheduler.workers, jobs) << where;
        EXPECT_EQ(run.scheduler.jobs_run, one.scheduler.jobs_run) << where;
        EXPECT_EQ(suite_fingerprint(run), suite_fingerprint(one)) << where;
        EXPECT_EQ(run.programs_considered, one.programs_considered)
            << where;
        EXPECT_EQ(run.executions_considered, one.executions_considered)
            << where;
        EXPECT_EQ(run.duplicates_rejected, one.duplicates_rejected)
            << where;
    }
}

TEST(StaticSharding, ShardDepthGrowsWithTheBoundUpToFour)
{
    EXPECT_EQ(synth::shard_depth_for(2), 1);
    EXPECT_EQ(synth::shard_depth_for(5), 1);
    EXPECT_EQ(synth::shard_depth_for(6), 2);
    EXPECT_EQ(synth::shard_depth_for(7), 3);
    EXPECT_EQ(synth::shard_depth_for(8), 4);
    EXPECT_EQ(synth::shard_depth_for(12), 4);
}

TEST(StaticSharding, SuiteMatrixMatchesTheSequentialFixture)
{
    // The byte-identical-suite contract across worker counts. The fixture
    // is the jobs=1 run. It equals the sequential suite of the paper's
    // serial loop whatever order the shards run in: tickets number the
    // candidates in partition order, which is the sequential enumeration
    // order, and the merge keeps each class's smallest ticket. So every
    // worker count must reproduce its suite and its programs counter
    // (each candidate is searched exactly once).
    const mtm::Model model = mtm::x86t_elt();
    for (const std::string axiom : {"sc_per_loc", "invlpg"}) {
        const synth::SynthesisOptions fixture =
            suite_options(6, 1, synth::Backend::kEnumerative);
        const synth::SuiteResult reference =
            synth::synthesize_suite(model, axiom, fixture);
        EXPECT_TRUE(reference.complete);
        EXPECT_FALSE(reference.tests.empty()) << axiom;
        for (const int jobs : {2, 4, 8}) {
            synth::SynthesisOptions opt = fixture;
            opt.jobs = jobs;
            const synth::SuiteResult swept =
                synth::synthesize_suite(model, axiom, opt);
            EXPECT_EQ(suite_fingerprint(reference), suite_fingerprint(swept))
                << axiom << " jobs=" << jobs;
            EXPECT_EQ(reference.programs_considered,
                      swept.programs_considered)
                << axiom << " jobs=" << jobs;
        }
    }
}

TEST(SchedStats, QueueWaitExcludedFromSuiteSeconds)
{
    // synthesize_all_parallel is one fused search: every suite reports the
    // search's seconds, measured from when its deadline armed, and the
    // wait before that sits in the first suite's queue_wait_seconds (the
    // run-level counters are measured once, on the first suite). Search
    // time plus queue wait fit inside the call's wall time.
    const mtm::Model model = mtm::x86t_elt();
    const synth::SynthesisOptions opt =
        suite_options(5, 1, synth::Backend::kEnumerative);
    util::Stopwatch watch;
    const auto suites = synth::synthesize_all_parallel(model, opt);
    const double wall = watch.elapsed_seconds();
    ASSERT_GE(suites.size(), 3u);
    const synth::SuiteResult& first = suites.front();
    EXPECT_GE(first.scheduler.queue_wait_seconds, 0.0);
    EXPECT_GT(first.seconds, 0.0);
    EXPECT_LE(first.scheduler.queue_wait_seconds + first.seconds,
              wall * 1.05);
    for (const auto& suite : suites) {
        EXPECT_EQ(suite.seconds, first.seconds) << suite.axiom;
    }
    for (std::size_t i = 1; i < suites.size(); ++i) {
        EXPECT_EQ(suites[i].scheduler.queue_wait_seconds, 0.0)
            << suites[i].axiom;
    }
}

TEST(StaticSharding, SharedPoolSweepMatchesSerialDriver)
{
    // synthesize_all_parallel runs every axiom as ONE fused search; the
    // result must be indistinguishable from the serial per-axiom driver.
    const mtm::Model model = mtm::x86t_elt();
    const synth::SynthesisOptions opt =
        suite_options(5, 4, synth::Backend::kEnumerative);
    const auto serial = synth::synthesize_all(model, opt);
    const auto shared = synth::synthesize_all_parallel(model, opt);
    ASSERT_EQ(serial.size(), shared.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].axiom, shared[i].axiom);
        EXPECT_EQ(suite_fingerprint(serial[i]), suite_fingerprint(shared[i]))
            << serial[i].axiom;
    }
}

}  // namespace
}  // namespace transform
