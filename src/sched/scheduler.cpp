#include "sched/scheduler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/chase_lev.h"
#include "util/logging.h"

namespace transform::sched {

void
SchedulerStats::merge(const SchedulerStats& other)
{
    workers = std::max(workers, other.workers);
    jobs_run += other.jobs_run;
    steals += other.steals;
    skip_enumerations += other.skip_enumerations;
    queue_wait_seconds = std::max(queue_wait_seconds,
                                  other.queue_wait_seconds);
    job_faults += other.job_faults;
    shard_retries += other.shard_retries;
    shards_quarantined += other.shards_quarantined;
    checkpoint_shards_saved += other.checkpoint_shards_saved;
    checkpoint_shards_replayed += other.checkpoint_shards_replayed;
}

int
resolve_jobs(int jobs)
{
    if (jobs > 0) {
        return jobs;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

/// A wait-able set of jobs with per-group counters. `pending` counts
/// submitted-but-unfinished jobs; a job's spawns increment it before the
/// job's own decrement, so `pending == 0` is only observable once the whole
/// spawn tree has finished.
class WorkStealingPool::JobGroup {
  public:
    std::atomic<std::uint64_t> pending{0};
    std::atomic<std::uint64_t> jobs_run{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> job_faults{0};

    /// Marks one job finished; wakes waiters on the last one. The notify
    /// runs under the mutex so a waiter cannot check the predicate between
    /// the decrement and the notify and then sleep forever.
    void
    finish_one()
    {
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(mu_);
            cv_.notify_all();
        }
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] {
            return pending.load(std::memory_order_acquire) == 0;
        });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
};

namespace {

/// One unit of work in flight: the closure plus the group it belongs to
/// (shared ownership so the group outlives the caller's handle if needed).
struct JobRecord {
    WorkStealingPool::Job fn;
    std::shared_ptr<WorkStealingPool::JobGroup> group;
};

/// How long a worker parks between re-polls while jobs are still in flight
/// somewhere (they may spawn children through the lock-free owner-push
/// path, whose wakeup can race the park decision). Shard jobs run for
/// milliseconds to minutes, so a 2 ms re-poll is noise — and once the pool
/// has no pending work at all, workers park indefinitely instead (zero
/// steady-state wakeups on an idle pool).
constexpr std::chrono::milliseconds kParkInterval{2};

}  // namespace

struct WorkStealingPool::Impl {
    explicit Impl(int workers)
    {
        deques.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) {
            deques.push_back(std::make_unique<ChaseLevDeque<JobRecord*>>());
        }
        threads.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) {
            threads.emplace_back([this, w] { work(w); });
        }
    }

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            stop = true;
        }
        cv.notify_all();
        threads.clear();  // std::jthread joins on destruction
        // Reclaim records the contract says should not exist (groups must
        // be waited before destruction) — belt and braces, not a leak.
        JobRecord* rec = nullptr;
        for (auto& deque : deques) {
            while (deque->pop(&rec)) {
                delete rec;
            }
        }
        for (JobRecord* injected : inject) {
            delete injected;
        }
        inject.clear();
    }

    /// Enqueues one record: lock-free onto the calling worker's own deque
    /// when submitting from inside a job on this pool, else through the
    /// injection queue.
    void submit_record(JobRecord* rec);

    /// The worker loop: own deque, then injection queue, then stealing;
    /// parks on the condition variable when all three come up empty.
    void work(int self);

    /// Pulls one job from the injection queue. One per lock acquisition:
    /// jobs are coarse (a shard search), and a job moved onto a busy
    /// worker's deque would wait behind that worker's current job until
    /// the queue drained, so submission order would no longer be start
    /// order.
    bool
    take_injected(JobRecord** out)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (inject.empty()) {
            return false;
        }
        *out = inject.front();
        inject.pop_front();
        return true;
    }

    /// One round over the other workers' deques, stealing a single job
    /// (Chase-Lev steals are one-at-a-time; shard jobs are coarse enough
    /// that steal-half batching no longer pays for its complexity).
    bool
    try_steal(int self, JobRecord** out)
    {
        const int n = static_cast<int>(deques.size());
        for (int hop = 1; hop < n; ++hop) {
            const int victim = (self + hop) % n;
            if (deques[static_cast<std::size_t>(victim)]->steal(out)) {
                steals_total.fetch_add(1, std::memory_order_relaxed);
                (*out)->group->steals.fetch_add(1,
                                                std::memory_order_relaxed);
                return true;
            }
        }
        return false;
    }

    void
    execute(JobRecord* rec, int self)
    {
        // Job-boundary fault containment: a job closure that throws must
        // never unwind into the worker thread (the std::jthread body would
        // std::terminate the whole process). The synthesis engine catches
        // and retries its own shard faults before they reach this point;
        // the backstop contains everything else, counts it, and keeps the
        // group's completion accounting intact so wait() still returns.
        const auto run_contained = [&] {
            try {
                rec->fn(self);
            } catch (const std::exception& e) {
                faults_total.fetch_add(1, std::memory_order_relaxed);
                rec->group->job_faults.fetch_add(1,
                                                 std::memory_order_relaxed);
                TF_LOG_WARN("scheduler: job raised uncontained exception: "
                            << e.what());
            } catch (...) {
                faults_total.fetch_add(1, std::memory_order_relaxed);
                rec->group->job_faults.fetch_add(1,
                                                 std::memory_order_relaxed);
                TF_LOG_WARN(
                    "scheduler: job raised uncontained non-std exception");
            }
        };
        obs::TraceCollector* tc = trace.load(std::memory_order_relaxed);
        if (tc != nullptr) {
            const std::uint64_t start = obs::now_nanos();
            run_contained();
            tc->record_complete(self, "job", start, obs::now_nanos());
        } else {
            run_contained();
        }
        const std::shared_ptr<JobGroup> group = std::move(rec->group);
        delete rec;
        jobs_total.fetch_add(1, std::memory_order_relaxed);
        group->jobs_run.fetch_add(1, std::memory_order_relaxed);
        group->finish_one();
        pending_total.fetch_sub(1, std::memory_order_seq_cst);
    }

    std::vector<std::unique_ptr<ChaseLevDeque<JobRecord*>>> deques;
    std::mutex mu;                  ///< guards inject + stop
    std::condition_variable cv;
    std::deque<JobRecord*> inject;
    bool stop = false;
    std::atomic<int> sleepers{0};
    /// Submitted-but-unfinished jobs across all groups. seq_cst against
    /// `sleepers` (a Dekker pair): a parking worker either observes
    /// pending work (and takes the bounded timed wait) or the submitter
    /// observes the sleeper (and delivers a mutex-ordered notify) — so the
    /// indefinite park can never miss a submission.
    std::atomic<std::uint64_t> pending_total{0};
    std::atomic<std::uint64_t> jobs_total{0};
    std::atomic<std::uint64_t> steals_total{0};
    std::atomic<std::uint64_t> faults_total{0};
    /// Optional span collector (set_trace); jobs are recorded as complete
    /// spans on the executing worker's lane.
    std::atomic<obs::TraceCollector*> trace{nullptr};
    std::vector<std::jthread> threads;  ///< last: joined before the rest dies

    /// Identify the pool and worker index of the current thread, so
    /// submit() can route a job spawned from inside a running job straight
    /// onto the spawning worker's own deque (an owner push — the lock-free
    /// path).
    static thread_local Impl* tls_impl;
    static thread_local int tls_worker;
};

thread_local WorkStealingPool::Impl* WorkStealingPool::Impl::tls_impl =
    nullptr;
thread_local int WorkStealingPool::Impl::tls_worker = -1;

void
WorkStealingPool::Impl::submit_record(JobRecord* rec)
{
    rec->group->pending.fetch_add(1, std::memory_order_relaxed);
    pending_total.fetch_add(1, std::memory_order_seq_cst);
    if (tls_impl == this && tls_worker >= 0) {
        deques[static_cast<std::size_t>(tls_worker)]->push(rec);
        if (sleepers.load(std::memory_order_seq_cst) > 0) {
            // Empty critical section before the notify: a worker that
            // already chose the indefinite park holds `mu` until it is
            // actually waiting, so passing through the mutex guarantees
            // the notify cannot fall into its decide-then-wait window.
            { std::lock_guard<std::mutex> lock(mu); }
            cv.notify_all();
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        inject.push_back(rec);
    }
    cv.notify_all();
}

void
WorkStealingPool::Impl::work(int self)
{
    tls_impl = this;
    tls_worker = self;
    JobRecord* rec = nullptr;
    for (;;) {
        if (deques[static_cast<std::size_t>(self)]->pop(&rec) ||
            take_injected(&rec) || try_steal(self, &rec)) {
            execute(rec, self);
            continue;
        }
        std::unique_lock<std::mutex> lock(mu);
        if (stop) {
            break;
        }
        if (!inject.empty()) {
            continue;  // raced a submit; take it through the normal path
        }
        sleepers.fetch_add(1, std::memory_order_seq_cst);
        if (pending_total.load(std::memory_order_seq_cst) > 0) {
            // Jobs are in flight and may spawn onto a deque at any moment
            // through the lock-free path: bounded park, then re-poll.
            cv.wait_for(lock, kParkInterval);
        } else {
            // Nothing pending anywhere: park until a submission (or
            // shutdown) notifies. The Dekker pairing on sleepers /
            // pending_total makes this race-free — see their declarations.
            cv.wait(lock);
        }
        sleepers.fetch_sub(1, std::memory_order_relaxed);
        if (stop) {
            break;
        }
    }
}

WorkStealingPool::WorkStealingPool(int workers)
    : impl_(new Impl(resolve_jobs(workers)))
{
}

WorkStealingPool::~WorkStealingPool()
{
    impl_->shutdown();
    delete impl_;
}

WorkStealingPool::GroupHandle
WorkStealingPool::make_group()
{
    return std::make_shared<JobGroup>();
}

void
WorkStealingPool::submit(const GroupHandle& group, Job job)
{
    TF_ASSERT(group != nullptr);
    impl_->submit_record(new JobRecord{std::move(job), group});
}

void
WorkStealingPool::submit(const GroupHandle& group, std::vector<Job> jobs)
{
    TF_ASSERT(group != nullptr);
    if (jobs.empty()) {
        return;
    }
    // Count first, then publish the whole batch under one lock acquisition.
    group->pending.fetch_add(jobs.size(), std::memory_order_relaxed);
    impl_->pending_total.fetch_add(jobs.size(), std::memory_order_seq_cst);
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        for (Job& job : jobs) {
            impl_->inject.push_back(new JobRecord{std::move(job), group});
        }
    }
    impl_->cv.notify_all();
}

void
WorkStealingPool::wait(const GroupHandle& group)
{
    TF_ASSERT(group != nullptr);
    group->wait();
}

void
WorkStealingPool::run_batch(std::vector<Job> jobs)
{
    const GroupHandle group = make_group();
    submit(group, std::move(jobs));
    wait(group);
}

int
WorkStealingPool::workers() const
{
    return static_cast<int>(impl_->deques.size());
}

void
WorkStealingPool::set_trace(obs::TraceCollector* trace)
{
    impl_->trace.store(trace, std::memory_order_relaxed);
}

SchedulerStats
WorkStealingPool::stats() const
{
    SchedulerStats stats;
    stats.workers = workers();
    stats.jobs_run = impl_->jobs_total.load(std::memory_order_relaxed);
    stats.steals = impl_->steals_total.load(std::memory_order_relaxed);
    stats.job_faults = impl_->faults_total.load(std::memory_order_relaxed);
    return stats;
}

SchedulerStats
WorkStealingPool::group_stats(const GroupHandle& group) const
{
    TF_ASSERT(group != nullptr);
    SchedulerStats stats;
    stats.workers = workers();
    stats.jobs_run = group->jobs_run.load(std::memory_order_relaxed);
    stats.steals = group->steals.load(std::memory_order_relaxed);
    stats.job_faults = group->job_faults.load(std::memory_order_relaxed);
    return stats;
}

}  // namespace transform::sched
