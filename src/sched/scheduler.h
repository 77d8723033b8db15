/// \file
/// The v2 work-stealing scheduler of the parallel synthesis runtime (see
/// docs/scheduler.md and DESIGN.md, "Parallel synthesis runtime").
///
/// v1 was a single-shot batch object: one mutex-guarded deque per worker,
/// threads spawned per batch, destroyed at the end, and no way to submit
/// work while a batch ran. v2 is a *persistent shared pool*: worker threads
/// start once, park when idle, and serve any number of concurrent *job
/// groups*. Each worker owns a lock-free Chase-Lev deque (owner pops LIFO,
/// thieves steal FIFO); external submitters go through a small injection
/// queue, and a running job may spawn follow-up jobs into the same group —
/// how the synthesis engine re-enqueues a faulted shard for a retry.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace transform::obs {
class TraceCollector;
}

namespace transform::sched {

/// Aggregate counters for a job group or a pool lifetime (the scheduler
/// analogue of sat::SolverStats). The pool fills the scheduling fields; the
/// synthesis engine adds the queue-wait / robustness fields before
/// surfacing the struct through SuiteResult and `elt_synth --stats`.
struct SchedulerStats {
    int workers = 0;                 ///< worker threads in the pool
    std::uint64_t jobs_run = 0;      ///< jobs executed
    std::uint64_t steals = 0;        ///< jobs migrated by stealing
                                     ///< (Chase-Lev steals take one job)
    /// Candidates enumerated twice because a shard job replayed part of
    /// another's stream. The engine searches one static partition, whose
    /// shards are disjoint, so it never does: always 0 (kept for readers
    /// of the field).
    std::uint64_t skip_enumerations = 0;
    /// Wall time a suite's jobs spent queued on a shared pool before the
    /// first one ran (its deadline armed); excluded from
    /// SuiteResult::seconds (engine).
    double queue_wait_seconds = 0.0;
    /// Jobs whose closure escaped with an exception and were contained by
    /// the pool's job-boundary backstop. The synthesis engine catches and
    /// retries its own shard faults before they reach the pool, so a
    /// nonzero count here means a fault outside the engine's guarded
    /// region (pool).
    std::uint64_t job_faults = 0;
    /// Fault containment (engine, docs/robustness.md): shard jobs
    /// re-enqueued after a contained fault, and shard jobs quarantined
    /// once the retry budget ran out (their structured errors are in
    /// SuiteResult::failures).
    std::uint64_t shard_retries = 0;
    std::uint64_t shards_quarantined = 0;
    /// Checkpointing (engine): completed shard records appended to the
    /// `--checkpoint` journal, and shards replayed from it on `--resume`
    /// instead of re-searched.
    std::uint64_t checkpoint_shards_saved = 0;
    std::uint64_t checkpoint_shards_replayed = 0;

    /// Accumulates another group's counters (per-suite totals in
    /// synthesize_all; `workers` and `queue_wait_seconds` — which overlap
    /// across groups rather than add — take the maximum).
    void merge(const SchedulerStats& other);
};

/// Resolves a user-facing jobs knob: any non-positive value means "one
/// worker per hardware thread".
int resolve_jobs(int jobs);

/// A persistent work-stealing thread pool shared by every search in the
/// process that holds a reference to it.
///
/// Work is organized in *job groups*: a group is a wait-able set of jobs
/// (one synthesis search submits one group — `synthesize_all_parallel`'s
/// fused search of every axiom included). Groups are independent — jobs
/// of different groups interleave freely on the same workers — and each
/// group carries its own counters so a search's stats stay attributable
/// even on a shared pool.
///
/// Thread-safety contract: make_group/submit/wait/stats are safe from any
/// thread, including from inside a running job (self-submission is how a
/// faulted shard is retried). The destructor joins the
/// workers; every group must be wait()ed before the pool is destroyed.
class WorkStealingPool {
  public:
    /// A job receives the index of the worker executing it (in
    /// [0, workers())); useful for worker-local accumulation.
    using Job = std::function<void(int worker)>;

    /// A wait-able set of jobs. Opaque: created by make_group(), passed
    /// back to submit()/wait()/group_stats().
    class JobGroup;

    /// Shared ownership so the engine can capture the handle in job
    /// closures that outlive the submitting scope.
    using GroupHandle = std::shared_ptr<JobGroup>;

    /// Starts \p workers persistent worker threads (resolved via
    /// resolve_jobs; 0 = one per hardware thread).
    explicit WorkStealingPool(int workers);

    /// Joins the workers. Undefined if a group still has pending jobs —
    /// wait() for every submitted group first.
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool&) = delete;
    WorkStealingPool& operator=(const WorkStealingPool&) = delete;

    /// Creates an empty job group. Thread-safe.
    GroupHandle make_group();

    /// Submits one job to \p group. Thread-safe. When called from inside a
    /// job running on this pool, the new job is pushed onto the calling
    /// worker's own deque (lock-free; idle workers steal it); otherwise it
    /// goes through the injection queue. May be called concurrently with
    /// wait() on the same group only from inside one of the group's jobs
    /// (a job's spawns are counted before the job completes, so the group
    /// cannot be observed complete early).
    void submit(const GroupHandle& group, Job job);

    /// Submits a batch of jobs to \p group in one injection-queue
    /// operation. Thread-safe; same semantics as the single-job overload.
    void submit(const GroupHandle& group, std::vector<Job> jobs);

    /// Blocks until every job submitted to \p group — including jobs
    /// spawned by the group's own jobs — has finished. Thread-safe; must
    /// not be called from inside a job (a worker waiting on its own pool
    /// can deadlock). Returns immediately for a group with no jobs.
    void wait(const GroupHandle& group);

    /// Convenience for one-shot callers (elt_check, tests):
    /// make_group() + submit() + wait().
    void run_batch(std::vector<Job> jobs);

    /// Worker count the pool was built with.
    int workers() const;

    /// Attaches (or detaches, nullptr) a span collector: every job
    /// executed afterwards is recorded as a complete "job" span on the
    /// executing worker's trace lane, so gaps between job spans expose
    /// steal/park/injection overhead in the timeline. The collector must
    /// outlive the pool or be detached first; when none is attached the
    /// cost is one relaxed load per job.
    void set_trace(obs::TraceCollector* trace);

    /// Pool-lifetime counters across all groups. Thread-safe; counters are
    /// monotonic but only settled for groups that have been wait()ed.
    SchedulerStats stats() const;

    /// Counters attributed to one group. The pool fills only `workers`,
    /// `jobs_run`, `steals`, and `job_faults`; the engine-owned fields —
    /// `queue_wait_seconds`, `shard_retries`,
    /// `shards_quarantined`, and the checkpoint counters — stay 0 here and
    /// are filled by the synthesis engine into SuiteResult::scheduler.
    /// Thread-safe; settled once wait(group) has returned.
    SchedulerStats group_stats(const GroupHandle& group) const;

  private:
    struct Impl;
    Impl* impl_;
};

}  // namespace transform::sched
