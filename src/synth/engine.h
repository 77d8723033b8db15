/// \file
/// The synthesis engine (section IV): given an MTM and a target axiom,
/// enumerate candidate executions up to an instruction bound, keep the
/// interesting + minimal ones, and deduplicate them into a suite of unique
/// ELT programs. Two backends produce the same suites: the explicit
/// enumerator (default, fast) and the SAT/relational backend mirroring the
/// paper's Alloy pipeline (used for cross-checking and per-program queries).
///
/// The search runs on the parallel synthesis runtime (src/sched/, v2): the
/// (event-bound, skeleton-prefix) space is partitioned into independent
/// shards, one persistent work-stealing pool searches them concurrently
/// (Chase-Lev deques), and the accepted tests are deduplicated once, at the
/// merge: one test per canonical key, the earliest in enumeration order.
/// `synthesize_all_parallel` is one fused search: it walks the candidate
/// stream once for every axiom of the model, sharing the skeleton and
/// (enumerative backend) execution walk, and splits the results into
/// per-axiom suites. The partition is static: each event bound is cut once,
/// at shard_depth_for(bound) skeleton decisions, and every shard job
/// searches its whole shard (see docs/scheduler.md).
///
/// Determinism contract: for a run that completes within its time budget,
/// the merged suite (tests, their order, and their witnesses) is identical
/// for every `jobs` value and every partition depth — the suite is
/// sorted by canonical key and every cross-shard duplicate is resolved
/// toward the candidate earliest in the sequential enumeration order (see
/// DESIGN.md, "Parallel synthesis runtime").
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "elt/execution.h"
#include "mtm/model.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "sat/solver.h"
#include "sched/scheduler.h"
#include "synth/skeleton.h"
#include "util/cancel.h"

namespace transform::obs {
class TraceCollector;
}

namespace transform::util {
class FaultPlan;
}

namespace transform::synth {

class CheckpointJournal;

/// Which execution-space backend drives the per-program search.
enum class Backend {
    kEnumerative,  ///< explicit backtracking (synth/exec_enum.h)
    kSat,          ///< relational SAT encoding (mtm/encoding.h)
};

/// A point-in-time view of an in-flight synthesis run, sampled by the
/// engine's heartbeat thread for SynthesisOptions::progress. Counters are
/// relaxed snapshots — internally consistent enough for a status line, not
/// for asserting invariants (use SuiteResult for settled numbers).
struct SynthesisProgress {
    std::uint64_t shards_done = 0;       ///< shard jobs completed
    std::uint64_t shards_submitted = 0;  ///< fixed at launch; +1 per retry
    std::uint64_t candidates = 0;        ///< programs considered so far
    std::uint64_t tests_found = 0;       ///< pre-merge accepted witnesses
    std::uint64_t checkpoint_shards_saved = 0;
    std::uint64_t checkpoint_shards_replayed = 0;
    int suites_done = 0;   ///< suites whose search has drained
    int suites_total = 0;  ///< suites in this synthesis call
    double seconds = 0.0;  ///< wall time since the synthesis call started
};

/// Synthesis knobs.
struct SynthesisOptions {
    int min_bound = 2;         ///< smallest event count to try
    int bound = 5;             ///< largest event count (inclusive)
    int max_threads = 2;
    int max_vas = 2;
    int max_fresh_pas = 1;
    bool allow_rmw = true;
    bool allow_fences = true;
    bool allow_full_flush = false;   ///< extension: INVLPGALL events
    bool dirty_bit_as_rmw = false;   ///< section III-A2 ablation
    bool require_minimal = true;     ///< spanning-set minimality pruning
    /// Wall-time budget of one search (all axioms of a fused search
    /// together); 0 = unlimited (the paper used one week).
    double time_budget_seconds = 0;
    Backend backend = Backend::kEnumerative;

    /// SAT backend only: how many structure bases each worker's live
    /// session caches, the live one included (see
    /// mtm::IncrementalEncoding::set_base_cache_capacity; 0 and 1 both
    /// disable caching). Purely a performance knob — the synthesized suite
    /// is byte-identical for every capacity (the differential tests sweep
    /// 0 vs the default).
    int sat_base_cache_capacity = 8;

    int jobs = 1;  ///< scheduler workers; 0 = one per hardware thread

    /// Observability (src/obs/, docs/observability.md). Both knobs are
    /// purely observational: they never influence search order, tickets, or
    /// the merge, so the determinism contract holds with them on or off
    /// (asserted by tests/obs_test.cpp).
    ///
    /// When true the run carries a per-worker obs::MetricsRegistry and
    /// attributes candidate-evaluation time to the fixed phase taxonomy
    /// (the first suite's SuiteResult::phases); solver wall-timing is
    /// enabled on the per-worker solvers. Off (default) costs one null
    /// check per instrumentation point and zero clock reads.
    bool collect_metrics = false;

    /// When true the run carries a per-search obs::AllocTracker and every
    /// shard job binds its worker thread to it, so operator-new calls are
    /// attributed to the active phase / call-site bucket
    /// (the first suite's SuiteResult::allocs). Off (default) costs one
    /// thread-local pointer test per allocation (the process-wide proxy
    /// counter is always on).
    bool track_allocs = false;

    /// Progress heartbeat: when set, a sampling thread inside the
    /// synthesis call invokes this roughly every
    /// progress_interval_seconds with a SynthesisProgress snapshot (and
    /// once more when the run drains). The callback runs on that sampling
    /// thread — keep it cheap and thread-safe. Purely observational.
    std::function<void(const SynthesisProgress&)> progress;
    double progress_interval_seconds = 2.0;

    /// When non-null, shard jobs and the search are recorded as spans and
    /// an async span. The collector must have at
    /// least resolve_jobs(jobs) worker lanes plus the main lane and must
    /// outlive the synthesis call. nullptr (default) disables recording.
    obs::TraceCollector* trace = nullptr;

    /// Robustness knobs (docs/robustness.md). All default to off / inert,
    /// and when inert cost at most a relaxed load per candidate — the
    /// fault-tolerant runtime is always compiled in but never perturbs a
    /// fault-free run.

    /// Cooperative cancellation: shard jobs, the candidate loop, and the
    /// SAT search poll this token and stop within milliseconds of a
    /// request, still merging the deterministic partial suite
    /// (SuiteResult::cancelled / complete report the early exit). The
    /// default token is inert (never cancels); the CancelSource behind a
    /// real one must outlive the synthesis call.
    util::CancelToken cancel;

    /// Fault containment: how many times a shard job whose search escaped
    /// with an exception is re-enqueued before being quarantined into
    /// SuiteResult::failures. Retries re-search the identical shard with a
    /// rebuilt solver; the min-ticket merge makes a retried shard's
    /// contribution byte-identical, so transient faults never change the
    /// suite.
    int shard_retry_limit = 2;

    /// SAT backend only: per-solve conflict budget (0 = unlimited). A
    /// solve that exhausts the budget without a decisive verdict raises
    /// sat::BudgetExhausted, which the engine treats as a retryable shard
    /// fault — deterministic, so it quarantines once the retry budget runs
    /// out rather than looping.
    std::int64_t sat_conflict_budget = 0;

    /// Deterministic fault injection (tests / CI only): when non-null,
    /// probes at each fault site ask the plan whether to throw. Firing is a
    /// pure function of (seed, site, candidate key, attempt), so injected
    /// faults reproduce across jobs counts and scheduling. Must outlive the
    /// synthesis call.
    const util::FaultPlan* fault_plan = nullptr;

    /// Crash-safe checkpointing: when non-null, every completed shard task
    /// is journaled and tasks found in the journal (from a previous run of
    /// the same configuration) are replayed instead of re-searched. One
    /// journal serves one search; must outlive the synthesis call.
    CheckpointJournal* checkpoint = nullptr;
};

/// A shard job that kept faulting past the retry budget: its identity and
/// the error that quarantined it, surfaced in SuiteResult::failures so a
/// partial suite is diagnosable rather than silently short.
struct ShardFailure {
    std::string shard;   ///< human-readable task identity (search + prefix)
    std::string error;   ///< what() of the final attempt's exception
    int attempts = 0;    ///< total attempts made (initial + retries)
};

/// One synthesized ELT.
struct SynthesizedTest {
    elt::Execution witness;             ///< a forbidden execution of the test
    std::string canonical_key;
    int size = 0;                       ///< event count (instruction bound)
    std::vector<std::string> violated;  ///< axioms the witness violates
};

/// A per-axiom suite.
///
/// One search can produce several suites (synthesize_all_parallel). The
/// per-axiom fields are exact for the axiom: programs_considered counts
/// the candidates the axiom was open on (those meeting its static
/// requirements), executions_considered the executions walked while it
/// was open, and both equal a one-axiom search's. The fields marked
/// run-level are measured once per search and sit on the search's FIRST
/// suite, zero (workers aside) on the others, so sums over the suites
/// stay exact.
struct SuiteResult {
    std::string axiom;
    std::vector<SynthesizedTest> tests;  ///< sorted by canonical key
    std::uint64_t programs_considered = 0;
    std::uint64_t executions_considered = 0;
    /// Accepted tests dropped at the merge because an isomorph earlier in
    /// the enumeration order was also accepted (same canonical key).
    std::uint64_t duplicates_rejected = 0;
    /// Wall time of the search that produced the suite (shared by every
    /// suite of one search), measured from when its first shard job ran
    /// (the moment its time budget armed); the wait before that is
    /// reported as scheduler.queue_wait_seconds.
    double seconds = 0.0;
    /// False when the suite is partial: the time budget expired, the run
    /// was cancelled, or shards were quarantined after repeated faults.
    /// Shared by every suite of one search.
    bool complete = false;
    bool cancelled = false;  ///< the cancel token fired during the search
    /// Run-level: shards quarantined after exhausting the retry budget
    /// (empty on a healthy run). Deterministic faults land here; transient
    /// ones are absorbed by retries and only show up in
    /// scheduler.shard_retries.
    std::vector<ShardFailure> failures;
    /// Run-level runtime counters for the search (`workers` is filled on
    /// every suite).
    sched::SchedulerStats scheduler;
    /// SAT-solver counters summed across every per-worker solver the suite
    /// used (lifetime_stats, so per-program reset() cycles are included).
    /// All-zero under the enumerative backend; solve_nanos is populated
    /// only when SynthesisOptions::collect_metrics enabled solver timing.
    sat::SolverStats solver;
    /// Run-level phase-attributed time/count breakdown (per-phase latency
    /// histograms included); all-zero unless
    /// SynthesisOptions::collect_metrics was set.
    obs::PhaseTotals phases;
    /// Run-level phase/site-attributed allocation breakdown; all-zero
    /// unless SynthesisOptions::track_allocs was set.
    obs::AllocTotals allocs;
};

/// Synthesizes the suite of unique, minimal, interesting ELT programs whose
/// executions can violate \p axiom_name, over all sizes in
/// [min_bound, bound]: a search of the axiom's pruned candidate stream
/// (engine_skeleton_options). Builds a private options.jobs-worker pool for
/// the run; the resulting suite is independent of the worker count (see
/// the determinism contract above). Thread-safe for
/// concurrent calls with distinct models.
SuiteResult synthesize_suite(const mtm::Model& model,
                             const std::string& axiom_name,
                             const SynthesisOptions& options);

/// Runs synthesize_suite for every axiom of the model, one after the other,
/// and returns the suites in axiom order (the paper's five per-axiom
/// suites for x86t_elt): the per-axiom reference the fused search is
/// tested against.
std::vector<SuiteResult> synthesize_all(const mtm::Model& model,
                                        const SynthesisOptions& options);

/// As synthesize_all, as ONE fused search on one pool of options.jobs
/// workers: one candidate stream (the union of the axioms' pruned
/// streams), one merge, and on the enumerative backend one execution walk
/// per candidate for all the axioms open on it. The suites
/// — tests, witnesses, programs_considered and executions_considered —
/// are identical to synthesize_all's, asserted by the test suite
/// (docs/scheduler.md gives the argument), and arrive in axiom order.
/// options.time_budget_seconds bounds the whole search.
std::vector<SuiteResult> synthesize_all_parallel(
    const mtm::Model& model, const SynthesisOptions& options);

/// Counts the unique ELT programs across suites (tests violating several
/// axioms appear in several suites but count once).
int unique_test_count(const std::vector<SuiteResult>& suites);

/// The skeleton options of \p axiom_name's candidate stream at event
/// bound \p size — synthesis knobs plus the static per-axiom pruning
/// flags. A fused search walks the union of its axioms' streams and opens
/// each axiom on the candidates meeting these flags (meets_requirements),
/// so replaying this stream reproduces the axiom's suite. Exposed so tools
/// and benches replaying parts of the search enumerate exactly the
/// candidate space the engine does.
SkeletonOptions engine_skeleton_options(const mtm::Model& model,
                                        const std::string& axiom_name,
                                        const SynthesisOptions& options,
                                        int size);

/// Ticket-space constants of the deterministic merge, exported (like
/// engine_skeleton_options) so replays of the engine's scheduling
/// decisions stay faithful rather than hand-copied.
///
/// Ticket stride between shards: ticket = shard index * stride + position
/// in the shard, so ticket order across all shards equals the sequential
/// enumeration order.
inline constexpr std::uint64_t kTicketStride = std::uint64_t{1} << 40;

/// The skeleton-prefix depth each event bound is partitioned at: one
/// decision up to 5 events, one more per event after that, at most 4. A
/// constant rule, so the shard jobs (and the checkpoint journal's task
/// ids) are a pure function of the options. Small bounds hold few
/// programs per shard, so a deeper cut there only multiplies per-job
/// framing; large bounds need the deeper cut so that no single shard
/// holds a large share of the work.
constexpr int
shard_depth_for(int size)
{
    return std::clamp(size - 4, 1, 4);
}

}  // namespace transform::synth
