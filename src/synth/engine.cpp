#include "synth/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "elt/derive.h"
#include "mtm/encoding.h"
#include "mtm/incremental.h"
#include "obs/alloc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "synth/canonical.h"
#include "synth/checkpoint.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "synth/skeleton.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace transform::synth {

using elt::Execution;
using elt::Program;

namespace {

/// Static per-axiom pruning flags: structural features a violation of the
/// axiom necessarily requires. Sound (never prunes a violating program) and
/// a large win for the rarer axioms.
void
set_axiom_requirements(const std::string& axiom, SkeletonOptions* skeleton)
{
    if (axiom == "invlpg") {
        // fr_va and remap edges both start/end at a PTE write.
        skeleton->require_wpte = true;
    } else if (axiom == "rmw_atomicity") {
        skeleton->require_rmw = true;
    } else if (axiom == "tlb_causality") {
        // ptw_source needs a walk with a second user: a TLB hit.
        skeleton->require_shared_walk = true;
    }
}

/// One axiom of a search: its suite name, its bit in the model's violated
/// masks, and the features a candidate needs before the axiom is open on
/// it (the require_* flags of set_axiom_requirements).
struct RunAxiom {
    std::string name;
    mtm::AxiomMask bit = 0;
    SkeletonOptions requirements;
};

/// SAT backend: one axiom's live solver session on one worker, plus the
/// counters of the replays it handed to the worker's replay solver.
struct SatSession {
    mtm::IncrementalEncoding incremental;
    sat::SolverStats replay_stats;
};

/// A witness found for one axiom of a candidate: the axiom's position in
/// the run, the execution, and every axiom that execution violates.
struct Witness {
    std::size_t axiom = 0;
    Execution execution;
    mtm::AxiomMask violated = 0;
};

/// Per-worker reusable buffers for the candidate-evaluation hot path:
/// derivation output + scratch (whose program-level cache serves every
/// execution of the candidate), the judge's buffers (its relaxed-program
/// cache and last blocking relaxation), and the canonicalizer's tables.
/// One per (run, worker); a worker runs one job at a time, so jobs index
/// into the run's vector with their worker id.
struct WorkerScratch {
    elt::DerivedRelations derived;
    elt::DeriveScratch derive;
    JudgeScratch judge;
    CanonicalScratch canonical;
    /// SAT backend: one session per axiom of the run, configured by
    /// launch_search (empty under the enumerative backend), and the
    /// factory + solver that replay accepted candidates. A replay starts
    /// from a reset solver, so one replay solver serves every axiom.
    std::vector<SatSession> sat;
    mtm::EncodingScratch replay;
    /// The current candidate's accepted witnesses (find_witnesses).
    std::vector<Witness> found;
    /// Fault injection (docs/robustness.md): the run's plan plus the
    /// probe identity of the candidate under evaluation — set per job and
    /// per candidate by search_shard, so firing is a pure function of
    /// (seed, site, candidate ticket, attempt), never of scheduling. Null
    /// plan (the default) costs one pointer check per probe.
    const util::FaultPlan* fault_plan = nullptr;
    std::uint64_t fault_key = 0;
    int fault_attempt = 0;
};

/// Per-axiom counters of a search, or of one of its tasks.
using AxiomTally = CheckpointJournal::AxiomCounts;

/// One unit of search: a shard of the run's static partition and the
/// first ticket of its candidates (shard index * kTicketStride; a
/// candidate's ticket is that plus its position in the shard).
struct ShardTask {
    SkeletonShard shard;
    std::uint64_t ticket_base = 0;
    /// Fault containment: which attempt at this task this is (0 = first).
    /// Retries bump it — it bounds the retry budget and keys the
    /// fault-injection probes, so a plan with attempts=1 faults the first
    /// attempt and lets the retry through.
    int attempt = 0;
};

/// Names a search in traces and quarantine records: its axiom when it has
/// one, "all axioms" otherwise.
std::string
search_label(const std::vector<std::string>& axiom_names)
{
    return axiom_names.size() == 1 ? axiom_names.front() : "all axioms";
}

/// The RunAxioms of \p axiom_names, in that order.
std::vector<RunAxiom>
run_axioms(const mtm::Model& model,
           const std::vector<std::string>& axiom_names,
           const SynthesisOptions& options)
{
    std::vector<RunAxiom> axioms;
    for (const std::string& name : axiom_names) {
        TF_ASSERT(model.axiom(name) != nullptr);
        axioms.push_back({name, mtm::AxiomMask{1} << model.axiom_index(name),
                          engine_skeleton_options(model, name, options, 0)});
    }
    return axioms;
}

/// All in-flight state of one fused search: every axiom of the run walks
/// one candidate stream, so one job group and one set of worker scratch
/// serve them all (docs/scheduler.md, "Fused all-axiom search"). The job
/// closures reference it, so it outlives the group (launch_search ...
/// pool.wait ... finish_search).
struct SearchRun {
    SearchRun(const mtm::Model& source, std::vector<std::string> axiom_names,
              const SynthesisOptions& opts)
        : model(source), names(std::move(axiom_names)),
          label(search_label(names)), options(opts),
          axioms(run_axioms(model, names, options)),
          deadline(opts.time_budget_seconds), tallies(axioms.size())
    {
    }

    /// The time budget starts ticking when the run's FIRST shard job
    /// actually runs, not at submission (the pool may still be spinning
    /// up). SuiteResult::seconds follows the same clock: the watch restarts
    /// here and the wait before it is reported separately as
    /// SchedulerStats::queue_wait_seconds. Safe despite running on a
    /// worker thread: call_once orders it against every other job, and
    /// finish_search reads the watch only after pool.wait() on the group.
    const util::Deadline&
    armed_deadline()
    {
        std::call_once(deadline_armed, [this] {
            queue_wait_seconds.store(watch.elapsed_seconds(),
                                     std::memory_order_relaxed);
            watch.restart();
            deadline = util::Deadline(options.time_budget_seconds);
        });
        return deadline;
    }

    /// The axioms open on \p program: those whose requirements it meets.
    /// The stream already carries the requirements every axiom shares, so
    /// this only re-checks the per-axiom ones (meets_requirements returns
    /// at once for an axiom with none).
    mtm::AxiomMask
    open_axioms(const Program& program) const
    {
        mtm::AxiomMask open = 0;
        for (const RunAxiom& axiom : axioms) {
            if (meets_requirements(program, axiom.requirements)) {
                open |= axiom.bit;
            }
        }
        return open;
    }

    /// One private copy per run; every shard job shares it by const
    /// reference — a compiled Model is immutable (evaluation state lives
    /// in each worker's scratch), so concurrent evaluation is safe.
    const mtm::Model model;
    /// The run's axioms' names; suites come out in this order.
    const std::vector<std::string> names;
    const std::string label;  ///< search_label(names)
    const SynthesisOptions options;
    const std::vector<RunAxiom> axioms;  ///< names' RunAxioms
    /// Per-worker evaluation scratch, indexed by the pool worker id a job
    /// runs on (sized workers() at launch; a worker runs one job at a time).
    std::vector<WorkerScratch> worker_scratch;
    /// Phase-attributed counters (options.collect_metrics); null when
    /// metrics are off — the instrumentation's disabled fast path.
    std::unique_ptr<obs::MetricsRegistry> metrics;
    util::Stopwatch watch;
    std::once_flag deadline_armed;
    util::Deadline deadline;  ///< access via armed_deadline() from jobs
    sched::WorkStealingPool::GroupHandle group;

    std::mutex mu;  ///< guards tallies, merged and failures
    std::vector<AxiomTally> tallies;  ///< per run axiom
    /// Accepted tests of every axiom, each with its axiom and merge ticket.
    std::vector<CheckpointJournal::JournaledTest> merged;
    std::vector<ShardFailure> failures;  ///< quarantined shards

    std::atomic<double> queue_wait_seconds{0.0};
    std::atomic<double> search_seconds{0.0};
    std::atomic<bool> timed_out{false};
    std::atomic<bool> cancelled{false};
    std::atomic<std::uint64_t> shard_retries{0};
    std::atomic<std::uint64_t> shards_quarantined{0};
    std::atomic<std::uint64_t> ckpt_saved{0};
    std::atomic<std::uint64_t> ckpt_replayed{0};
    /// The run's checkpoint journal (options.checkpoint; null = off).
    CheckpointJournal* journal = nullptr;
    /// Phase/site-attributed allocation cells (options.track_allocs);
    /// null when tracking is off — shard jobs then never bind a tracker.
    std::unique_ptr<obs::AllocTracker> allocs;

    /// Progress-heartbeat counters (options.progress): jobs submitted
    /// (the partition's shards, then retries) and drained, candidates
    /// visited, and pre-merge accepted witnesses.
    std::atomic<std::uint64_t> jobs_submitted{0};
    std::atomic<std::uint64_t> jobs_done{0};
    std::atomic<std::uint64_t> candidates{0};
    std::atomic<std::uint64_t> tests_found{0};

    /// Every shard job calls this on completion, so search_seconds ends up
    /// holding arm-to-last-job wall time.
    void
    note_job_finished()
    {
        const double elapsed = watch.elapsed_seconds();
        double prev = search_seconds.load(std::memory_order_relaxed);
        while (prev < elapsed &&
               !search_seconds.compare_exchange_weak(
                   prev, elapsed, std::memory_order_relaxed)) {
        }
    }

    /// Adds one finished pass's per-axiom counters and tests to the run.
    void
    absorb(const std::vector<AxiomTally>& pass,
           std::vector<CheckpointJournal::JournaledTest> tests)
    {
        if (!tests.empty()) {
            tests_found.fetch_add(tests.size(), std::memory_order_relaxed);
        }
        const obs::ScopedAllocSite site(obs::AllocSite::kSiteSuiteGrowth);
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t a = 0; a < tallies.size(); ++a) {
            tallies[a].programs += pass[a].programs;
            tallies[a].executions += pass[a].executions;
        }
        for (auto& test : tests) {
            merged.push_back(std::move(test));
        }
    }

    /// Builds the job for a ShardTask; a retry resubmits through it, so
    /// it lives here rather than on the launch_search stack.
    std::function<sched::WorkStealingPool::Job(ShardTask)> make_job;
};

/// Searches \p program's execution space once for every axiom in \p open:
/// the witness of an axiom is the first execution, in the backend's
/// order, that violates it and is minimal (any one witness suffices:
/// minimality and the canonical key are program-level once a forbidden
/// witness exists). Accepted witnesses land in scratch->found;
/// \p executions counts, per run axiom, the executions walked while the
/// axiom was open.
///
/// The enumerative backend walks the executions once: it calls
/// violated_mask once per execution, runs the judge's relaxation sweep
/// only when the mask hits a still-open axiom (minimality does not depend
/// on the axiom), records a minimal execution as the witness of every
/// open axiom it violates, and stops when no axiom is left open. The SAT backend searches each open
/// axiom with its own session, as a one-axiom search would.
void
find_witnesses(SearchRun* run, const Program& program, mtm::AxiomMask open,
               const util::Deadline& deadline, WorkerScratch* scratch,
               int worker, std::vector<AxiomTally>* executions,
               bool* timed_out, bool* cancelled)
{
    scratch->found.clear();
    if (!contains_write(program)) {
        return;  // never interesting: skip the whole execution space
    }
    const mtm::Model& model = run->model;
    const SynthesisOptions& options = run->options;
    obs::MetricsRegistry* metrics = run->metrics.get();
    // The executions one pass visits, the axioms it still looks for, and
    // the verdict of the last execution evaluated.
    std::uint64_t walked = 0;
    mtm::AxiomMask wanted = open;
    mtm::AxiomMask violated = 0;
    // Shared per-execution step: derive, verdict, and the judge when the
    // verdict hits a wanted axiom. Returns the wanted axioms this
    // execution is a minimal violation of (0 = keep looking).
    auto evaluate = [&](const Execution& execution) -> mtm::AxiomMask {
        ++walked;
        if (deadline.expired()) {
            *timed_out = true;
            return 0;
        }
        if (options.cancel.requested()) {
            *cancelled = true;
            return 0;
        }
        if (scratch->fault_plan != nullptr) {
            scratch->fault_plan->maybe_fire(util::FaultSite::kDerive,
                                            scratch->fault_key,
                                            scratch->fault_attempt);
        }
        {
            const obs::ScopedPhase phase(metrics, worker,
                                         obs::Phase::kDerive);
            elt::derive_into(execution, model.derive_options(),
                             &scratch->derived, &scratch->derive);
            if (!scratch->derived.well_formed) {
                return 0;
            }
            violated = model.violated_mask(program, scratch->derived,
                                           &scratch->derive.cycle);
        }
        const mtm::AxiomMask hit = violated & wanted;
        if (hit == 0) {
            return 0;
        }
        if (options.require_minimal) {
            if (scratch->fault_plan != nullptr) {
                scratch->fault_plan->maybe_fire(util::FaultSite::kJudge,
                                                scratch->fault_key,
                                                scratch->fault_attempt);
            }
            // The execution is derived and well formed, violates a wanted
            // axiom, and its program contains a write (checked on entry):
            // only the relaxation sweep is left. It attributes its own
            // phases (kJudge for verdicts, kRelax for relaxation
            // rebuilds) via scratch->judge.metrics, set per job in
            // search_shard.
            if (!is_minimal(model, execution, &scratch->judge)) {
                return 0;
            }
        }
        return hit;
    };
    const auto stopped = [&] { return *timed_out || *cancelled; };
    // Closes the axioms in \p mask: \p witness (null = none found) is
    // their witness, and the executions walked so far count for each.
    const auto close = [&](mtm::AxiomMask mask, const Execution* witness) {
        for (std::size_t a = 0; a < run->axioms.size(); ++a) {
            if ((mask & run->axioms[a].bit) == 0) {
                continue;
            }
            (*executions)[a].executions += walked;
            if (witness != nullptr) {
                scratch->found.push_back({a, *witness, violated});
            }
        }
        wanted &= ~mask;
    };

    if (options.backend == Backend::kEnumerative) {
        for_each_execution(program, model.vm_aware(),
                           [&](const Execution& execution) {
            const mtm::AxiomMask hit = evaluate(execution);
            if (hit != 0) {
                close(hit, &execution);
            }
            return wanted != 0 && !stopped();
        });
        close(wanted, nullptr);
        return;
    }

    // Streaming AllSAT, one axiom at a time: the visitor returning false
    // stops the solver at the first accepted witness instead of
    // materializing the whole violating space. Each axiom first PROBES
    // through the worker's live assumption-based session for it (no
    // per-candidate encoding; candidates of one structure share a solver
    // and its learned clauses). A probe acceptance only proves existence —
    // the live solver's model order depends on the candidates before it —
    // so accepted candidates (the rare case) REPLAY through a one-program
    // encoding on a clean solver, whose witness and execution count depend
    // on the program alone. Rejected candidates enumerate the same
    // violating set either way, so the probe's execution count stands.
    for (std::size_t a = 0; a < run->axioms.size() && !stopped(); ++a) {
        const RunAxiom& axiom = run->axioms[a];
        if ((open & axiom.bit) == 0) {
            continue;
        }
        SatSession& session = scratch->sat[a];
        auto sat_search = [&]() {
            // Allocations of the encode/solve machinery land in kSatEncode
            // (the time split between encode and solve comes from the
            // solver's gated clock; the alloc split is not worth a second
            // seam). evaluate()'s ScopedPhase sections re-tag their own
            // allocations.
            const obs::ScopedAllocPhase alloc_phase(obs::Phase::kSatEncode);
            if (scratch->fault_plan != nullptr) {
                scratch->fault_plan->maybe_fire(util::FaultSite::kSatSolve,
                                                scratch->fault_key,
                                                scratch->fault_attempt);
            }
            walked = 0;
            wanted = axiom.bit;
            bool accepted = false;
            session.incremental.enumerate(program,
                                          [&](const Execution& execution) {
                accepted = evaluate(execution) != 0;
                return !accepted && !stopped();
            });
            if (accepted && !stopped()) {
                // The replay recounts from scratch. It re-derives and
                // re-judges the executions the probe already visited:
                // derive/judge phase totals honestly include that
                // duplicated work.
                walked = 0;
                mtm::ProgramEncoding encoding(program, &model,
                                              &scratch->replay);
                encoding.enumerate(axiom.name,
                                   [&](const Execution& execution) {
                    if (evaluate(execution) != 0) {
                        close(axiom.bit, &execution);
                    }
                    return wanted != 0 && !stopped();
                });
                // The query reset the solver first: its live counters are
                // this replay's.
                session.replay_stats.merge(scratch->replay.solver.stats());
            }
            close(wanted, nullptr);
        };
        if (metrics == nullptr) {
            sat_search();
            continue;
        }
        // Same search, with phase attribution. kSatSolve comes from the
        // solvers' own gated clocks (set_timing) — the live session's
        // solvers plus the replay solver — and kSatEncode is the remaining
        // wall time of the probe+replay pair after subtracting solve time
        // and the derive/judge time evaluate() already claimed — so the
        // phases never double-count.
        auto solve_nanos = [&]() {
            return scratch->replay.solver.lifetime_stats().solve_nanos +
                   session.incremental.lifetime_stats().solve_nanos;
        };
        const auto inner_nanos = [&]() {
            return metrics->worker_phase_nanos(worker, obs::Phase::kDerive) +
                   metrics->worker_phase_nanos(worker, obs::Phase::kJudge) +
                   metrics->worker_phase_nanos(worker, obs::Phase::kRelax);
        };
        const std::uint64_t start = obs::now_nanos();
        const std::uint64_t inner_before = inner_nanos();
        const std::uint64_t solve_before = solve_nanos();
        sat_search();
        const std::uint64_t wall = obs::now_nanos() - start;
        const std::uint64_t solve = solve_nanos() - solve_before;
        const std::uint64_t inner = inner_nanos() - inner_before;
        metrics->add(worker, obs::Phase::kSatSolve, solve);
        metrics->add(worker, obs::Phase::kSatEncode,
                     wall > solve + inner ? wall - solve - inner : 0);
    }
}

/// Runs the actual search of one shard and splices its results into the
/// run. Candidates are numbered task.ticket_base + position; a shard never
/// comes near kTicketStride candidates (2^40), and reaching it fails
/// loudly rather than corrupting the deterministic merge. Returns false
/// when the deadline or a cancel stopped the pass before the shard was
/// exhausted; only a completed pass is journaled into \p record_out.
/// \p visited receives the number of candidates the pass visited.
bool
search_shard(SearchRun* run, const ShardTask& task, int worker,
             CheckpointJournal::ShardRecord* record_out,
             std::uint64_t* visited)
{
    WorkerScratch& scratch = run->worker_scratch[worker];
    obs::MetricsRegistry* metrics = run->metrics.get();
    scratch.judge.metrics = metrics;
    scratch.judge.worker = worker;
    scratch.fault_plan = run->options.fault_plan;
    scratch.fault_attempt = task.attempt;
    const SynthesisOptions& options = run->options;
    const util::Deadline& deadline = run->armed_deadline();
    std::vector<CheckpointJournal::JournaledTest> tests;
    std::vector<AxiomTally> tally(run->axioms.size());
    bool timed_out = false;
    bool cancelled = false;
    std::uint64_t next_ticket = task.ticket_base;
    // Stretches of the enumeration that reach no visitor — structures
    // that never link or never pass their VA constraints — poll the
    // deadline (and the cancel token) through the interrupt hook, so a
    // budget or a cancel is honoured even while nothing is emitted.
    const std::function<bool()> deadline_interrupt = [&] {
        if (deadline.expired()) {
            timed_out = true;
            return true;
        }
        if (options.cancel.requested()) {
            cancelled = true;
            return true;
        }
        return false;
    };
    for_each_skeleton(task.shard, [&](const Program& program) {
        if (deadline.expired()) {
            timed_out = true;
            return false;
        }
        if (options.cancel.requested()) {
            cancelled = true;
            return false;
        }
        const std::uint64_t ticket = next_ticket++;
        TF_ASSERT(ticket - task.ticket_base < kTicketStride);
        const mtm::AxiomMask open = run->open_axioms(program);
        if (open == 0) {
            return true;  // no axiom of the run needs this candidate
        }
        for (std::size_t a = 0; a < run->axioms.size(); ++a) {
            if ((open & run->axioms[a].bit) != 0) {
                ++tally[a].programs;
            }
        }
        scratch.fault_key = ticket;
        find_witnesses(run, program, open, deadline, &scratch, worker,
                       &tally, &timed_out, &cancelled);
        if (timed_out || cancelled) {
            return false;
        }
        if (!scratch.found.empty()) {
            // Isomorphs are all searched; finish_search keeps one test per
            // canonical key, so only accepted candidates need theirs.
            std::string key;
            {
                const obs::ScopedPhase phase(metrics, worker,
                                             obs::Phase::kCanonicalize);
                const obs::ScopedAllocSite site(
                    obs::AllocSite::kSiteCanonicalKey);
                key = canonical_key(program, &scratch.canonical);
            }
            const obs::ScopedAllocSite site(
                obs::AllocSite::kSiteSuiteGrowth);
            for (Witness& found : scratch.found) {
                SynthesizedTest test;
                test.witness = std::move(found.execution);
                test.canonical_key = key;
                test.size = program.num_events();
                test.violated = run->model.mask_names(found.violated);
                tests.push_back({found.axiom, std::move(test), ticket});
            }
        }
        return true;
    }, deadline_interrupt);
    *visited = next_ticket - task.ticket_base;
    run->candidates.fetch_add(*visited, std::memory_order_relaxed);
    if (timed_out) {
        run->timed_out.store(true, std::memory_order_relaxed);
    }
    if (cancelled) {
        run->cancelled.store(true, std::memory_order_relaxed);
    }
    const bool completed = !timed_out && !cancelled;
    if (record_out != nullptr && completed) {
        // An aborted pass is never journaled — the resumed run re-searches
        // it.
        record_out->counts = tally;
        record_out->tests = tests;
    }
    run->absorb(tally, std::move(tests));
    return completed;
}

/// Human-readable identity of a shard task for a quarantine record.
std::string
describe_task(const SearchRun& run, const ShardTask& task)
{
    std::ostringstream out;
    out << run.label << " events=" << task.shard.options.num_events
        << " prefix=[";
    for (std::size_t i = 0; i < task.shard.prefix.size(); ++i) {
        out << (i == 0 ? "" : ",") << task.shard.prefix[i];
    }
    out << "]";
    return out.str();
}

/// Configures \p scratch's SAT sessions for \p run, one per axiom; the
/// model pointer must be the run's own copy, which outlives every job. The
/// domain bounds cover every candidate the skeleton enumerator can
/// produce (VAs < max_vas; PAs < initial frames + fresh Wpte targets).
/// Also rebuilds a session's state on recovery from a shard fault.
void
configure_sessions(const SearchRun& run, WorkerScratch* scratch)
{
    const SynthesisOptions& options = run.options;
    for (std::size_t a = 0; a < scratch->sat.size(); ++a) {
        scratch->sat[a].incremental.configure(
            &run.model, run.axioms[a].name, options.max_vas,
            options.max_vas + options.max_fresh_pas);
    }
}

/// Contains a shard fault (docs/robustness.md, "Fault containment"): the
/// job's search escaped with an exception. Rebuilds the worker's possibly
/// poisoned solver state, then retries the identical task with the attempt
/// counter bumped — or quarantines it into the failures of the run once
/// the retry budget is spent. Safe to re-run the task: the throw left no
/// partial results (tests and counters flush only when a search pass
/// completes), so a retried shard's contribution is byte-identical to a
/// fault-free run's.
void
recover_and_reschedule(SearchRun* raw, sched::WorkStealingPool* pool_ptr,
                       const ShardTask& task, int worker, const char* what)
{
    const SynthesisOptions& options = raw->options;
    WorkerScratch& scratch = raw->worker_scratch[worker];
    // The replay solver may be mid-encoding and the incremental sessions
    // mid-enumeration; reset them so the worker's next job starts clean.
    // configure() keeps session configuration (timing, conflict budget,
    // interrupt, cache capacity) and rebuilds the solver state.
    scratch.replay.solver.reset();
    configure_sessions(*raw, &scratch);
    obs::TraceCollector* trace = options.trace;
    if (options.cancel.requested()) {
        raw->cancelled.store(true, std::memory_order_relaxed);
    } else if (raw->armed_deadline().expired()) {
        raw->timed_out.store(true, std::memory_order_relaxed);
    } else if (task.attempt < options.shard_retry_limit) {
        raw->shard_retries.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) {
            trace->record_instant(worker, "shard retry: " + raw->label,
                                  obs::now_nanos());
        }
        ShardTask retry = task;
        retry.attempt = task.attempt + 1;
        raw->jobs_submitted.fetch_add(1, std::memory_order_relaxed);
        pool_ptr->submit(raw->group, raw->make_job(std::move(retry)));
    } else {
        raw->shards_quarantined.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) {
            trace->record_instant(worker,
                                  "shard quarantine: " + raw->label,
                                  obs::now_nanos());
        }
        std::lock_guard<std::mutex> lock(raw->mu);
        raw->failures.push_back(
            {describe_task(*raw, task), what, task.attempt + 1});
    }
    raw->note_job_finished();
}

/// Replays a journaled shard task instead of re-searching it: counters and
/// tests (with their tickets) come from the record. Replayed and searched
/// tests meet in finish_search's merge like the tests of an uninterrupted
/// run, so the suite and every counter are byte-identical however many
/// tasks replay.
void
replay_shard_record(SearchRun* raw, const CheckpointJournal::ShardRecord& rec)
{
    raw->armed_deadline();
    raw->absorb(rec.counts, rec.tests);
    raw->ckpt_replayed.fetch_add(1, std::memory_order_relaxed);
    raw->note_job_finished();
}

/// The body of one shard job: replay it from the journal, or search it and
/// journal the completed pass. The make_job closures wrap this with the
/// observability shell (span + phase accounting), which reads \p
/// visited_out (the candidates searched; 0 for a replay) for a span arg.
void
execute_shard_task(SearchRun* raw, sched::WorkStealingPool* pool_ptr,
                   const ShardTask& task, int worker,
                   std::uint64_t* visited_out)
{
    const SynthesisOptions& options = raw->options;
    if (options.cancel.requested()) {
        // A cancelled run drains its remaining queue without searching —
        // and without arming the deadline or the search clock, so a search
        // cancelled before its first real job reports ~0 searched seconds
        // rather than its queue wait.
        raw->cancelled.store(true, std::memory_order_relaxed);
        return;
    }
    CheckpointJournal* journal = raw->journal;
    std::uint64_t task_id = 0;
    if (journal != nullptr) {
        task_id = checkpoint_task_id(raw->names, task.shard,
                                     task.ticket_base);
        // A record counting another number of axioms cannot be this
        // task's (the id hashes the run's axioms); search it instead.
        const CheckpointJournal::ShardRecord* rec = journal->find(task_id);
        if (rec != nullptr && rec->counts.size() == raw->axioms.size()) {
            // A replay costs no search, so it runs whatever the budget.
            replay_shard_record(raw, *rec);
            return;
        }
    }
    if (raw->armed_deadline().expired()) {
        // Once the budget ran out the queue drains at the cost of a clock
        // read per shard, not of a search start per shard.
        raw->timed_out.store(true, std::memory_order_relaxed);
        raw->note_job_finished();
        return;
    }
    // Fault containment boundary: everything a shard search can throw —
    // injected faults included — is caught here and turned into a retry or
    // a quarantine record instead of unwinding into the pool (whose
    // backstop would only log it) or std::terminate.
    CheckpointJournal::ShardRecord record;
    bool completed = false;
    try {
        if (options.fault_plan != nullptr) {
            options.fault_plan->maybe_fire(util::FaultSite::kShardBoundary,
                                           task.ticket_base, task.attempt);
        }
        completed = search_shard(raw, task, worker,
                                 journal != nullptr ? &record : nullptr,
                                 visited_out);
    } catch (const std::exception& e) {
        recover_and_reschedule(raw, pool_ptr, task, worker, e.what());
        return;
    }
    if (journal != nullptr && completed) {
        record.task_id = task_id;
        journal->append(record);
        raw->ckpt_saved.fetch_add(1, std::memory_order_relaxed);
    }
    raw->note_job_finished();
}

/// The skeleton options of a run's candidate stream at event bound \p
/// size: a require_* prune holds only when every axiom of the run needs
/// it, so the stream is the union of the axioms' pruned streams.
SkeletonOptions
run_skeleton_options(const SearchRun& run, int size)
{
    SkeletonOptions skeleton = engine_skeleton_options(
        run.model, run.axioms.front().name, run.options, size);
    for (const RunAxiom& axiom : run.axioms) {
        skeleton.require_wpte =
            skeleton.require_wpte && axiom.requirements.require_wpte;
        skeleton.require_rmw =
            skeleton.require_rmw && axiom.requirements.require_rmw;
        skeleton.require_shared_walk =
            skeleton.require_shared_walk &&
            axiom.requirements.require_shared_walk;
    }
    return skeleton;
}

/// Builds a SearchRun for \p axiom_names (model order) and submits its
/// initial shard tasks to \p pool as one job group. The caller must
/// pool.wait(run->group) and then finish_search().
std::unique_ptr<SearchRun>
launch_search(sched::WorkStealingPool& pool, const mtm::Model& model,
              const std::vector<std::string>& axiom_names,
              const SynthesisOptions& options)
{
    auto run = std::make_unique<SearchRun>(model, axiom_names, options);
    run->worker_scratch.resize(pool.workers());
    if (options.backend == Backend::kSat) {
        // One live incremental session per worker per axiom for the whole
        // run.
        for (WorkerScratch& scratch : run->worker_scratch) {
            scratch.sat.resize(run->axioms.size());
            configure_sessions(*run, &scratch);
            for (SatSession& session : scratch.sat) {
                session.incremental.set_base_cache_capacity(
                    options.sat_base_cache_capacity);
            }
        }
    }
    if (options.collect_metrics) {
        run->metrics = std::make_unique<obs::MetricsRegistry>(pool.workers());
        // Solver wall-timing is configuration, not state: enabled once per
        // worker solver, before any job runs, surviving per-program resets.
        // The solve observer rides the same gated clock reads: every
        // individual solve call lands one latency sample in the worker's
        // kSatSolve histogram (the find_witnesses subtract path keeps
        // attributing the *totals*).
        obs::MetricsRegistry* metrics = run->metrics.get();
        for (int w = 0; w < pool.workers(); ++w) {
            const auto observe = [metrics, w](std::uint64_t nanos) {
                metrics->record_latency(w, obs::Phase::kSatSolve, nanos);
            };
            WorkerScratch& scratch = run->worker_scratch[w];
            scratch.replay.solver.set_timing(true);
            scratch.replay.solver.set_solve_observer(observe);
            for (SatSession& session : scratch.sat) {
                session.incremental.set_timing(true);
                session.incremental.set_solve_observer(observe);
            }
        }
    }
    if (options.track_allocs) {
        run->allocs = std::make_unique<obs::AllocTracker>(pool.workers());
    }
    run->journal = options.checkpoint;
    run->group = pool.make_group();
    SearchRun* raw = run.get();
    sched::WorkStealingPool* pool_ptr = &pool;
    // Per-solve conflict cap on every per-worker solver (replay solvers
    // and incremental sessions). Exhaustion raises BudgetExhausted out of
    // the search, which the fault-containment boundary treats like any
    // other shard fault.
    // Solver-level interrupt: a long single solve polls cancellation and
    // the deadline every ~1k conflicts, bounding cancel latency even
    // mid-solve. Reading raw->deadline here is safe — every job arms it
    // (call_once) before its first solve runs.
    const bool interruptible =
        options.cancel.valid() || options.time_budget_seconds > 0;
    const auto poll = [raw] {
        return raw->options.cancel.requested() || raw->deadline.expired();
    };
    for (WorkerScratch& scratch : run->worker_scratch) {
        if (options.sat_conflict_budget > 0) {
            scratch.replay.solver.set_conflict_budget(
                options.sat_conflict_budget);
        }
        if (interruptible) {
            scratch.replay.solver.set_interrupt(poll);
        }
        for (SatSession& session : scratch.sat) {
            if (options.sat_conflict_budget > 0) {
                session.incremental.set_conflict_budget(
                    options.sat_conflict_budget);
            }
            if (interruptible) {
                session.incremental.set_interrupt(poll);
            }
        }
    }

    run->make_job = [raw, pool_ptr](ShardTask task)
        -> sched::WorkStealingPool::Job {
        return [raw, pool_ptr, task = std::move(task)](int worker) {
            obs::MetricsRegistry* metrics = raw->metrics.get();
            obs::TraceCollector* trace = raw->options.trace;
            obs::AllocTracker* allocs = raw->allocs.get();
            if (allocs != nullptr) {
                // Bound for the whole job: allocations follow the active
                // phase (ScopedPhase keeps it in sync), unclaimed ones
                // land in kSkeletonEnum like unclaimed wall time.
                obs::bind_alloc_tracker(allocs, worker);
            }
            if (metrics == nullptr && trace == nullptr) {
                // Disabled fast path: three null checks, no clock reads.
                std::uint64_t visited = 0;
                execute_shard_task(raw, pool_ptr, task, worker, &visited);
            } else {
                const std::uint64_t start = obs::now_nanos();
                const std::uint64_t claimed_before =
                    metrics == nullptr ? 0 : metrics->worker_nanos(worker);
                std::uint64_t visited = 0;
                execute_shard_task(raw, pool_ptr, task, worker, &visited);
                const std::uint64_t end = obs::now_nanos();
                if (metrics != nullptr) {
                    // Whatever wall time no inner phase claimed is the
                    // candidate generator itself — skeleton enumeration
                    // plus shard framing. This closes the attribution:
                    // per-phase seconds sum to shard-job wall time. The
                    // whole-job wall also lands one kSkeletonEnum latency
                    // sample: the per-shard-job duration distribution.
                    const std::uint64_t claimed =
                        metrics->worker_nanos(worker) - claimed_before;
                    const std::uint64_t wall = end - start;
                    metrics->add(worker, obs::Phase::kSkeletonEnum,
                                 wall > claimed ? wall - claimed : 0);
                    metrics->record_latency(
                        worker, obs::Phase::kSkeletonEnum, wall);
                }
                if (trace != nullptr) {
                    trace->record_complete(
                        worker, "shard " + raw->label, start, end,
                        {{"events",
                          static_cast<std::uint64_t>(
                              task.shard.options.num_events)},
                         {"visited", visited}});
                }
            }
            if (allocs != nullptr) {
                obs::bind_alloc_tracker(nullptr, 0);
            }
            raw->jobs_done.fetch_add(1, std::memory_order_relaxed);
        };
    };

    // One static partition of the search space by (event bound, skeleton
    // prefix), at shard_depth_for(bound) decisions. Tickets number the
    // run's one candidate stream: shard index * kTicketStride + position,
    // shards in enumeration order (bounds ascending). Jobs are submitted
    // largest bound first, each bound's shards in partition order: the
    // largest bound holds most of the work, so its expensive shards start
    // early and the smaller bounds' cheap shards fill the search's tail.
    std::vector<std::vector<SkeletonShard>> partitions;  // bounds ascending
    std::size_t shards = 0;
    for (int size = options.min_bound; size <= options.bound; ++size) {
        partitions.push_back(partition_skeletons_at_depth(
            run_skeleton_options(*run, size), shard_depth_for(size)));
        shards += partitions.back().size();
    }
    std::vector<sched::WorkStealingPool::Job> jobs;
    jobs.reserve(shards);
    for (auto bound = partitions.rbegin(); bound != partitions.rend();
         ++bound) {
        shards -= bound->size();  // the index of this bound's first shard
        for (std::size_t i = 0; i < bound->size(); ++i) {
            jobs.push_back(run->make_job(
                {std::move((*bound)[i]), kTicketStride * (shards + i)}));
        }
    }
    run->jobs_submitted.fetch_add(jobs.size(), std::memory_order_relaxed);
    pool.submit(run->group, std::move(jobs));
    return run;
}

/// Merges a completed SearchRun (its group must have been waited) into one
/// SuiteResult per axiom, in run order, keeping one test per (axiom,
/// canonical key): the one with the smallest ticket, i.e. the isomorph
/// earliest in the sequential enumeration order; the others count as
/// duplicates_rejected. Isomorphic candidates meet the same axiom
/// requirements and receive the same verdicts, so the smallest accepted
/// ticket of a class is the class's smallest ticket, a pure function of
/// the options (docs/scheduler.md). Counters of the whole run — scheduler,
/// phases, allocations, quarantined shards — are measured once and land on
/// the first suite (zeros on the others), so sums over the suites stay
/// exact.
std::vector<SuiteResult>
finish_search(sched::WorkStealingPool& pool, SearchRun& run)
{
    std::vector<SuiteResult> results(run.axioms.size());
    {
        // One lane-0 sample: every worker quiesced when the group was
        // waited, before finish_search ran.
        const obs::ScopedPhase phase(run.metrics.get(), 0,
                                     obs::Phase::kDedup);
        std::sort(run.merged.begin(), run.merged.end(),
                  [](const auto& a, const auto& b) {
                      return std::tie(a.axiom, a.test.canonical_key,
                                      a.ticket) <
                             std::tie(b.axiom, b.test.canonical_key,
                                      b.ticket);
                  });
        for (CheckpointJournal::JournaledTest& entry : run.merged) {
            SuiteResult& result = results[entry.axiom];
            if (!result.tests.empty() &&
                result.tests.back().canonical_key ==
                    entry.test.canonical_key) {
                ++result.duplicates_rejected;
            } else {
                result.tests.push_back(std::move(entry.test));
            }
        }
    }
    const bool cancelled = run.cancelled.load();
    const bool complete =
        !run.timed_out.load() && !cancelled && run.failures.empty();
    for (std::size_t a = 0; a < results.size(); ++a) {
        SuiteResult& result = results[a];
        result.axiom = run.axioms[a].name;
        result.programs_considered = run.tallies[a].programs;
        result.executions_considered = run.tallies[a].executions;
        // Per-suite solver totals: each axiom has its own sessions and
        // replay counters, so summing them attributes exactly this
        // suite's solver work (session-level, so cached bases' solvers
        // and base build/reuse counts are included). All-zero under the
        // enumerative backend.
        for (const WorkerScratch& scratch : run.worker_scratch) {
            if (a < scratch.sat.size()) {
                result.solver.merge(scratch.sat[a].replay_stats);
                result.solver.merge(
                    scratch.sat[a].incremental.lifetime_stats());
            }
        }
        // Arm-to-last-job wall time of the search every suite shared (the
        // watch restarted when the deadline armed, and every job recorded
        // its completion). Zero for a run that ran no jobs — including one
        // cancelled before its first job searched.
        result.seconds = run.search_seconds.load();
        result.cancelled = cancelled;
        result.complete = complete;
    }
    SuiteResult& first = results.front();
    first.failures = std::move(run.failures);  // group drained: no races
    if (run.metrics != nullptr) {
        // Safe single-threaded write into lane 0: every worker quiesced
        // when the group was waited, before finish_search ran.
        run.metrics->add(0, obs::Phase::kQueueWait,
                         static_cast<std::uint64_t>(
                             run.queue_wait_seconds.load() * 1e9));
        first.phases = run.metrics->merged();
    }
    if (run.allocs != nullptr) {
        first.allocs = run.allocs->merged();
    }
    obs::TraceCollector* trace = run.options.trace;
    if (trace != nullptr && run.metrics != nullptr) {
        // Counter-track summary of the run (one "C" event per series,
        // main lane): per-phase latency percentiles (µs — Perfetto counter
        // values read better in micros) for phases with samples.
        const std::uint64_t ts = obs::now_nanos();
        for (int p = 0; p < obs::kPhaseCount; ++p) {
            const obs::LatencyHistogram& hist =
                first.phases.latency[static_cast<std::size_t>(p)];
            if (hist.total() == 0) {
                continue;
            }
            trace->record_counter(
                trace->main_lane(),
                std::string("latency_us ") + run.label + " " +
                    obs::phase_name(static_cast<obs::Phase>(p)),
                ts,
                {{"p50", hist.percentile_nanos(0.5) / 1000},
                 {"p90", hist.percentile_nanos(0.9) / 1000},
                 {"p99", hist.percentile_nanos(0.99) / 1000}});
        }
    }
    sched::SchedulerStats& scheduler = first.scheduler;
    scheduler = pool.group_stats(run.group);
    scheduler.queue_wait_seconds = run.queue_wait_seconds.load();
    scheduler.shard_retries = run.shard_retries.load();
    scheduler.shards_quarantined = run.shards_quarantined.load();
    scheduler.checkpoint_shards_saved = run.ckpt_saved.load();
    scheduler.checkpoint_shards_replayed = run.ckpt_replayed.load();
    for (std::size_t a = 1; a < results.size(); ++a) {
        results[a].scheduler.workers = scheduler.workers;
    }
    return results;
}

/// The sampling thread behind SynthesisOptions::progress: wakes every
/// progress_interval_seconds, snapshots the run(s)' relaxed counters via
/// the caller-supplied sampler, and invokes the callback. stop() fires one
/// final snapshot after joining, so the last report the caller sees
/// reflects the drained run. Inert (no thread) when options.progress is
/// unset — the default costs nothing.
class ProgressHeartbeat {
  public:
    ProgressHeartbeat(const SynthesisOptions& options,
                      std::function<SynthesisProgress()> sampler)
    {
        if (!options.progress) {
            return;
        }
        callback_ = options.progress;
        sampler_ = std::move(sampler);
        interval_ = std::max(options.progress_interval_seconds, 0.01);
        thread_ = std::thread([this] { loop(); });
    }

    ~ProgressHeartbeat() { stop(); }

    ProgressHeartbeat(const ProgressHeartbeat&) = delete;
    ProgressHeartbeat& operator=(const ProgressHeartbeat&) = delete;

    /// Joins the sampler and fires the final snapshot. Call after the
    /// job groups drained (pool.wait) so the snapshot is settled;
    /// idempotent.
    void
    stop()
    {
        if (!thread_.joinable()) {
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
        callback_(sampler_());
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!done_) {
            if (cv_.wait_for(lock,
                             std::chrono::duration<double>(interval_),
                             [this] { return done_; })) {
                break;  // stop() reports the final snapshot
            }
            lock.unlock();
            callback_(sampler_());
            lock.lock();
        }
    }

    std::function<void(const SynthesisProgress&)> callback_;
    std::function<SynthesisProgress()> sampler_;
    double interval_ = 0.0;
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_;
};

}  // namespace

namespace {

/// Runs one fused search over \p axiom_names on a private pool of
/// options.jobs workers and returns their suites in that order.
std::vector<SuiteResult>
run_search(const mtm::Model& model,
           const std::vector<std::string>& axiom_names,
           const SynthesisOptions& options)
{
    sched::WorkStealingPool pool(options.jobs);
    pool.set_trace(options.trace);
    obs::TraceCollector* trace = options.trace;
    const std::string span = "search " + search_label(axiom_names);
    const std::uint64_t search_id =
        trace == nullptr ? 0 : trace->next_flow_id();
    if (trace != nullptr) {
        trace->record_async_begin(trace->main_lane(), span, search_id,
                                  obs::now_nanos());
    }
    const std::unique_ptr<SearchRun> run =
        launch_search(pool, model, axiom_names, options);
    SearchRun* raw = run.get();
    const std::uint64_t t0 = obs::now_nanos();
    const int suites = static_cast<int>(axiom_names.size());
    std::atomic<int> suites_done{0};  // outlives the heartbeat below
    ProgressHeartbeat heartbeat(options, [raw, t0, suites, &suites_done] {
        SynthesisProgress p;
        p.shards_done = raw->jobs_done.load(std::memory_order_relaxed);
        p.shards_submitted =
            raw->jobs_submitted.load(std::memory_order_relaxed);
        p.candidates = raw->candidates.load(std::memory_order_relaxed);
        p.tests_found = raw->tests_found.load(std::memory_order_relaxed);
        p.checkpoint_shards_saved =
            raw->ckpt_saved.load(std::memory_order_relaxed);
        p.checkpoint_shards_replayed =
            raw->ckpt_replayed.load(std::memory_order_relaxed);
        p.suites_done = suites_done.load(std::memory_order_relaxed);
        p.suites_total = suites;
        p.seconds = static_cast<double>(obs::now_nanos() - t0) * 1e-9;
        return p;
    });
    pool.wait(run->group);
    suites_done.store(suites, std::memory_order_relaxed);
    heartbeat.stop();
    if (trace != nullptr) {
        trace->record_async_end(trace->main_lane(), span, search_id,
                                obs::now_nanos());
    }
    return finish_search(pool, *run);
}

}  // namespace

SuiteResult
synthesize_suite(const mtm::Model& model, const std::string& axiom_name,
                 const SynthesisOptions& options)
{
    return std::move(run_search(model, {axiom_name}, options).front());
}

std::vector<SuiteResult>
synthesize_all(const mtm::Model& model, const SynthesisOptions& options)
{
    std::vector<SuiteResult> out;
    for (const mtm::Axiom& axiom : model.axioms()) {
        out.push_back(synthesize_suite(model, axiom.name, options));
    }
    return out;
}

std::vector<SuiteResult>
synthesize_all_parallel(const mtm::Model& model,
                        const SynthesisOptions& options)
{
    std::vector<std::string> names;
    for (const mtm::Axiom& axiom : model.axioms()) {
        names.push_back(axiom.name);
    }
    if (names.empty()) {
        return {};
    }
    return run_search(model, names, options);
}

SkeletonOptions
engine_skeleton_options(const mtm::Model& model,
                        const std::string& axiom_name,
                        const SynthesisOptions& options, int size)
{
    SkeletonOptions skeleton;
    skeleton.num_events = size;
    skeleton.max_threads = options.max_threads;
    skeleton.max_vas = options.max_vas;
    skeleton.max_fresh_pas = options.max_fresh_pas;
    skeleton.vm_enabled = model.vm_aware();
    skeleton.allow_rmw = options.allow_rmw;
    skeleton.allow_fences = options.allow_fences;
    skeleton.allow_full_flush = options.allow_full_flush;
    skeleton.dirty_bit_as_rmw = options.dirty_bit_as_rmw;
    set_axiom_requirements(axiom_name, &skeleton);
    return skeleton;
}

int
unique_test_count(const std::vector<SuiteResult>& suites)
{
    std::set<std::string> keys;
    for (const SuiteResult& suite : suites) {
        for (const SynthesizedTest& test : suite.tests) {
            keys.insert(test.canonical_key);
        }
    }
    return static_cast<int>(keys.size());
}

}  // namespace transform::synth
