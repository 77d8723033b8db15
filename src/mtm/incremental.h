/// \file
/// The live use of the one SAT encoder (mtm/encoding_detail.h): a session
/// that solves a stream of candidate programs on one worker.
///
/// Siblings that differ only in VA assignment and Wpte target PA share a
/// skeleton *structure* (event kinds, threads, ghost parents, remap links
/// and rmw pairs), and the skeleton enumerator emits them contiguously.
/// The session builds one selector-based base encoding per structure,
/// compiles the axiom circuit into it once, and solves each candidate
/// purely under assumptions: one selector literal per placement slot, no
/// per-candidate clause emission. The other use, ProgramEncoding
/// (encoding.h), is the same circuit built for one program on a clean
/// solver.
///
/// AllSAT blocking clauses are the only per-candidate clauses and carry a
/// per-candidate activation literal. Advancing to the next candidate
/// assumes that literal false instead of resetting the solver, so learned
/// clauses survive across a whole structure.
///
/// Structures are not visited contiguously, though: the enumerator's last
/// stages (rmw marking, linking variants) ping-pong between a handful of
/// nearby structures. The session therefore keeps a small cache of built
/// bases keyed by the structure signature; each base owns its solver and
/// factory, and revisiting a cached signature swaps the frozen base back in
/// (bases_reused) instead of rebuilding (bases_built).
///
/// Contract (tests/sat_incremental_test.cpp): for every candidate, the
/// verdict and the set of enumerated executions match a ProgramEncoding
/// of that candidate exactly. Only the *order* models stream in may
/// differ, because the live solver's heuristic state carries over. Callers
/// that need a witness that depends on the program alone (the synthesis
/// engine) replay accepted candidates through ProgramEncoding.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "elt/execution.h"
#include "elt/program.h"
#include "mtm/model.h"
#include "sat/solver.h"

namespace transform::mtm {

/// One worker's incremental encoding session. Not shareable between
/// concurrent queries; the synthesis engine owns one per WorkerScratch.
class IncrementalEncoding {
  public:
    IncrementalEncoding();
    ~IncrementalEncoding();
    IncrementalEncoding(const IncrementalEncoding&) = delete;
    IncrementalEncoding& operator=(const IncrementalEncoding&) = delete;
    IncrementalEncoding(IncrementalEncoding&&) noexcept;
    IncrementalEncoding& operator=(IncrementalEncoding&&) noexcept;

    /// See ProgramEncoding::ExecutionVisitor — same contract, including
    /// buffer reuse between models.
    using ExecutionVisitor = std::function<bool(const elt::Execution&)>;

    /// (Re)configures the session for a run: the model and violated axiom
    /// every subsequent enumerate() queries (empty \p axiom_name = no
    /// axiom filter, enumerate all well-formed executions), and the
    /// symbolic-domain bounds every candidate must fit in — \p max_vas
    /// bounds every event's VA index, \p max_pas bounds num_pas() and
    /// every Wpte's map_pa. Drops any live base encoding.
    void configure(const Model* model, std::string axiom_name, int max_vas,
                   int max_pas);

    /// Streams every well-formed execution of \p program violating the
    /// configured axiom. Verdict and model count match
    /// ProgramEncoding::enumerate on the same program; model order may
    /// differ (see file comment). Returns false iff the visitor stopped
    /// the enumeration early. The program must share the configured
    /// model's VM-awareness and fit the configured domain bounds.
    bool enumerate(const elt::Program& program, const ExecutionVisitor& visit);

    /// Enables/disables solve-wall-clock accounting on every solver the
    /// session holds or later creates (cached bases included).
    void set_timing(bool enabled);

    /// Applies a persistent per-solve conflict budget (0 = unlimited) to
    /// every solver the session holds or later creates. A budget-exhausted
    /// candidate query makes enumerate() throw sat::BudgetExhausted — the
    /// engine treats that as a retryable shard fault (docs/robustness.md).
    void set_conflict_budget(std::int64_t budget);

    /// Installs a cooperative interrupt hook (see sat::Solver::set_interrupt)
    /// on every solver the session holds or later creates. An interrupted
    /// candidate query makes enumerate() return false, like a visitor veto;
    /// the cancelled caller discards the partial result.
    void set_interrupt(std::function<bool()> poll);

    /// Installs a per-solve latency observer (see
    /// sat::Solver::set_solve_observer) on every solver the session holds
    /// or later creates. Fires only under set_timing(true).
    void set_solve_observer(std::function<void(std::uint64_t)> observer);

    /// Merged lifetime counters across every solver the session ever
    /// owned (live base, cached bases, evicted bases' folded epochs),
    /// plus the session's bases_built/bases_reused. This is what the
    /// engine merges into SuiteResult::solver.
    sat::SolverStats lifetime_stats() const;

    /// Caps how many structure bases the session retains, the live one
    /// included. 0 and 1 both mean no caching (every structure change
    /// rebuilds — the pre-cache behavior, kept reachable for the
    /// differential tests). Takes effect at the next enumerate();
    /// shrinking evicts least-recently-used bases. Default 8.
    void set_base_cache_capacity(int capacity);

    /// Session-level reuse counters.
    struct SessionStats {
        std::uint64_t candidates = 0;   ///< enumerate() calls served
        std::uint64_t bases_built = 0;  ///< bases built from scratch
        std::uint64_t bases_reused = 0; ///< cache hits (frozen base swapped
                                        ///  back in, no solver reset)
    };
    const SessionStats& session_stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace transform::mtm
