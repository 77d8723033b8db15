/// \file
/// Derivation of the full Table-I relation set from a candidate execution,
/// plus well-formedness checking (the paper's "placement rules", section IV-A).
///
/// Derivation performs address-translation value resolution: each data
/// access's physical address is resolved through the TLB entry it reads
/// (rf_ptw), whose mapping value comes from what the page-table walk read
/// (a Wpte's new mapping, a Wdb's preserved mapping, or the initial
/// mapping). Dirty-bit writes preserve their parent's resolved mapping, so
/// resolution is a fixpoint over a dependency graph; cyclic value
/// dependencies render the execution ill-formed.
///
/// The synthesis hot path derives millions of candidate executions; to keep
/// that loop allocation-free in steady state, derivation comes in two
/// forms: the convenience `derive()` returning a fresh DerivedRelations,
/// and `derive_into()` which clears and reuses a caller-owned
/// DerivedRelations plus a DeriveScratch holding every internal buffer
/// (resolver state, coherence-class buckets, cycle-check adjacency).
///
/// Most of Table I (po, ppo, fence, rmw, ghost, remap) and the program's
/// structural validation depend on the program alone, and every caller
/// derives many executions of one program in a row. The DeriveScratch
/// therefore also keeps those program-level results (ProgramRelations),
/// keyed by the program's content: one entry per scratch, rebuilt only
/// when the program changes, and the output stays field-identical to a
/// fresh derive(). See docs/performance.md for the reuse contract.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "elt/execution.h"

namespace transform::elt {

/// Every relation of Table I (plus the auxiliary ones the x86t_elt axioms
/// need), derived from one candidate execution.
struct DerivedRelations {
    bool well_formed = false;
    std::vector<std::string> problems;  ///< non-empty iff !well_formed

    /// Per data access: resolved physical address (kNone if unresolvable).
    std::vector<PaId> resolved_pa;

    /// Per data access: the Wpte that provided its mapping, or kNone when
    /// the initial mapping was used.
    std::vector<EventId> provenance;

    // Baseline MCM relations.
    EdgeSet po;       ///< same-thread sequencing of non-ghost events
    EdgeSet po_loc;   ///< extended-order pairs at the same coherence class
    EdgeSet rf;       ///< write -> read, data (same PA) and PTE locations
    EdgeSet co;       ///< coherence order per class
    EdgeSet fr;       ///< read -> co-successors of its source
    EdgeSet rfe;      ///< rf restricted to cross-thread pairs
    EdgeSet ppo;      ///< TSO preserved program order (po minus W->R)
    EdgeSet fence;    ///< pairs ordered by an intervening MFENCE
    EdgeSet rmw;      ///< declared rmw dependencies

    // Transistency relations (Table I).
    EdgeSet ghost;       ///< user event -> invoked ghost
    EdgeSet rf_ptw;      ///< page-table walk -> users of its TLB entry
    EdgeSet rf_pa;       ///< Wpte -> accesses using its mapping
    EdgeSet co_pa;       ///< alias-creation order per PA
    EdgeSet fr_pa;       ///< access -> co_pa-successors of its mapping source
    EdgeSet fr_va;       ///< access -> later Wptes remapping its VA
    EdgeSet remap;       ///< Wpte -> the Invlpgs it invokes
    EdgeSet ptw_source;  ///< walk's parent -> other users of the walk

    /// Clears every field while keeping vector capacity — the reset step of
    /// the derive_into reuse contract.
    void clear();
};

/// Options controlling derivation (the MCM-only baseline of prior work runs
/// with VM modelling disabled; see synth::Options::enable_vm).
struct DeriveOptions {
    /// When false, data accesses need no translation (ptw_src is ignored and
    /// VAs are treated as distinct physical locations) — the classic MCM
    /// setting used for the x86-TSO baseline comparison.
    bool vm_enabled = true;
};

/// Reusable state for has_cycle: the adjacency structure (CSR form) and DFS
/// bookkeeping, cleared and rebuilt per call without reallocating once
/// capacity has grown to the working-set size.
struct CycleScratch {
    std::vector<int> offset;  ///< CSR row offsets (num_nodes + 1)
    std::vector<int> cursor;  ///< per-node fill cursor while building
    std::vector<int> edges;   ///< flat successor lists
    std::vector<int> color;   ///< DFS colors (0 white / 1 grey / 2 black)
    std::vector<std::pair<int, std::size_t>> stack;  ///< DFS stack
    /// po_mem, materialized for `.mtm` axioms that take it in an acyclic
    /// union (spec/eval.h), since no DerivedRelations field stores it.
    EdgeSet po_mem;
    /// Edge-set arena for the `.mtm` DSL axiom evaluator (spec/eval.h):
    /// slots are acquired stack-wise per expression node and released
    /// wholesale at the end of each axiom evaluation, so in steady state a
    /// DSL axiom evaluates without allocating — each slot's capacity
    /// persists across evaluations. Indexed (not referenced) because the
    /// vector may grow mid-evaluation.
    std::vector<EdgeSet> spec_pool;
    std::size_t spec_pool_live = 0;  ///< slots currently acquired
    /// Evaluator bookkeeping (opaque AST-node keys -> pinned slots /
    /// visit marks), pooled here for the same reuse reasons.
    std::vector<std::pair<const void*, std::size_t>> spec_memo;
};

/// The program-only part of derivation: what derive_into computes from the
/// Program alone. A DeriveScratch holds one block, keyed by the program's
/// content (events field by field, thread sequences, rmw pairs) and the
/// vm flag, and rebuilds it in place (capacity kept) only when the next
/// execution's program differs. Every caller walks many executions of one
/// program in a row, so the block is built once per program; no caller
/// invalidates anything. Internal to derive_into.
struct ProgramRelations {
    // The key: a flat copy of the program, so a rebuild reuses capacity.
    bool built = false;  ///< false until the first rebuild
    bool vm_enabled = false;
    std::vector<Event> events;
    std::vector<EventId> thread_events;  ///< thread sequences, concatenated
    std::vector<int> thread_ends;        ///< end offset of each thread
    EdgeSet rmw_pairs;  ///< also the rmw relation, as declared

    /// Program::validate(vm_enabled).
    std::vector<std::string> problems;
    // Program-only inputs of the placement rules.
    std::vector<char> useless_invlpg;    ///< per event: spurious rule fires
    std::vector<EventId> invalidations;  ///< Invlpg / InvlpgAll ids, ascending
    std::vector<EventId> wptes;          ///< Wpte ids, ascending
    EdgeSet wpte_pairs;  ///< ordered Wpte pairs sharing VA and target PA

    /// The relations below are built on the program's first well-formed
    /// execution (ill-formed executions never read them).
    bool relations_built = false;
    EdgeSet po;
    EdgeSet ppo;
    EdgeSet fence;
    EdgeSet ghost;
    EdgeSet remap;
    /// Ordered memory-event pairs (a precedes b) that may share a coherence
    /// class: both data accesses (po_loc keeps those resolving to one PA) or
    /// both PTE accesses of one VA (always kept).
    EdgeSet po_loc_candidates;
};

/// Reusable buffers for derive_into: everything derive allocates per call
/// when no scratch is supplied, plus the program-level block above. One
/// scratch per worker thread; a scratch must not be shared between
/// concurrent derivations.
struct DeriveScratch {
    /// Program-only relations of the last program derived.
    ProgramRelations program;
    // Address-resolution state (per event).
    std::vector<int> resolver_state;
    std::vector<PaId> resolver_pa;
    std::vector<EventId> resolver_prov;
    // Coherence-class buckets, replacing the per-call std::map groupings:
    // (encoded class key, sort position) and (key, position, event) rows
    // sorted in place, plus the contiguous group index built from them.
    std::vector<std::pair<std::int64_t, int>> keyed_positions;
    struct KeyedWrite {
        std::int64_t key;
        int pos;
        EventId id;
    };
    std::vector<KeyedWrite> keyed_writes;
    struct ClassGroup {
        std::int64_t key;
        int begin;
        int end;
    };
    std::vector<ClassGroup> class_groups;
    /// Cycle-check scratch, threaded through the axiom evaluators.
    CycleScratch cycle;
};

/// Derives all relations and runs the well-formedness checks.
DerivedRelations derive(const Execution& execution,
                        const DeriveOptions& options = {});

/// As derive(), but writes into \p out (cleared first, capacity kept) and
/// takes every internal buffer from \p scratch, reusing its
/// ProgramRelations when \p execution's program equals the last one by
/// content. Field-identical to a fresh derive() on the same inputs, edge
/// order and problems included — asserted by the differential tests.
/// Neither pointer argument may be null.
void derive_into(const Execution& execution, const DeriveOptions& options,
                 DerivedRelations* out, DeriveScratch* scratch);

/// Address resolution alone (no witness validation): per-event resolved PA
/// and mapping provenance. Needed by the relaxation engine, which must
/// recompute coherence classes after removing events and before coherence
/// witnesses are rebuilt.
struct ResolutionResult {
    bool ok = false;
    std::vector<PaId> resolved_pa;      ///< kNone where not applicable/failed
    std::vector<EventId> provenance;    ///< kNone = initial mapping
};
ResolutionResult resolve_addresses(const Execution& execution,
                                   const DeriveOptions& options = {});

/// As resolve_addresses(), but writes into \p out (vectors re-assigned,
/// capacity kept) and resolves through \p scratch's buffers —
/// allocation-free in steady state when the execution is well-formed.
/// Field-identical to the materializing overload on the same inputs.
void resolve_addresses_into(const Execution& execution,
                            const DeriveOptions& options,
                            ResolutionResult* out, DeriveScratch* scratch);

/// True when the directed graph over \p num_nodes nodes with the union of
/// the given edge sets contains a cycle. \p scratch may be null (a local
/// one is used); passing one makes repeated checks allocation-free.
bool has_cycle(int num_nodes, const EdgeSet* const* edge_sets,
               std::size_t num_edge_sets, CycleScratch* scratch = nullptr);

inline bool
has_cycle(int num_nodes, std::initializer_list<const EdgeSet*> edge_sets,
          CycleScratch* scratch = nullptr)
{
    return has_cycle(num_nodes, edge_sets.begin(), edge_sets.size(), scratch);
}

inline bool
has_cycle(int num_nodes, const std::vector<const EdgeSet*>& edge_sets,
          CycleScratch* scratch = nullptr)
{
    return has_cycle(num_nodes, edge_sets.data(), edge_sets.size(), scratch);
}

}  // namespace transform::elt
