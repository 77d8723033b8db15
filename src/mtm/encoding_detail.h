/// \file
/// The one SAT encoder behind both public encodings. Not part of the
/// public API.
///
/// SelectorEncoding builds the relational circuit of a program
/// *structure*: event kinds, threads, ghost parents, remap links and rmw
/// pairs. Every VA and every Wpte target PA stays symbolic, as a one-hot
/// selector row; pins() names the selector literals that fix one concrete
/// program. Placement rules that depend on addresses (same-VA rf pairing,
/// walk/INVLPG blocking, provenance VA matching, co_pa target-PA classes)
/// are selector-guarded clauses, so unit propagation under the pins
/// retires every choice variable the program does not allow.
///
/// Two users (see incremental.h and encoding.h):
///  - IncrementalEncoding keeps built structures alive across many
///    candidates and passes each candidate's pins as assumptions;
///  - ProgramEncoding builds one program's structure on a reset
///    EncodingScratch, with selector domains sized from the program, and
///    asserts the pins as unit clauses.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "elt/execution.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "sat/solver.h"
#include "util/logging.h"

namespace transform::spec {
struct Expr;
}

namespace transform::mtm {

struct Axiom;

/// Which derived-relation circuits a query needs. The placement
/// constraints and choice variables are always built (they define the
/// execution space and the CNF the solver sees); the derived circuits are
/// pure factory nodes referenced only by axiom circuits, so building just
/// the ones the queried axioms touch skips dead circuit per structure
/// without changing the solver's clause stream at all.
enum RelNeed : unsigned {
    kNeedRf = 1u << 0,
    kNeedRfe = 1u << 1,
    kNeedFr = 1u << 2,
    kNeedPoLoc = 1u << 3,
    kNeedRfPtw = 1u << 4,
    kNeedPtwSource = 1u << 5,
    kNeedRfPa = 1u << 6,
    kNeedFrPa = 1u << 7,
    kNeedFrVa = 1u << 8,
    kNeedPoConst = 1u << 9,
    kNeedRemapConst = 1u << 10,
    kNeedPpoFenceConst = 1u << 11,
    kNeedPoMemConst = 1u << 12,
    kNeedRmwConst = 1u << 13,
    kNeedGhostConst = 1u << 14,
};

/// The relations SelectorEncoding::axiom_circuit(axiom) touches.
unsigned needs_for(const Axiom& axiom);

/// Flat replacement for per-event std::map<EventId, ExprId> choice maps:
/// every builder loop inserts keys in ascending order, so the vector stays
/// sorted, lookups are binary searches, and clearing keeps the storage a
/// std::map would free per structure.
struct ChoiceMap {
    std::vector<std::pair<elt::EventId, rel::ExprId>> kv;

    void clear() { kv.clear(); }
    bool empty() const { return kv.empty(); }

    /// Keys must arrive in strictly ascending order (asserted in debug).
    void
    insert(elt::EventId key, rel::ExprId value)
    {
        TF_ASSERT(kv.empty() || kv.back().first < key);
        kv.emplace_back(key, value);
    }

    /// Pointer to the value for \p key, or nullptr.
    const rel::ExprId*
    find(elt::EventId key) const
    {
        const auto it = std::lower_bound(
            kv.begin(), kv.end(), key,
            [](const std::pair<elt::EventId, rel::ExprId>& entry,
               elt::EventId k) { return entry.first < k; });
        return it != kv.end() && it->first == key ? &it->second : nullptr;
    }

    rel::ExprId
    at(elt::EventId key) const
    {
        const rel::ExprId* value = find(key);
        TF_ASSERT(value != nullptr);
        return *value;
    }

    auto begin() const { return kv.begin(); }
    auto end() const { return kv.end(); }
};

/// One edge of a flat extraction template (see ext_rf).
struct TemplateEdge {
    elt::EventId a;
    elt::EventId b;
    sat::Lit lit;
};

/// The selector-based circuit of one program structure (file comment).
/// Every RelExpr/ExprId inside indexes *factory, and expr_memo keys are
/// AST pointers owned by the Model, so a SelectorEncoding moved or swapped
/// together with its factory and solver stays consistent.
struct SelectorEncoding {
    /// Where the circuit and its clauses go; not owned.
    rel::BoolFactory* factory = nullptr;
    sat::Solver* solver = nullptr;

    /// The build() configuration: VM-awareness and the selector domains
    /// (every VA < max_vas; every PA, initial frames included, < max_pas).
    bool vm = false;
    int max_vas = 1;
    int max_pas = 1;
    int n = 0;

    /// s_va[e][v]: one-hot VA selector (events that carry a VA only).
    std::vector<std::vector<rel::ExprId>> s_va;
    /// Symmetric n*n memo of va_eq circuits, built lazily: a pair's
    /// circuit is created by the first constraint that touches it, always
    /// before freeze_projection(), and untouched pairs never pay for their
    /// OR-of-ANDs.
    std::vector<rel::ExprId> va_eq_tab;
    std::vector<char> va_eq_built;

    /// rf_choice[r]: candidate write -> choice; init_choice[r] for the
    /// initial state.
    std::vector<ChoiceMap> rf_choice;
    std::vector<rel::ExprId> init_choice;
    /// ptw_choice[e]: walk -> choice (data accesses only).
    std::vector<ChoiceMap> ptw_choice;
    /// pa[e][k]: one-hot resolved PA. A Wpte's row doubles as its map_pa
    /// selector: pinned per program, and every constraint that depends on
    /// the target PA links through this row.
    std::vector<std::vector<rel::ExprId>> pa;
    /// prov[e]: Wpte -> flag, plus prov_init[e] (data accesses, walks,
    /// dirty-bit writes).
    std::vector<ChoiceMap> prov;
    std::vector<rel::ExprId> prov_init;

    /// Coherence order over write-like events; alias-creation order over
    /// Wptes.
    rel::RelExpr co, co_pa;
    /// Derived circuits, built per the need bits passed to build().
    rel::RelExpr rf, fr, po_loc, rfe, rf_ptw_rel, ptw_source, rf_pa, fr_pa;
    rel::RelExpr fr_va, po_const, remap_const, ppo_const, fence_const;
    rel::RelExpr po_mem_const, rmw_const, ghost_const;

    /// Memo of lowered `.mtm` expression nodes: a let body shared by
    /// several references (the AST is a DAG) compiles once per build.
    std::vector<std::pair<const spec::Expr*, rel::RelExpr>> expr_memo;

    /// Flat extraction templates (freeze_projection): guard expressions
    /// resolved to their Tseitin literals once, so per-model extraction is
    /// array walks and O(1) model reads.
    std::vector<TemplateEdge> ext_rf;
    std::vector<TemplateEdge> ext_ptw;
    std::vector<TemplateEdge> ext_co;
    std::vector<elt::EventId> ext_write_like;
    /// The pinned program's projection literals (build_block_template).
    std::vector<sat::Lit> block_tmpl;

    /// Build-time scratch.
    std::vector<sat::Lit> clause_buf;
    bool clause_sat = false;
    std::vector<rel::ExprId> options_buf;
    std::vector<elt::EventId> events_buf;
    std::vector<elt::EventId> peers_buf;

    /// Resets *factory and *solver, then builds \p p's structure: the
    /// selector rows, the choice variables and placement constraints, and
    /// the derived circuits \p needs names.
    void build(const elt::Program& p, bool vm_aware, int vas, int pas,
               unsigned needs);

    /// The circuit that holds iff \p axiom is satisfied. Only the
    /// relations needs_for(axiom) names may be read, so build() must have
    /// covered them.
    rel::ExprId axiom_circuit(const elt::Program& p, const Axiom& axiom);

    /// Compiles every expression extract_into() reads while the solver is
    /// still at the root, and fills the extraction templates. Call after
    /// the last constraint of the build.
    void freeze_projection(const elt::Program& p);

    /// Appends the selector literals that pin \p p (same structure as the
    /// build): one per VA slot, then one per Wpte target PA, in event
    /// order.
    void pins(const elt::Program& p, std::vector<sat::Lit>* out);

    /// Resolves the pinned program's projection variables (the choices it
    /// allows) to literals, for blocking_clause().
    void build_block_template(const elt::Program& p);

    /// The clause that blocks the current model's projection.
    void blocking_clause(std::vector<sat::Lit>* clause) const;

    /// Reads the current model into \p out, reusing its vectors.
    void extract_into(const elt::Program& p, elt::Execution* out);

  private:
    void cl_begin();
    void cl_pos(rel::ExprId e);
    void cl_neg(rel::ExprId e);
    void cl_end();
    void assert_exactly_one(const std::vector<rel::ExprId>& options);
    rel::ExprId var();
    rel::ExprId va_eq(elt::EventId a, elt::EventId b);
    rel::ExprId pa_equal(elt::EventId a, elt::EventId b);
    void link_pa(rel::ExprId guard, elt::EventId a, elt::EventId b);
    void link_prov(rel::ExprId guard, elt::EventId a, elt::EventId b);
    rel::ExprId same_class(const elt::Program& p, elt::EventId a,
                           elt::EventId b);
    void build_selectors(const elt::Program& p);
    void build_choices(const elt::Program& p);
    void build_address_resolution(const elt::Program& p);
    void build_coherence(const elt::Program& p);
    void build_derived(const elt::Program& p, unsigned needs);
    rel::RelExpr compile_expr(const elt::Program& p, const spec::Expr& e);
    bool rf_valid(const elt::Program& p, elt::EventId r,
                  elt::EventId w) const;
    bool ptw_valid(const elt::Program& p, elt::EventId e,
                   elt::EventId walk) const;
};

}  // namespace transform::mtm
