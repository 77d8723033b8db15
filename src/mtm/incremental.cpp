#include "mtm/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "mtm/encoding.h"
#include "mtm/encoding_detail.h"
#include "obs/alloc.h"
#include "rel/bool_factory.h"
#include "rel/relation.h"
#include "sat/solver.h"
#include "spec/ast.h"
#include "spec/eval.h"
#include "util/logging.h"

namespace transform::mtm {

using elt::Event;
using elt::EventId;
using elt::EventKind;
using elt::Execution;
using elt::kNone;
using elt::Program;
using rel::BoolFactory;
using rel::ExprId;
using rel::RelExpr;

namespace {

/// Events carrying a virtual address, i.e. the events that get a VA
/// selector row. Kind-determined, so membership is part of the structure
/// key even though the VA value is not.
bool
has_selector(EventKind kind)
{
    return kind != EventKind::kMfence && kind != EventKind::kInvlpgAll;
}

/// Resizes a vector of per-event containers to \p n rows and clears each
/// row, keeping every row's capacity.
template <typename Row>
void
reset_rows(std::vector<Row>* rows, int n)
{
    rows->resize(n);
    for (Row& row : *rows) {
        row.clear();
    }
}

/// ONE source of truth per `.mtm` base relation: the need bit its circuit
/// is gated on AND the circuit it lowers to. Keeping the pair in a single
/// switch makes a mismatch — a circuit read without its need bit, i.e. a
/// stale RelExpr from a previous structure — structurally impossible. co
/// and co_pa are free choice relations, always built (needs = 0).
struct BaseRelInfo {
    unsigned needs;
    RelExpr SelectorEncoding::* circuit;
};

BaseRelInfo
base_rel_info(spec::BaseRel base)
{
    using S = SelectorEncoding;
    switch (base) {
    case spec::BaseRel::kPo: return {kNeedPoConst, &S::po_const};
    case spec::BaseRel::kPoLoc: return {kNeedPoLoc, &S::po_loc};
    case spec::BaseRel::kPoMem: return {kNeedPoMemConst, &S::po_mem_const};
    case spec::BaseRel::kRf: return {kNeedRf, &S::rf};
    case spec::BaseRel::kRfe: return {kNeedRfe, &S::rfe};
    case spec::BaseRel::kCo: return {0, &S::co};
    case spec::BaseRel::kFr: return {kNeedFr, &S::fr};
    case spec::BaseRel::kPpo: return {kNeedPpoFenceConst, &S::ppo_const};
    case spec::BaseRel::kFence: return {kNeedPpoFenceConst, &S::fence_const};
    case spec::BaseRel::kRmw: return {kNeedRmwConst, &S::rmw_const};
    case spec::BaseRel::kGhost: return {kNeedGhostConst, &S::ghost_const};
    case spec::BaseRel::kRfPtw: return {kNeedRfPtw, &S::rf_ptw_rel};
    case spec::BaseRel::kRfPa: return {kNeedRfPa, &S::rf_pa};
    case spec::BaseRel::kCoPa: return {0, &S::co_pa};
    case spec::BaseRel::kFrPa: return {kNeedFrPa, &S::fr_pa};
    case spec::BaseRel::kFrVa: return {kNeedFrVa, &S::fr_va};
    case spec::BaseRel::kRemap: return {kNeedRemapConst, &S::remap_const};
    case spec::BaseRel::kPtwSource: return {kNeedPtwSource, &S::ptw_source};
    }
    TF_PANIC("unknown base relation");
}

/// Union of the need bits under \p e. The AST is a DAG through shared
/// `let` bodies, so the walk carries a visited set — linear in the DAG,
/// not exponential in the let-chain depth.
unsigned
needs_for_expr(const spec::Expr& e, std::vector<const spec::Expr*>* visited)
{
    if (std::find(visited->begin(), visited->end(), &e) != visited->end()) {
        return 0;
    }
    visited->push_back(&e);
    unsigned needs = 0;
    if (e.op == spec::ExprOp::kBase) {
        needs |= base_rel_info(e.base).needs;
    }
    if (e.lhs != nullptr) {
        needs |= needs_for_expr(*e.lhs, visited);
    }
    if (e.rhs != nullptr) {
        needs |= needs_for_expr(*e.rhs, visited);
    }
    return needs;
}

}  // namespace

/// An axiom's footprint is read off its expression DAG.
unsigned
needs_for(const Axiom& axiom)
{
    std::vector<const spec::Expr*> visited;
    return needs_for_expr(*axiom.def->expr, &visited);
}

// ----------------------------------------------------------------------
// SelectorEncoding: the circuit builders. Each constraint is the
// per-program placement rule with every concrete VA/PA test replaced by a
// va_eq/pa-slot guard, so under a program's pins the satisfying
// assignments, projected onto the choice variables the program allows,
// are exactly its well-formed executions. A constraint either (a) does not
// depend on addresses, (b) carries a guard the pins decide by unit
// propagation, or (c) constrains a superset choice variable those guards
// force false, which makes it vacuous.
// ----------------------------------------------------------------------

void
SelectorEncoding::build(const Program& p, bool vm_aware, int vas, int pas,
                        unsigned needs)
{
    vm = vm_aware;
    max_vas = std::max(vas, 1);
    max_pas = std::max(pas, 1);
    n = p.num_events();
    solver->reset();
    factory->reset();
    expr_memo.clear();
    build_selectors(p);
    build_choices(p);
    build_address_resolution(p);
    build_coherence(p);
    build_derived(p, needs);
}

// Direct clause emission. Nearly every placement constraint is a 2- or
// 3-literal clause over choice variables; writing it straight into the
// solver through one reused buffer avoids the auxiliary variable and ~4
// clauses a Tseitin-compiled assert_true costs. Constants fold: a true
// term drops the clause, a false term drops out of it.

void
SelectorEncoding::cl_begin()
{
    clause_buf.clear();
    clause_sat = false;
}

void
SelectorEncoding::cl_pos(ExprId e)
{
    if (e == rel::kTrueExpr) {
        clause_sat = true;
    } else if (e != rel::kFalseExpr) {
        clause_buf.push_back(factory->compile(e, solver));
    }
}

void
SelectorEncoding::cl_neg(ExprId e)
{
    if (e == rel::kFalseExpr) {
        clause_sat = true;
    } else if (e != rel::kTrueExpr) {
        clause_buf.push_back(~factory->compile(e, solver));
    }
}

void
SelectorEncoding::cl_end()
{
    if (!clause_sat) {
        solver->add_clause(clause_buf.data(), clause_buf.size());
    }
}

/// One at-least-one clause plus pairwise at-most-one clauses. An empty
/// option list yields the empty clause, i.e. unsatisfiable.
void
SelectorEncoding::assert_exactly_one(const std::vector<ExprId>& options)
{
    cl_begin();
    for (const ExprId o : options) {
        cl_pos(o);
    }
    cl_end();
    for (std::size_t i = 0; i < options.size(); ++i) {
        for (std::size_t j = i + 1; j < options.size(); ++j) {
            cl_begin();
            cl_neg(options[i]);
            cl_neg(options[j]);
            cl_end();
        }
    }
}

ExprId
SelectorEncoding::var()
{
    return factory->mk_var(solver->new_var());
}

/// Lazy va_eq: the pair's OR-of-ANDs circuit is created by the first
/// constraint that asks for it (always during build(), before
/// freeze_projection()). Pairs without two selector rows — or the
/// diagonal — stay kFalseExpr.
ExprId
SelectorEncoding::va_eq(EventId a, EventId b)
{
    const std::size_t idx = static_cast<std::size_t>(a) * n + b;
    if (!va_eq_built[idx]) {
        ExprId acc = rel::kFalseExpr;
        if (a != b && !s_va[a].empty() && !s_va[b].empty()) {
            acc = factory->mk_const(false);
            for (int v = 0; v < max_vas; ++v) {
                acc = factory->mk_or(
                    acc, factory->mk_and(s_va[a][v], s_va[b][v]));
            }
        }
        const std::size_t mirror = static_cast<std::size_t>(b) * n + a;
        va_eq_tab[idx] = acc;
        va_eq_tab[mirror] = acc;
        va_eq_built[idx] = 1;
        va_eq_built[mirror] = 1;
    }
    return va_eq_tab[idx];
}

ExprId
SelectorEncoding::pa_equal(EventId a, EventId b)
{
    ExprId acc = factory->mk_const(false);
    for (int k = 0; k < max_pas; ++k) {
        acc = factory->mk_or(acc, factory->mk_and(pa[a][k], pa[b][k]));
    }
    return acc;
}

/// Asserts guard -> pa[a] == pa[b], slot by slot.
void
SelectorEncoding::link_pa(ExprId guard, EventId a, EventId b)
{
    for (int k = 0; k < max_pas; ++k) {
        cl_begin();
        cl_neg(guard);
        cl_neg(pa[a][k]);
        cl_pos(pa[b][k]);
        cl_end();
        cl_begin();
        cl_neg(guard);
        cl_neg(pa[b][k]);
        cl_pos(pa[a][k]);
        cl_end();
    }
}

/// Asserts guard -> prov[a] == prov[b].
void
SelectorEncoding::link_prov(ExprId guard, EventId a, EventId b)
{
    cl_begin();
    cl_neg(guard);
    cl_neg(prov_init[a]);
    cl_pos(prov_init[b]);
    cl_end();
    cl_begin();
    cl_neg(guard);
    cl_neg(prov_init[b]);
    cl_pos(prov_init[a]);
    cl_end();
    for (const auto& [w, flag] : prov[a]) {
        const ExprId* it = prov[b].find(w);
        const ExprId other = it == nullptr ? rel::kFalseExpr : *it;
        cl_begin();
        cl_neg(guard);
        cl_neg(flag);
        cl_pos(other);
        cl_end();
    }
    for (const auto& [w, flag] : prov[b]) {
        const ExprId* it = prov[a].find(w);
        const ExprId other = it == nullptr ? rel::kFalseExpr : *it;
        cl_begin();
        cl_neg(guard);
        cl_neg(flag);
        cl_pos(other);
        cl_end();
    }
}

/// Symbolic same-coherence-class: the selector circuit decides the VA/PA
/// comparison per pinned program.
ExprId
SelectorEncoding::same_class(const Program& p, EventId a, EventId b)
{
    const Event& ea = p.event(a);
    const Event& eb = p.event(b);
    if (elt::is_data_access(ea.kind) && elt::is_data_access(eb.kind)) {
        return vm ? pa_equal(a, b) : va_eq(a, b);
    }
    if (elt::is_pte_access(ea.kind) && elt::is_pte_access(eb.kind)) {
        return va_eq(a, b);
    }
    return rel::kFalseExpr;
}

void
SelectorEncoding::build_selectors(const Program& p)
{
    reset_rows(&s_va, n);
    for (EventId e = 0; e < n; ++e) {
        if (!has_selector(p.event(e).kind)) {
            continue;
        }
        s_va[e].reserve(max_vas);
        for (int v = 0; v < max_vas; ++v) {
            s_va[e].push_back(var());
        }
        // At-most-one per row; the program's pin supplies the
        // at-least-one half. Without AMO a free row could satisfy two
        // slots and corrupt every va_eq circuit built from it.
        for (int v = 0; v < max_vas; ++v) {
            for (int u = v + 1; u < max_vas; ++u) {
                cl_begin();
                cl_neg(s_va[e][v]);
                cl_neg(s_va[e][u]);
                cl_end();
            }
        }
    }
    // va_eq circuits are NOT built here: va_eq() creates each pair's
    // circuit on first touch, and untouched pairs never build one.
    va_eq_tab.assign(static_cast<std::size_t>(n) * n, rel::kFalseExpr);
    va_eq_built.assign(static_cast<std::size_t>(n) * n, 0);
}

void
SelectorEncoding::build_choices(const Program& p)
{
    reset_rows(&rf_choice, n);
    init_choice.assign(n, rel::kFalseExpr);
    reset_rows(&ptw_choice, n);
    reset_rows(&pa, n);
    reset_rows(&prov, n);
    prov_init.assign(n, rel::kFalseExpr);

    for (EventId r = 0; r < n; ++r) {
        const Event& e = p.event(r);
        if (!elt::is_read_like(e.kind)) {
            continue;
        }
        std::vector<ExprId>& options = options_buf;
        options.clear();
        init_choice[r] = var();
        options.push_back(init_choice[r]);
        for (EventId w = 0; w < n; ++w) {
            if (w == r) {
                continue;
            }
            const Event& we = p.event(w);
            // Superset of the per-program candidate sets: the concrete
            // same-VA tests become validity clauses below.
            const bool data_pair = elt::is_data_access(e.kind) &&
                                   we.kind == EventKind::kWrite;
            const bool pte_pair = elt::is_pte_access(e.kind) &&
                                  elt::is_pte_access(we.kind) &&
                                  elt::is_write_like(we.kind);
            if (data_pair || pte_pair) {
                const ExprId choice = var();
                rf_choice[r].insert(w, choice);
                options.push_back(choice);
                // VM-mode data rf carries no VA condition (the dynamic
                // same-PA rule gates it).
                if (pte_pair || (data_pair && !vm)) {
                    cl_begin();
                    cl_neg(choice);
                    cl_pos(va_eq(w, r));
                    cl_end();
                }
            }
        }
        assert_exactly_one(options);
    }

    if (!vm) {
        return;
    }
    for (EventId e = 0; e < n; ++e) {
        if (!elt::is_data_access(p.event(e).kind)) {
            continue;
        }
        std::vector<ExprId>& options = options_buf;
        options.clear();
        for (EventId w = 0; w < n; ++w) {
            const Event& we = p.event(w);
            if (we.kind != EventKind::kRptw ||
                we.thread != p.event(e).thread) {
                continue;
            }
            const EventId walker = we.parent;
            if (walker != e && !p.precedes(walker, e)) {
                continue;
            }
            // INVLPG-all evicts every entry regardless of VA, so that
            // half of the "blocked" test stays structural; the per-VA
            // INVLPG half becomes a validity clause.
            bool blocked = false;
            for (EventId i = 0; i < n; ++i) {
                if (p.event(i).kind == EventKind::kInvlpgAll &&
                    p.event(i).thread == we.thread &&
                    p.precedes(walker, i) && p.precedes(i, e)) {
                    blocked = true;
                    break;
                }
            }
            if (blocked) {
                continue;
            }
            const ExprId choice = var();
            ptw_choice[e].insert(w, choice);
            options.push_back(choice);
            cl_begin();
            cl_neg(choice);
            cl_pos(va_eq(w, e));
            cl_end();
            for (EventId i = 0; i < n; ++i) {
                if (p.event(i).kind == EventKind::kInvlpg &&
                    p.event(i).thread == we.thread &&
                    p.precedes(walker, i) && p.precedes(i, e)) {
                    cl_begin();
                    cl_neg(choice);
                    cl_neg(va_eq(i, w));
                    cl_end();
                }
            }
        }
        assert_exactly_one(options);
        const EventId own = p.rptw_of(e);
        if (own != kNone) {
            // Own walks are never structurally blocked (the walker is
            // e itself, so nothing fits between), hence always in the
            // superset.
            const ExprId* choice = ptw_choice[e].find(own);
            TF_ASSERT(choice != nullptr);
            factory->assert_true(*choice, solver);
        }
    }
}

void
SelectorEncoding::build_address_resolution(const Program& p)
{
    if (!vm) {
        return;
    }
    for (EventId e = 0; e < n; ++e) {
        const Event& ev = p.event(e);
        if (!elt::is_memory(ev.kind)) {
            continue;
        }
        if (ev.kind == EventKind::kWpte) {
            // The map_pa selector row (see the pa member comment):
            // at-most-one here, pinned one-hot per program.
            pa[e].reserve(max_pas);
            for (int k = 0; k < max_pas; ++k) {
                pa[e].push_back(var());
            }
            for (int k = 0; k < max_pas; ++k) {
                for (int j = k + 1; j < max_pas; ++j) {
                    cl_begin();
                    cl_neg(pa[e][k]);
                    cl_neg(pa[e][j]);
                    cl_end();
                }
            }
            continue;
        }
        pa[e].reserve(max_pas);
        for (int k = 0; k < max_pas; ++k) {
            pa[e].push_back(var());
        }
        assert_exactly_one(pa[e]);
        prov_init[e] = var();
        std::vector<ExprId>& options = options_buf;
        options.clear();
        options.push_back(prov_init[e]);
        for (EventId w = 0; w < n; ++w) {
            if (p.event(w).kind == EventKind::kWpte) {
                const ExprId flag = var();
                prov[e].insert(w, flag);
                options.push_back(flag);
                cl_begin();
                cl_neg(flag);
                cl_pos(va_eq(w, e));
                cl_end();
            }
        }
        assert_exactly_one(options);
    }

    for (EventId e = 0; e < n; ++e) {
        const Event& ev = p.event(e);
        switch (ev.kind) {
        case EventKind::kRead:
        case EventKind::kWrite:
            for (const auto& [walk, guard] : ptw_choice[e]) {
                link_pa(guard, e, walk);
                link_prov(guard, e, walk);
            }
            break;
        case EventKind::kRptw:
        case EventKind::kRdb: {
            // Initial mapping VA v -> PA v, per selector slot.
            for (int v = 0; v < max_vas; ++v) {
                cl_begin();
                cl_neg(init_choice[e]);
                cl_neg(s_va[e][v]);
                cl_pos(pa[e][v]);
                cl_end();
            }
            cl_begin();
            cl_neg(init_choice[e]);
            cl_pos(prov_init[e]);
            cl_end();
            for (const auto& [w, guard] : rf_choice[e]) {
                if (p.event(w).kind == EventKind::kWpte) {
                    for (int k = 0; k < max_pas; ++k) {
                        cl_begin();
                        cl_neg(guard);
                        cl_neg(pa[w][k]);
                        cl_pos(pa[e][k]);
                        cl_end();
                    }
                    cl_begin();
                    cl_neg(guard);
                    cl_pos(prov[e].at(w));
                    cl_end();
                } else {
                    link_pa(guard, e, w);
                    link_prov(guard, e, w);
                }
            }
            break;
        }
        default:
            break;
        }
    }

    for (EventId r = 0; r < n; ++r) {
        if (!elt::is_data_access(p.event(r).kind)) {
            continue;
        }
        for (const auto& [w, guard] : rf_choice[r]) {
            for (int k = 0; k < max_pas; ++k) {
                cl_begin();
                cl_neg(guard);
                cl_neg(pa[r][k]);
                cl_pos(pa[w][k]);
                cl_end();
            }
        }
    }
}

void
SelectorEncoding::build_coherence(const Program& p)
{
    co.reset_empty(factory, n);
    co_pa.reset_empty(factory, n);
    std::vector<EventId>& writes = events_buf;
    writes.clear();
    for (EventId w = 0; w < n; ++w) {
        if (elt::is_write_like(p.event(w).kind)) {
            writes.push_back(w);
        }
    }
    for (const EventId a : writes) {
        for (const EventId b : writes) {
            if (a != b) {
                co.set(a, b, var());
            }
        }
    }
    for (const EventId a : writes) {
        for (const EventId b : writes) {
            if (a == b) {
                continue;
            }
            const bool dynamic_class =
                vm && elt::is_data_access(p.event(a).kind) &&
                elt::is_data_access(p.event(b).kind);
            if (dynamic_class) {
                for (int k = 0; k < max_pas; ++k) {
                    cl_begin();
                    cl_neg(co.at(a, b));
                    cl_neg(pa[a][k]);
                    cl_pos(pa[b][k]);
                    cl_end();
                }
            } else {
                cl_begin();
                cl_neg(co.at(a, b));
                cl_pos(same_class(p, a, b));
                cl_end();
            }
            if (a < b) {
                cl_begin();
                cl_neg(co.at(a, b));
                cl_neg(co.at(b, a));
                cl_end();
                if (dynamic_class) {
                    for (int k = 0; k < max_pas; ++k) {
                        cl_begin();
                        cl_neg(pa[a][k]);
                        cl_neg(pa[b][k]);
                        cl_pos(co.at(a, b));
                        cl_pos(co.at(b, a));
                        cl_end();
                    }
                } else {
                    cl_begin();
                    cl_neg(same_class(p, a, b));
                    cl_pos(co.at(a, b));
                    cl_pos(co.at(b, a));
                    cl_end();
                }
            }
            for (const EventId c : writes) {
                if (c != a && c != b) {
                    cl_begin();
                    cl_neg(co.at(a, b));
                    cl_neg(co.at(b, c));
                    cl_pos(co.at(a, c));
                    cl_end();
                }
            }
        }
    }
    if (!vm) {
        return;
    }
    for (EventId d = 0; d < n; ++d) {
        if (p.event(d).kind != EventKind::kWdb) {
            continue;
        }
        // Peer superset: every PTE write, any VA — different-VA peers
        // have co(w, d) forced false (pte-pte coherence requires
        // va_eq), which makes each clause below collapse to the clause
        // over the same-VA peers.
        std::vector<EventId>& peers = peers_buf;
        peers.clear();
        for (EventId w = 0; w < n; ++w) {
            if (w != d && elt::is_pte_access(p.event(w).kind) &&
                elt::is_write_like(p.event(w).kind)) {
                peers.push_back(w);
            }
        }
        for (int v = 0; v < max_vas; ++v) {
            cl_begin();
            for (const EventId w : peers) {
                cl_pos(co.at(w, d));
            }
            cl_neg(s_va[d][v]);
            cl_pos(pa[d][v]);
            cl_end();
        }
        cl_begin();
        for (const EventId w : peers) {
            cl_pos(co.at(w, d));
        }
        cl_pos(prov_init[d]);
        cl_end();
        for (const EventId w : peers) {
            ExprId immediate = co.at(w, d);
            for (const EventId between : peers) {
                if (between != w) {
                    immediate = factory->mk_and(
                        immediate,
                        factory->mk_not(factory->mk_and(
                            co.at(w, between), co.at(between, d))));
                }
            }
            if (p.event(w).kind == EventKind::kWpte) {
                for (int k = 0; k < max_pas; ++k) {
                    cl_begin();
                    cl_neg(immediate);
                    cl_neg(pa[w][k]);
                    cl_pos(pa[d][k]);
                    cl_end();
                }
                cl_begin();
                cl_neg(immediate);
                cl_pos(prov[d].at(w));
                cl_end();
            } else {
                link_pa(immediate, d, w);
                link_prov(immediate, d, w);
            }
        }
    }
    // co_pa over ALL Wpte pairs, not just same-target-PA ones: the
    // per-slot class-forcing clause drives cross-class pairs false under
    // any program's pins, and the totality clause only fires within a
    // pinned class.
    std::vector<EventId>& wptes = events_buf;
    wptes.clear();
    for (EventId w = 0; w < n; ++w) {
        if (p.event(w).kind == EventKind::kWpte) {
            wptes.push_back(w);
        }
    }
    for (const EventId a : wptes) {
        for (const EventId b : wptes) {
            if (a != b) {
                co_pa.set(a, b, var());
            }
        }
    }
    for (const EventId a : wptes) {
        for (const EventId b : wptes) {
            if (a == b) {
                continue;
            }
            for (int k = 0; k < max_pas; ++k) {
                cl_begin();
                cl_neg(co_pa.at(a, b));
                cl_neg(pa[a][k]);
                cl_pos(pa[b][k]);
                cl_end();
            }
            if (a < b) {
                cl_begin();
                cl_neg(co_pa.at(a, b));
                cl_neg(co_pa.at(b, a));
                cl_end();
                for (int k = 0; k < max_pas; ++k) {
                    cl_begin();
                    cl_neg(pa[a][k]);
                    cl_neg(pa[b][k]);
                    cl_pos(co_pa.at(a, b));
                    cl_pos(co_pa.at(b, a));
                    cl_end();
                }
            }
            for (const EventId c : wptes) {
                if (c != a && c != b) {
                    cl_begin();
                    cl_neg(co_pa.at(a, b));
                    cl_neg(co_pa.at(b, c));
                    cl_pos(co_pa.at(a, c));
                    cl_end();
                }
            }
            // co / co_pa agreement where both orders apply, i.e. same
            // VA (co compares the pair) and same target PA (co_pa
            // classes the pair).
            const ExprId both =
                factory->mk_and(va_eq(a, b), pa_equal(a, b));
            cl_begin();
            cl_neg(both);
            cl_neg(co.at(a, b));
            cl_pos(co_pa.at(a, b));
            cl_end();
            cl_begin();
            cl_neg(both);
            cl_pos(co.at(a, b));
            cl_neg(co_pa.at(a, b));
            cl_end();
        }
    }
}

void
SelectorEncoding::build_derived(const Program& p, unsigned need_bits)
{
    if (need_bits & kNeedRf) {
        rf.reset_empty(factory, n);
        for (EventId r = 0; r < n; ++r) {
            for (const auto& [w, guard] : rf_choice[r]) {
                rf.set(w, r, factory->mk_or(rf.at(w, r), guard));
            }
        }
    }
    if (need_bits & kNeedRfe) {
        rfe.reset_empty(factory, n);
        for (EventId r = 0; r < n; ++r) {
            for (const auto& [w, guard] : rf_choice[r]) {
                if (p.event(w).thread != p.event(r).thread) {
                    rfe.set(w, r, factory->mk_or(rfe.at(w, r), guard));
                }
            }
        }
    }
    if (need_bits & kNeedFr) {
        fr.reset_empty(factory, n);
        for (EventId r = 0; r < n; ++r) {
            if (!elt::is_read_like(p.event(r).kind)) {
                continue;
            }
            for (EventId w2 = 0; w2 < n; ++w2) {
                if (!elt::is_write_like(p.event(w2).kind)) {
                    continue;
                }
                ExprId acc = factory->mk_and(init_choice[r],
                                            same_class(p, r, w2));
                for (const auto& [w, guard] : rf_choice[r]) {
                    if (w != w2) {
                        acc = factory->mk_or(
                            acc, factory->mk_and(guard, co.at(w, w2)));
                    }
                }
                fr.set(r, w2, acc);
            }
        }
    }
    if (need_bits & kNeedPoLoc) {
        po_loc.reset_empty(factory, n);
        for (EventId a = 0; a < n; ++a) {
            for (EventId b = 0; b < n; ++b) {
                if (a != b && elt::is_memory(p.event(a).kind) &&
                    elt::is_memory(p.event(b).kind) && p.precedes(a, b)) {
                    po_loc.set(a, b, same_class(p, a, b));
                }
            }
        }
    }
    if (need_bits & kNeedPoConst) {
        po_const.reset_empty(factory, n);
        for (int t = 0; t < p.num_threads(); ++t) {
            const auto& seq = p.thread(t);
            for (std::size_t i = 0; i < seq.size(); ++i) {
                for (std::size_t j = i + 1; j < seq.size(); ++j) {
                    po_const.set(seq[i], seq[j], rel::kTrueExpr);
                }
            }
        }
    }
    if (need_bits & kNeedPoMemConst) {
        po_mem_const.reset_empty(factory, n);
        for (EventId a = 0; a < n; ++a) {
            for (EventId b = 0; b < n; ++b) {
                if (a != b && elt::is_memory(p.event(a).kind) &&
                    elt::is_memory(p.event(b).kind) && p.precedes(a, b)) {
                    po_mem_const.set(a, b, rel::kTrueExpr);
                }
            }
        }
    }
    if (need_bits & kNeedRemapConst) {
        remap_const.reset_empty(factory, n);
        for (EventId i = 0; i < n; ++i) {
            const Event& e = p.event(i);
            if (e.kind == EventKind::kInvlpg && e.remap_src != kNone) {
                remap_const.set(e.remap_src, i, rel::kTrueExpr);
            }
        }
    }
    if (need_bits & kNeedRmwConst) {
        rmw_const.reset_empty(factory, n);
        for (const auto& [r, w] : p.rmw_pairs()) {
            rmw_const.set(r, w, rel::kTrueExpr);
        }
    }
    if (need_bits & kNeedGhostConst) {
        ghost_const.reset_empty(factory, n);
        for (EventId i = 0; i < n; ++i) {
            if (elt::is_ghost(p.event(i).kind)) {
                ghost_const.set(p.event(i).parent, i, rel::kTrueExpr);
            }
        }
    }
    if (need_bits & kNeedPpoFenceConst) {
        ppo_const.reset_empty(factory, n);
        fence_const.reset_empty(factory, n);
        for (EventId a = 0; a < n; ++a) {
            for (EventId b = 0; b < n; ++b) {
                if (a == b || !elt::is_memory(p.event(a).kind) ||
                    !elt::is_memory(p.event(b).kind) ||
                    !p.precedes(a, b)) {
                    continue;
                }
                if (!(elt::is_write_like(p.event(a).kind) &&
                      elt::is_read_like(p.event(b).kind))) {
                    ppo_const.set(a, b, rel::kTrueExpr);
                }
                for (EventId f = 0; f < n; ++f) {
                    if (p.event(f).kind == EventKind::kMfence &&
                        p.precedes(a, f) && p.precedes(f, b)) {
                        fence_const.set(a, b, rel::kTrueExpr);
                        break;
                    }
                }
            }
        }
    }
    if (!vm) {
        if (need_bits & (kNeedRfPtw | kNeedPtwSource)) {
            rf_ptw_rel.reset_empty(factory, n);
            ptw_source.reset_empty(factory, n);
        }
        if (need_bits & kNeedRfPa) {
            rf_pa.reset_empty(factory, n);
        }
        if (need_bits & kNeedFrVa) {
            fr_va.reset_empty(factory, n);
        }
        if (need_bits & kNeedFrPa) {
            fr_pa.reset_empty(factory, n);
        }
        return;
    }

    if (need_bits & (kNeedRfPtw | kNeedPtwSource)) {
        rf_ptw_rel.reset_empty(factory, n);
        ptw_source.reset_empty(factory, n);
        for (EventId e = 0; e < n; ++e) {
            for (const auto& [walk, guard] : ptw_choice[e]) {
                rf_ptw_rel.set(
                    walk, e,
                    factory->mk_or(rf_ptw_rel.at(walk, e), guard));
                const EventId walker = p.event(walk).parent;
                if (walker != e) {
                    ptw_source.set(
                        walker, e,
                        factory->mk_or(ptw_source.at(walker, e), guard));
                }
            }
        }
    }
    if (need_bits & kNeedRfPa) {
        rf_pa.reset_empty(factory, n);
        for (EventId e = 0; e < n; ++e) {
            if (!elt::is_data_access(p.event(e).kind)) {
                continue;
            }
            for (const auto& [wpte, flag] : prov[e]) {
                rf_pa.set(wpte, e, flag);
            }
        }
    }
    if (need_bits & kNeedFrVa) {
        fr_va.reset_empty(factory, n);
        for (EventId e = 0; e < n; ++e) {
            if (!elt::is_data_access(p.event(e).kind)) {
                continue;
            }
            for (EventId w2 = 0; w2 < n; ++w2) {
                if (p.event(w2).kind != EventKind::kWpte) {
                    continue;
                }
                // Only Wptes remapping e's VA count; the va_eq conjunct
                // zeroes the entry for every other one.
                ExprId acc = prov_init[e];
                for (const auto& [wpte, flag] : prov[e]) {
                    if (wpte != w2) {
                        acc = factory->mk_or(
                            acc, factory->mk_and(flag, co.at(wpte, w2)));
                    }
                }
                fr_va.set(e, w2, factory->mk_and(va_eq(e, w2), acc));
            }
        }
    }
    if (need_bits & kNeedFrPa) {
        fr_pa.reset_empty(factory, n);
        for (EventId e = 0; e < n; ++e) {
            if (!elt::is_data_access(p.event(e).kind)) {
                continue;
            }
            for (EventId w2 = 0; w2 < n; ++w2) {
                if (p.event(w2).kind != EventKind::kWpte) {
                    continue;
                }
                ExprId acc = factory->mk_and(prov_init[e],
                                            pa_equal(e, w2));
                for (const auto& [wpte, flag] : prov[e]) {
                    if (wpte != w2) {
                        // No same-target-PA filter needed: co_pa is
                        // forced false across classes.
                        acc = factory->mk_or(
                            acc,
                            factory->mk_and(flag, co_pa.at(wpte, w2)));
                    }
                }
                fr_pa.set(e, w2, acc);
            }
        }
    }
}

/// Generic `.mtm` expression lowering — the symbolic twin of
/// spec/eval.cpp: base relations map onto the circuits above, the
/// relational operators 1:1 onto rel::RelExpr's algebra.
RelExpr
SelectorEncoding::compile_expr(const Program& p, const spec::Expr& e)
{
    for (const auto& [node, circuit] : expr_memo) {
        if (node == &e) {
            return circuit;
        }
    }
    RelExpr result;
    switch (e.op) {
    case spec::ExprOp::kBase:
        // Resolved through the table that produced the need bits, so a
        // circuit is never read without having been built for this
        // structure.
        result = this->*(base_rel_info(e.base).circuit);
        break;
    case spec::ExprOp::kEmpty:
        result = RelExpr::empty(factory, n);
        break;
    case spec::ExprOp::kIdSet:
        result = RelExpr::empty(factory, n);
        for (EventId a = 0; a < n; ++a) {
            if (spec::event_in_set(e.set, p.event(a).kind)) {
                result.set(a, a, rel::kTrueExpr);
            }
        }
        break;
    case spec::ExprOp::kUnion:
        result = compile_expr(p, *e.lhs)
                     .rel_union(factory, compile_expr(p, *e.rhs));
        break;
    case spec::ExprOp::kIntersect:
        result = compile_expr(p, *e.lhs)
                     .rel_intersect(factory, compile_expr(p, *e.rhs));
        break;
    case spec::ExprOp::kMinus:
        result = compile_expr(p, *e.lhs)
                     .rel_minus(factory, compile_expr(p, *e.rhs));
        break;
    case spec::ExprOp::kJoin:
        result = compile_expr(p, *e.lhs)
                     .join(factory, compile_expr(p, *e.rhs));
        break;
    case spec::ExprOp::kTranspose:
        result = compile_expr(p, *e.lhs).transpose(factory);
        break;
    case spec::ExprOp::kClosure:
        result = compile_expr(p, *e.lhs).closure(factory);
        break;
    case spec::ExprOp::kReflexiveClosure:
        result = compile_expr(p, *e.lhs).closure(factory).rel_union(
            factory, RelExpr::identity(factory, n));
        break;
    case spec::ExprOp::kLetRef:
        result = compile_expr(p, *e.lhs);
        break;
    }
    expr_memo.emplace_back(&e, result);
    return result;
}

ExprId
SelectorEncoding::axiom_circuit(const Program& p, const Axiom& ax)
{
    const RelExpr r = compile_expr(p, *ax.def->expr);
    switch (ax.def->form) {
    case spec::AxiomForm::kAcyclic:
        return r.acyclic(factory);
    case spec::AxiomForm::kIrreflexive:
        return r.irreflexive(factory);
    case spec::AxiomForm::kEmpty:
        return r.is_empty(factory);
    }
    TF_PANIC("unknown axiom form");
}

/// Pre-compiles every expression extract_into() and blocking_clause()
/// will touch, while the trail is still at the root. Two payoffs: the
/// per-model hot paths become pure memo hits plus O(1) model lookups
/// (no clause can be added mid-enumeration, which would backtrack the
/// kept kSat trail), and extract_into() can read the Tseitin literal's
/// model value instead of re-walking the circuit DAG per guard — the
/// compiler emits the full biconditional, so the literal's value in
/// any model equals the circuit's.
void
SelectorEncoding::freeze_projection(const Program& p)
{
    sat::Solver& s = *solver;
    ext_rf.clear();
    ext_ptw.clear();
    ext_co.clear();
    ext_write_like.clear();
    for (EventId r = 0; r < n; ++r) {
        for (const auto& [w, guard] : rf_choice[r]) {
            ext_rf.push_back({r, w, factory->compile(guard, &s)});
        }
        if (elt::is_read_like(p.event(r).kind)) {
            (void)factory->compile(init_choice[r], &s);
        }
        for (const auto& [walk, guard] : ptw_choice[r]) {
            ext_ptw.push_back({r, walk, factory->compile(guard, &s)});
        }
    }
    for (EventId a = 0; a < n; ++a) {
        if (elt::is_write_like(p.event(a).kind)) {
            ext_write_like.push_back(a);
        }
        for (EventId c = 0; c < n; ++c) {
            if (a == c) {
                continue;
            }
            if (co.at(a, c) != rel::kFalseExpr &&
                elt::is_write_like(p.event(a).kind) &&
                elt::is_write_like(p.event(c).kind)) {
                ext_co.push_back({a, c, factory->compile(co.at(a, c), &s)});
            } else if (co.at(a, c) != rel::kFalseExpr) {
                (void)factory->compile(co.at(a, c), &s);
            }
            if (co_pa.at(a, c) != rel::kFalseExpr) {
                (void)factory->compile(co_pa.at(a, c), &s);
            }
        }
    }
}

/// Whether the pinned program allows the superset rf pair (r, w).
bool
SelectorEncoding::rf_valid(const Program& p, EventId r, EventId w) const
{
    const Event& e = p.event(r);
    const Event& we = p.event(w);
    const bool data_pair = elt::is_data_access(e.kind) &&
                           we.kind == EventKind::kWrite &&
                           (vm || we.va == e.va);
    const bool pte_pair = elt::is_pte_access(e.kind) &&
                          elt::is_pte_access(we.kind) &&
                          elt::is_write_like(we.kind) && we.va == e.va;
    return data_pair || pte_pair;
}

/// Whether the pinned program allows the superset ptw pair (e, walk)
/// (thread/walker-order/INVLPG-all screening already happened at
/// superset construction).
bool
SelectorEncoding::ptw_valid(const Program& p, EventId e, EventId walk) const
{
    const Event& we = p.event(walk);
    if (we.va != p.event(e).va) {
        return false;
    }
    const EventId walker = we.parent;
    for (EventId i = 0; i < n; ++i) {
        const Event& inv = p.event(i);
        const bool evicts =
            (inv.kind == EventKind::kInvlpg && inv.va == we.va) ||
            inv.kind == EventKind::kInvlpgAll;
        if (evicts && inv.thread == we.thread && p.precedes(walker, i) &&
            p.precedes(i, e)) {
            return false;
        }
    }
    return true;
}

void
SelectorEncoding::pins(const Program& p, std::vector<sat::Lit>* out)
{
    for (EventId e = 0; e < n; ++e) {
        const Event& ev = p.event(e);
        if (!has_selector(ev.kind)) {
            continue;
        }
        TF_ASSERT(ev.va >= 0 && ev.va < max_vas);
        out->push_back(factory->compile(s_va[e][ev.va], solver));
    }
    if (!vm) {
        return;
    }
    for (EventId e = 0; e < n; ++e) {
        const Event& ev = p.event(e);
        if (ev.kind != EventKind::kWpte) {
            continue;
        }
        TF_ASSERT(ev.map_pa >= 0 && ev.map_pa < max_pas);
        out->push_back(factory->compile(pa[e][ev.map_pa], solver));
    }
}

/// Validity is pin-dependent, so this runs once per program rather than in
/// freeze_projection. Blocking only the allowed choices makes the model
/// count exactly the program's execution count.
void
SelectorEncoding::build_block_template(const Program& p)
{
    block_tmpl.clear();
    sat::Solver& s = *solver;
    auto block = [&](ExprId e) {
        block_tmpl.push_back(factory->compile(e, &s));
    };
    for (EventId r = 0; r < n; ++r) {
        for (const auto& [w, guard] : rf_choice[r]) {
            if (rf_valid(p, r, w)) {
                block(guard);
            }
        }
        if (elt::is_read_like(p.event(r).kind)) {
            block(init_choice[r]);
        }
        for (const auto& [walk, guard] : ptw_choice[r]) {
            if (ptw_valid(p, r, walk)) {
                block(guard);
            }
        }
    }
    for (EventId a = 0; a < n; ++a) {
        for (EventId c = 0; c < n; ++c) {
            if (a == c) {
                continue;
            }
            if (co.at(a, c) != rel::kFalseExpr) {
                block(co.at(a, c));
            }
            if (co_pa.at(a, c) != rel::kFalseExpr &&
                p.event(a).map_pa == p.event(c).map_pa) {
                block(co_pa.at(a, c));
            }
        }
    }
}

/// Projection clause for the current model: the template's literals,
/// each inverted where the model satisfies it.
void
SelectorEncoding::blocking_clause(std::vector<sat::Lit>* clause) const
{
    clause->clear();
    for (const sat::Lit l : block_tmpl) {
        clause->push_back(solver->model_literal_true(l) ? ~l : l);
    }
}

void
SelectorEncoding::extract_into(const Program& p, Execution* out)
{
    out->rf_src.assign(n, kNone);
    out->co_pos.assign(n, kNone);
    out->ptw_src.assign(n, kNone);
    out->co_pa_pos.assign(n, kNone);
    sat::Solver& s = *solver;
    // The freeze_projection() templates resolve every guard to its
    // Tseitin literal (the compiler emits the full biconditional, so
    // the literal's model value is the circuit's) — the per-model loop
    // is flat array walks and O(1) model reads, no DAG re-walk and no
    // memo probe per guard.
    for (const TemplateEdge& e : ext_rf) {
        if (s.model_literal_true(e.lit)) {
            out->rf_src[e.a] = e.b;
        }
    }
    for (const TemplateEdge& e : ext_ptw) {
        if (s.model_literal_true(e.lit)) {
            out->ptw_src[e.a] = e.b;
        }
    }
    for (const EventId w : ext_write_like) {
        out->co_pos[w] = 0;
    }
    for (const TemplateEdge& e : ext_co) {
        if (s.model_literal_true(e.lit)) {
            ++out->co_pos[e.b];
        }
    }
    // co_pa pairs are map_pa-gated (pin-dependent) and Wpte events are
    // rare, so this stays a direct loop over memoized literals.
    auto lit_true = [&](ExprId ex) {
        if (ex == rel::kFalseExpr) {
            return false;
        }
        return s.model_literal_true(factory->compile(ex, &s));
    };
    for (EventId w = 0; w < n; ++w) {
        if (p.event(w).kind != EventKind::kWpte) {
            continue;
        }
        int predecessors = 0;
        for (EventId w2 = 0; w2 < n; ++w2) {
            if (w2 != w && p.event(w2).kind == EventKind::kWpte &&
                p.event(w2).map_pa == p.event(w).map_pa &&
                lit_true(co_pa.at(w2, w))) {
                ++predecessors;
            }
        }
        out->co_pa_pos[w] = predecessors;
    }
}

// ----------------------------------------------------------------------
// IncrementalEncoding: the live session over cached structure bases.
// ----------------------------------------------------------------------

namespace {

/// Default base-cache capacity (live base included). The skeleton
/// enumerator's late stages (rmw marking, linking variants) ping-pong
/// between a handful of neighbouring structures, so a small cache captures
/// nearly all revisits; each retained base owns a solver, so the cap also
/// bounds the session's memory.
constexpr int kDefaultBaseCacheCapacity = 8;

/// The swappable per-structure slice of a session: one built base — the
/// factory and solver it lives in (storage; the SelectorEncoding pointers
/// aim there), its structure key, and the deferred activation guards of
/// candidates already served from it. The base cache stashes whole
/// BaseStates and swaps one back in when the enumerator revisits a known
/// signature; storage is heap-allocated, so the pointers survive the swap.
struct BaseState : SelectorEncoding {
    std::unique_ptr<EncodingScratch> storage;  ///< null = never built

    std::vector<int> structure_key;  ///< empty = no base built in this slot
    std::uint64_t last_used = 0;     ///< session use-stamp (LRU eviction)

    /// Activation guards whose blocking clauses are live in this base.
    /// Retirement is deferred to the base's rebuild: within the base each
    /// is assumed false instead (after the pins, so the pin-prefix trail
    /// survives a candidate advance), which disables its clauses just as
    /// the unit assertion would — without the backtrack-to-root that
    /// asserting mid-session costs. Per-base, because the guards are
    /// variables of this base's solver.
    std::vector<sat::Lit> spent_acts;
};

}  // namespace

/// The session: configuration, the LIVE BaseState (inherited slice), the
/// stash of swapped-out bases, and the per-candidate buffers.
struct IncrementalEncoding::Impl : BaseState {
    // ------------------------------------------------------------------
    // Session configuration (set by configure()).
    // ------------------------------------------------------------------
    const Model* model = nullptr;
    const Axiom* axiom = nullptr;
    unsigned needs = 0;
    int vas = 1;
    int pas = 1;
    bool timing = false;
    /// Robustness configuration, applied (like timing) to every solver
    /// the session holds or later creates: 0 = no conflict budget; an
    /// empty interrupt = never interrupted.
    std::int64_t conflict_budget = 0;
    std::function<bool()> interrupt;
    std::function<void(std::uint64_t)> solve_observer;

    SessionStats stats;
    /// Counters of solvers this session destroyed (stash shrink,
    /// reconfiguration): folded here so lifetime_stats() never loses an
    /// epoch.
    sat::SolverStats retired_stats;

    // ------------------------------------------------------------------
    // Base cache: swapped-out bases, LRU-evicted past the capacity
    // (which counts the live base too). capacity <= 1 = no caching.
    // ------------------------------------------------------------------
    std::vector<BaseState> stash;
    int cache_capacity = kDefaultBaseCacheCapacity;
    std::uint64_t use_stamp = 0;

    std::vector<int> key_buf;

    // ------------------------------------------------------------------
    // Per-candidate buffers.
    // ------------------------------------------------------------------
    std::vector<sat::Lit> assumptions;
    std::vector<sat::Lit> block_buf;
    Execution current;

    /// Applies \p f to every solver the session holds: the live base's
    /// and every stashed base's.
    template <typename F>
    void
    each_solver(F&& f) const
    {
        if (storage != nullptr) {
            f(storage->solver);
        }
        for (const BaseState& slot : stash) {
            if (slot.storage != nullptr) {
                f(slot.storage->solver);
            }
        }
    }

    // ------------------------------------------------------------------
    // Structure key: everything about the program except VA assignment
    // and Wpte target PAs (those are pinned per candidate).
    // ------------------------------------------------------------------
    void
    compute_key(const Program& p, std::vector<int>* key) const
    {
        key->clear();
        key->push_back(p.num_events());
        key->push_back(p.num_threads());
        for (const Event& e : p.events()) {
            key->push_back(static_cast<int>(e.kind));
            key->push_back(e.thread);
            key->push_back(e.parent);
            key->push_back(e.remap_src);
        }
        key->push_back(static_cast<int>(p.rmw_pairs().size()));
        for (const auto& [r, w] : p.rmw_pairs()) {
            key->push_back(r);
            key->push_back(w);
        }
    }

    /// Permanently retires \p slot's spent guards (observability: this is
    /// where the retirement/retention counters accumulate) — called when
    /// the guards' clauses are about to die anyway at a solver reset.
    static void
    retire_spent_acts(BaseState* slot)
    {
        for (const sat::Lit act : slot->spent_acts) {
            slot->storage->solver.retire_activation(act);
        }
        slot->spent_acts.clear();
    }

    void
    build_base(const Program& p)
    {
        ++stats.bases_built;
        retire_spent_acts(this);
        build(p, model->vm_aware(), vas, pas, needs);
        if (axiom != nullptr) {
            factory->assert_true(factory->mk_not(axiom_circuit(p, *axiom)),
                                 solver);
        }
        freeze_projection(p);
    }

    /// Gives the live slice its own factory and solver, configured like
    /// every other solver of the session.
    void
    make_storage()
    {
        storage = std::make_unique<EncodingScratch>();
        factory = &storage->factory;
        solver = &storage->solver;
        solver->set_timing(timing);
        solver->set_conflict_budget(conflict_budget);
        solver->set_interrupt(interrupt);
        solver->set_solve_observer(solve_observer);
    }

    /// Permanently drops a base slot, folding its solver's lifetime
    /// counters into retired_stats first (after flushing the slot's
    /// deferred retirements, so the retention counters are complete).
    void
    fold_and_drop(BaseState* slot)
    {
        if (slot->storage != nullptr) {
            retire_spent_acts(slot);
            retired_stats.merge(slot->storage->solver.lifetime_stats());
        }
        *slot = BaseState();
    }

    /// Index of the least-recently-used stashed base.
    std::size_t
    lru_slot() const
    {
        std::size_t lru = 0;
        for (std::size_t i = 1; i < stash.size(); ++i) {
            if (stash[i].last_used < stash[lru].last_used) {
                lru = i;
            }
        }
        return lru;
    }

    /// Evicts least-recently-used stashed bases until the stash fits the
    /// capacity (minus one for the live base).
    void
    shrink_stash()
    {
        const int keep = std::max(cache_capacity - 1, 0);
        while (static_cast<int>(stash.size()) > keep) {
            const std::size_t lru = lru_slot();
            fold_and_drop(&stash[lru]);
            stash.erase(stash.begin() + static_cast<std::ptrdiff_t>(lru));
        }
    }

    /// Makes the base for key_buf's structure live: a cache hit swaps the
    /// frozen base back in untouched (its solver, learned clauses and
    /// projection templates resume where the structure was left); a miss
    /// stashes the live base and builds into a fresh or LRU-recycled slot.
    void
    switch_structure(const Program& p)
    {
        for (BaseState& slot : stash) {
            if (slot.structure_key == key_buf) {
                std::swap(static_cast<BaseState&>(*this), slot);
                ++stats.bases_reused;
                return;
            }
        }
        if (cache_capacity > 1 && !structure_key.empty()) {
            if (static_cast<int>(stash.size()) + 1 < cache_capacity) {
                // Stash the live base in a new slot; the live slice is now
                // empty and gets fresh storage below.
                stash.emplace_back();
                std::swap(static_cast<BaseState&>(*this), stash.back());
            } else {
                // Stash the live base into the LRU slot, recycling that
                // slot's storage (build() resets it) for the build.
                std::swap(static_cast<BaseState&>(*this), stash[lru_slot()]);
            }
        }
        if (storage == nullptr) {
            make_storage();
        }
        build_base(p);
        structure_key = key_buf;
    }
};

IncrementalEncoding::IncrementalEncoding() : impl_(std::make_unique<Impl>())
{
}

IncrementalEncoding::~IncrementalEncoding() = default;

IncrementalEncoding::IncrementalEncoding(IncrementalEncoding&&) noexcept =
    default;

IncrementalEncoding&
IncrementalEncoding::operator=(IncrementalEncoding&&) noexcept = default;

void
IncrementalEncoding::configure(const Model* model, std::string axiom_name,
                               int max_vas, int max_pas)
{
    TF_ASSERT(model != nullptr);
    Impl& im = *impl_;
    im.model = model;
    im.axiom = nullptr;
    if (!axiom_name.empty()) {
        im.axiom = model->axiom(axiom_name);
        TF_ASSERT(im.axiom != nullptr);
    }
    im.needs = im.axiom == nullptr ? 0u : needs_for(*im.axiom);
    im.vas = max_vas;
    im.pas = max_pas;
    if (im.storage != nullptr) {
        Impl::retire_spent_acts(&im);  // flush counters
    }
    im.structure_key.clear();  // drop any live base
    // Stale cached bases encode the previous model/axiom/bounds; drop them
    // (folding their counters) rather than risking a key collision.
    for (BaseState& slot : im.stash) {
        im.fold_and_drop(&slot);
    }
    im.stash.clear();
}

void
IncrementalEncoding::set_timing(bool enabled)
{
    impl_->timing = enabled;
    impl_->each_solver([&](sat::Solver& s) { s.set_timing(enabled); });
}

void
IncrementalEncoding::set_conflict_budget(std::int64_t budget)
{
    impl_->conflict_budget = budget;
    impl_->each_solver(
        [&](sat::Solver& s) { s.set_conflict_budget(budget); });
}

void
IncrementalEncoding::set_interrupt(std::function<bool()> poll)
{
    Impl& im = *impl_;
    im.interrupt = std::move(poll);
    im.each_solver([&](sat::Solver& s) { s.set_interrupt(im.interrupt); });
}

void
IncrementalEncoding::set_solve_observer(
    std::function<void(std::uint64_t)> observer)
{
    Impl& im = *impl_;
    im.solve_observer = std::move(observer);
    im.each_solver(
        [&](sat::Solver& s) { s.set_solve_observer(im.solve_observer); });
}

sat::SolverStats
IncrementalEncoding::lifetime_stats() const
{
    const Impl& im = *impl_;
    sat::SolverStats out = im.retired_stats;
    im.each_solver([&](sat::Solver& s) { out.merge(s.lifetime_stats()); });
    out.bases_built += im.stats.bases_built;
    out.bases_reused += im.stats.bases_reused;
    return out;
}

void
IncrementalEncoding::set_base_cache_capacity(int capacity)
{
    impl_->cache_capacity = std::max(capacity, 0);
    impl_->shrink_stash();
}

const IncrementalEncoding::SessionStats&
IncrementalEncoding::session_stats() const
{
    return impl_->stats;
}

bool
IncrementalEncoding::enumerate(const elt::Program& program,
                               const ExecutionVisitor& visit)
{
    Impl& im = *impl_;
    TF_ASSERT(im.model != nullptr);  // configure() first
    ++im.stats.candidates;

    im.compute_key(program, &im.key_buf);
    if (im.key_buf != im.structure_key) {
        im.switch_structure(program);
    }
    im.last_used = ++im.use_stamp;
    sat::Solver& solver = *im.solver;
    im.assumptions.clear();
    im.pins(program, &im.assumptions);

    im.current.program = program;
    // Disable every previous candidate's blocking clauses by assuming its
    // guard false. Placed after the pins: two candidates of one structure
    // always differ in some pin, so the planted-trail prefix the solver
    // reuses between them is bounded by the pins anyway, and the guard
    // levels re-establish for free (a false guard propagates nothing —
    // no stored clause contains it positively).
    for (const sat::Lit spent : im.spent_acts) {
        im.assumptions.push_back(~spent);
    }
    // Per-candidate activation guard, assumed LAST so it sits on the
    // deepest assumption level: blocking clauses carry ~act, and the
    // assumption-establishment machinery keeps act pinned true across
    // every backjump of the continued search.
    const sat::Lit act(solver.new_var(), false);
    im.assumptions.push_back(act);
    bool act_used = false;
    bool completed = true;
    bool have_template = false;
    sat::SolveResult verdict = solver.solve(im.assumptions);
    while (verdict == sat::SolveResult::kSat) {
        im.extract_into(program, &im.current);
        if (!visit(im.current)) {
            completed = false;  // the visitor stopped the enumeration
            break;
        }
        if (!have_template) {
            im.build_block_template(program);
            have_template = true;
        }
        const obs::ScopedAllocSite alloc_site(
            obs::AllocSite::kSiteBlockingClause);
        im.blocking_clause(&im.block_buf);
        if (im.block_buf.empty()) {
            break;  // no projection variables: the single model is it
        }
        act_used = true;
        im.block_buf.push_back(~act);
        verdict = solver.block_and_resolve(
            im.block_buf.data(), im.block_buf.size(), im.assumptions);
    }
    if (act_used) {
        // Deferred retirement: the guard joins the assumed-false set for
        // the structure's remaining candidates and is permanently retired
        // at the next base rebuild. Asserting the unit clause here would
        // backtrack the solver to the root, throwing away the pin-prefix
        // trail the next candidate reuses. Guards that never made it into
        // a clause are simply abandoned (recycled wholesale at the next
        // base rebuild).
        im.spent_acts.push_back(act);
    }
    if (verdict == sat::SolveResult::kUnknown) {
        // The guard was parked above, so the session stays consistent
        // whether the caller retries (fresh session after a shard fault)
        // or unwinds (cancellation).
        if (solver.unknown_cause() == sat::UnknownCause::kConflictBudget) {
            throw sat::BudgetExhausted();
        }
        completed = false;  // interrupted: partial, caller discards it
    }
    return completed;
}

}  // namespace transform::mtm
