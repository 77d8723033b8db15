#include "spec/eval.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>

#include "util/logging.h"

namespace transform::spec {

using elt::CycleScratch;
using elt::DerivedRelations;
using elt::Edge;
using elt::EdgeSet;
using elt::EventId;
using elt::EventKind;
using elt::Program;

bool
event_in_set(EventSet set, EventKind kind)
{
    switch (set) {
    case EventSet::kRead:
        return elt::is_read_like(kind);
    case EventSet::kWrite:
        return elt::is_write_like(kind);
    case EventSet::kMemory:
        return elt::is_memory(kind);
    case EventSet::kData:
        return elt::is_data_access(kind);
    case EventSet::kPte:
        return elt::is_pte_access(kind);
    case EventSet::kFence:
        return kind == EventKind::kMfence;
    case EventSet::kWpte:
        return kind == EventKind::kWpte;
    case EventSet::kInvlpg:
        return elt::is_tlb_invalidation(kind);
    case EventSet::kRptw:
        return kind == EventKind::kRptw;
    case EventSet::kWdb:
        return kind == EventKind::kWdb;
    case EventSet::kRdb:
        return kind == EventKind::kRdb;
    case EventSet::kGhost:
        return elt::is_ghost(kind);
    case EventSet::kUser:
        return elt::is_user(kind);
    }
    TF_PANIC("unknown event set");
}

namespace {

using Field = AxiomPlan::Field;

/// The DerivedRelations field storing \p base; null for po_mem, which no
/// field stores.
Field
field_of(BaseRel base)
{
    switch (base) {
    case BaseRel::kPo: return &DerivedRelations::po;
    case BaseRel::kPoLoc: return &DerivedRelations::po_loc;
    case BaseRel::kRf: return &DerivedRelations::rf;
    case BaseRel::kRfe: return &DerivedRelations::rfe;
    case BaseRel::kCo: return &DerivedRelations::co;
    case BaseRel::kFr: return &DerivedRelations::fr;
    case BaseRel::kPpo: return &DerivedRelations::ppo;
    case BaseRel::kFence: return &DerivedRelations::fence;
    case BaseRel::kRmw: return &DerivedRelations::rmw;
    case BaseRel::kGhost: return &DerivedRelations::ghost;
    case BaseRel::kRfPtw: return &DerivedRelations::rf_ptw;
    case BaseRel::kRfPa: return &DerivedRelations::rf_pa;
    case BaseRel::kCoPa: return &DerivedRelations::co_pa;
    case BaseRel::kFrPa: return &DerivedRelations::fr_pa;
    case BaseRel::kFrVa: return &DerivedRelations::fr_va;
    case BaseRel::kRemap: return &DerivedRelations::remap;
    case BaseRel::kPtwSource: return &DerivedRelations::ptw_source;
    case BaseRel::kPoMem: return nullptr;
    }
    TF_PANIC("unknown base relation");
}

/// \p base's edges in \p d; null for po_mem.
const EdgeSet*
base_field(const DerivedRelations& d, BaseRel base)
{
    const Field field = field_of(base);
    return field == nullptr ? nullptr : &(d.*field);
}

/// po_mem, synthesized from the program: the extended-order pairs over
/// memory events, generated sorted and duplicate-free into \p out.
void
po_mem_into(const Program& p, EdgeSet* out)
{
    out->clear();
    const int n = p.num_events();
    for (EventId a = 0; a < n; ++a) {
        if (!elt::is_memory(p.event(a).kind)) {
            continue;
        }
        for (EventId b = 0; b < n; ++b) {
            if (a != b && elt::is_memory(p.event(b).kind) &&
                p.precedes(a, b)) {
                out->emplace_back(a, b);
            }
        }
    }
}

/// Pool-slot handles are indices: CycleScratch::spec_pool may reallocate
/// while children evaluate, so references must be re-fetched through the
/// evaluator after any acquire.
using Slot = std::size_t;

struct Evaluator {
    const Program& p;
    const DerivedRelations& d;
    CycleScratch& scratch;
    const int n;

    static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

    /// Pinned results for `let` bodies, keyed by body node. The AST is a
    /// DAG only through lets (the parser shares each body across its
    /// references), so evaluating every distinct body once — pinned below
    /// the expression stack, copied on reference — makes evaluation linear
    /// in the DAG instead of exponential in the let-chain depth.
    std::size_t
    pinned_slot(const Expr* body) const
    {
        for (const auto& [key, slot] : scratch.spec_memo) {
            if (key == body) {
                return slot;
            }
        }
        return kNoSlot;
    }

    /// Evaluates and pins \p bodies in order (collect_let_bodies order, so
    /// every body finds the lets it references already pinned). Each
    /// pinned slot stays live until the caller unwinds the arena.
    void
    pin(const std::vector<const Expr*>& bodies)
    {
        for (const Expr* body : bodies) {
            const Slot slot = eval(*body);
            scratch.spec_memo.emplace_back(body, slot);
        }
    }

    Slot
    acquire()
    {
        if (scratch.spec_pool_live == scratch.spec_pool.size()) {
            scratch.spec_pool.emplace_back();
        }
        const Slot slot = scratch.spec_pool_live++;
        scratch.spec_pool[slot].clear();
        return slot;
    }

    EdgeSet&
    at(Slot slot)
    {
        return scratch.spec_pool[slot];
    }

    void
    release_to(Slot mark)
    {
        scratch.spec_pool_live = mark;
    }

    static void
    normalize(EdgeSet* edges)
    {
        std::sort(edges->begin(), edges->end());
        edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
    }

    /// The base relation's edges, sorted.
    void
    base_into(BaseRel base, EdgeSet* out)
    {
        const EdgeSet* source = base_field(d, base);
        if (source == nullptr) {
            po_mem_into(p, out);
            return;
        }
        out->assign(source->begin(), source->end());
        normalize(out);
    }

    /// True when \p e is a base relation (possibly behind lets) whose
    /// derived field is empty — an `&` or `;` with such an operand is empty
    /// without evaluating the other side (rmw, say, is empty in most
    /// programs).
    bool
    empty_base(const Expr* e) const
    {
        while (e->op == ExprOp::kLetRef) {
            e = e->lhs.get();
        }
        if (e->op != ExprOp::kBase) {
            return false;
        }
        const EdgeSet* source = base_field(d, e->base);
        return source != nullptr && source->empty();
    }

    /// Evaluates \p e into a freshly acquired slot and returns it. Child
    /// slots are released before returning, so the live-slot high-water
    /// mark tracks expression depth, not node count.
    Slot
    eval(const Expr& e)
    {
        switch (e.op) {
        case ExprOp::kBase: {
            const Slot out = acquire();
            base_into(e.base, &at(out));
            return out;
        }
        case ExprOp::kEmpty:
            return acquire();
        case ExprOp::kIdSet: {
            const Slot out = acquire();
            for (EventId a = 0; a < n; ++a) {
                if (event_in_set(e.set, p.event(a).kind)) {
                    at(out).emplace_back(a, a);
                }
            }
            return out;
        }
        case ExprOp::kUnion: {
            const Slot lhs = eval(*e.lhs);
            const Slot rhs = eval(*e.rhs);
            const Slot out = acquire();
            std::set_union(at(lhs).begin(), at(lhs).end(), at(rhs).begin(),
                           at(rhs).end(), std::back_inserter(at(out)));
            collapse(lhs, out);
            return lhs;
        }
        case ExprOp::kIntersect: {
            if (empty_base(e.lhs.get()) || empty_base(e.rhs.get())) {
                return acquire();
            }
            const Slot lhs = eval(*e.lhs);
            const Slot rhs = eval(*e.rhs);
            const Slot out = acquire();
            std::set_intersection(at(lhs).begin(), at(lhs).end(),
                                  at(rhs).begin(), at(rhs).end(),
                                  std::back_inserter(at(out)));
            collapse(lhs, out);
            return lhs;
        }
        case ExprOp::kMinus: {
            const Slot lhs = eval(*e.lhs);
            const Slot rhs = eval(*e.rhs);
            const Slot out = acquire();
            std::set_difference(at(lhs).begin(), at(lhs).end(),
                                at(rhs).begin(), at(rhs).end(),
                                std::back_inserter(at(out)));
            collapse(lhs, out);
            return lhs;
        }
        case ExprOp::kJoin: {
            if (empty_base(e.lhs.get()) || empty_base(e.rhs.get())) {
                return acquire();
            }
            const Slot lhs = eval(*e.lhs);
            const Slot rhs = eval(*e.rhs);
            const Slot out = acquire();
            join_into(at(lhs), at(rhs), &at(out));
            collapse(lhs, out);
            return lhs;
        }
        case ExprOp::kTranspose: {
            const Slot inner = eval(*e.lhs);
            const Slot out = acquire();
            for (const Edge& edge : at(inner)) {
                at(out).emplace_back(edge.second, edge.first);
            }
            normalize(&at(out));
            collapse(inner, out);
            return inner;
        }
        case ExprOp::kClosure: {
            const Slot inner = eval(*e.lhs);
            closure_in_place(inner);
            return inner;
        }
        case ExprOp::kReflexiveClosure: {
            const Slot inner = eval(*e.lhs);
            closure_in_place(inner);
            const Slot ident = acquire();
            for (EventId a = 0; a < n; ++a) {
                at(ident).emplace_back(a, a);
            }
            const Slot out = acquire();
            std::set_union(at(inner).begin(), at(inner).end(),
                           at(ident).begin(), at(ident).end(),
                           std::back_inserter(at(out)));
            collapse(inner, out);
            return inner;
        }
        case ExprOp::kLetRef: {
            const std::size_t pinned = pinned_slot(e.lhs.get());
            if (pinned != kNoSlot) {
                const Slot out = acquire();
                at(out) = at(pinned);
                return out;
            }
            // Unpinned bodies only occur when eval is entered without the
            // pin pass (never through the public entry points).
            return eval(*e.lhs);
        }
        }
        TF_PANIC("unknown expression op");
    }

    /// Moves \p out's contents down into \p dst and releases every slot
    /// above dst — the stack discipline that bounds live slots by depth.
    void
    collapse(Slot dst, Slot out)
    {
        std::swap(at(dst), at(out));
        release_to(dst + 1);
    }

    /// (lhs ; rhs)(a, c) = exists b: lhs(a, b) and rhs(b, c). Both inputs
    /// sorted; rhs rows are located by binary search, the result is
    /// re-normalized once.
    static void
    join_into(const EdgeSet& lhs, const EdgeSet& rhs, EdgeSet* out)
    {
        for (const Edge& l : lhs) {
            auto it = std::lower_bound(
                rhs.begin(), rhs.end(), Edge(l.second, 0),
                [](const Edge& a, const Edge& b) { return a.first < b.first; });
            for (; it != rhs.end() && it->first == l.second; ++it) {
                out->emplace_back(l.first, it->second);
            }
        }
        normalize(out);
    }

    /// Transitive closure by fixpoint: union in (cur ; base) until the edge
    /// count stops growing. Bounded by n iterations (longest simple path).
    void
    closure_in_place(Slot slot)
    {
        const Slot base = acquire();
        at(base) = at(slot);
        const Slot step = acquire();
        for (;;) {
            at(step).clear();
            join_into(at(slot), at(base), &at(step));
            const std::size_t before = at(slot).size();
            const Slot merged = acquire();
            std::set_union(at(slot).begin(), at(slot).end(), at(step).begin(),
                           at(step).end(), std::back_inserter(at(merged)));
            std::swap(at(slot), at(merged));
            release_to(step + 1);
            if (at(slot).size() == before) {
                break;
            }
        }
        release_to(base);
    }
};

/// Appends the distinct let bodies under \p e to \p out, each after the
/// bodies it references. Skips bodies already listed, so the walk is
/// linear in the DAG.
void
collect_let_bodies(const Expr& e, std::vector<const Expr*>* out)
{
    if (e.op == ExprOp::kLetRef) {
        const Expr* body = e.lhs.get();
        if (std::find(out->begin(), out->end(), body) == out->end()) {
            collect_let_bodies(*body, out);
            out->push_back(body);
        }
        return;
    }
    if (e.lhs != nullptr) {
        collect_let_bodies(*e.lhs, out);
    }
    if (e.rhs != nullptr) {
        collect_let_bodies(*e.rhs, out);
    }
}

/// Appends the field of every base relation of a union of base relations
/// (through lets and `0`) to \p plan's union fields, each once; false when
/// \p e has any other shape.
bool
flatten_union(const Expr& e, AxiomPlan* plan)
{
    switch (e.op) {
    case ExprOp::kBase: {
        const Field field = field_of(e.base);
        const auto end = plan->union_fields.begin() + plan->union_count;
        if (std::find(plan->union_fields.begin(), end, field) == end) {
            plan->union_fields[plan->union_count++] = field;
        }
        return true;
    }
    case ExprOp::kEmpty:
        return true;
    case ExprOp::kUnion:
        return flatten_union(*e.lhs, plan) && flatten_union(*e.rhs, plan);
    case ExprOp::kLetRef:
        return flatten_union(*e.lhs, plan);
    default:
        return false;
    }
}

/// The base relations any one of which, when empty, makes \p e empty, as
/// a bitset over BaseRel. Let bodies are memoized in \p memo, so the walk
/// is linear in the DAG.
std::uint32_t
empty_guards(const Expr& e,
             std::vector<std::pair<const Expr*, std::uint32_t>>* memo)
{
    switch (e.op) {
    case ExprOp::kBase:
        return e.base == BaseRel::kPoMem
                   ? 0
                   : std::uint32_t{1} << static_cast<int>(e.base);
    case ExprOp::kIntersect:
    case ExprOp::kJoin:
        return empty_guards(*e.lhs, memo) | empty_guards(*e.rhs, memo);
    case ExprOp::kUnion:
        return empty_guards(*e.lhs, memo) & empty_guards(*e.rhs, memo);
    case ExprOp::kMinus:
    case ExprOp::kTranspose:
    case ExprOp::kClosure:
        return empty_guards(*e.lhs, memo);
    case ExprOp::kLetRef: {
        for (const auto& [body, guards] : *memo) {
            if (body == e.lhs.get()) {
                return guards;
            }
        }
        const std::uint32_t guards = empty_guards(*e.lhs, memo);
        memo->emplace_back(e.lhs.get(), guards);
        return guards;
    }
    case ExprOp::kEmpty:
    case ExprOp::kIdSet:
    case ExprOp::kReflexiveClosure:
        return 0;
    }
    TF_PANIC("unknown expression op");
}

/// Restores the arena marks taken on entry, whatever the exit path.
struct ArenaMark {
    CycleScratch& scratch;
    const std::size_t live = scratch.spec_pool_live;
    const std::size_t memo = scratch.spec_memo.size();

    ~ArenaMark()
    {
        scratch.spec_memo.resize(memo);
        scratch.spec_pool_live = live;
    }
};

}  // namespace

AxiomPlan
plan_axiom(const AxiomDef& def)
{
    AxiomPlan plan;
    plan.def = &def;
    plan.flat_union = def.form == AxiomForm::kAcyclic &&
                      flatten_union(*def.expr, &plan);
    if (!plan.flat_union) {
        plan.union_count = 0;
        std::vector<std::pair<const Expr*, std::uint32_t>> memo;
        for (std::uint32_t guards = empty_guards(*def.expr, &memo);
             guards != 0; guards &= guards - 1) {
            plan.guard_fields[plan.guard_count++] =
                field_of(static_cast<BaseRel>(std::countr_zero(guards)));
        }
        collect_let_bodies(*def.expr, &plan.let_bodies);
    }
    return plan;
}

bool
axiom_holds(const AxiomPlan& plan, const Program& program,
            const DerivedRelations& d, CycleScratch* scratch)
{
    const int n = program.num_events();
    if (plan.flat_union) {
        // The fields go to has_cycle as they are; only po_mem, which no
        // field stores, is materialized.
        const EdgeSet* parts[kNumBaseRels];
        EdgeSet local_po_mem;
        for (int i = 0; i < plan.union_count; ++i) {
            const Field field = plan.union_fields[i];
            if (field != nullptr) {
                parts[i] = &(d.*field);
                continue;
            }
            EdgeSet* po_mem =
                scratch != nullptr ? &scratch->po_mem : &local_po_mem;
            po_mem_into(program, po_mem);
            parts[i] = po_mem;
        }
        return !elt::has_cycle(n, parts, plan.union_count, scratch);
    }
    // The empty relation satisfies every form.
    for (int i = 0; i < plan.guard_count; ++i) {
        if ((d.*plan.guard_fields[i]).empty()) {
            return true;
        }
    }
    std::optional<CycleScratch> local;
    if (scratch == nullptr) {
        scratch = &local.emplace();
    }
    const ArenaMark mark{*scratch};
    Evaluator eval{program, d, *scratch, n};
    eval.pin(plan.let_bodies);
    const EdgeSet& result = eval.at(eval.eval(*plan.def->expr));
    switch (plan.def->form) {
    case AxiomForm::kAcyclic: {
        const EdgeSet* parts[] = {&result};
        return !elt::has_cycle(n, parts, 1, scratch);
    }
    case AxiomForm::kIrreflexive:
        return std::none_of(result.begin(), result.end(), [](const Edge& e) {
            return e.first == e.second;
        });
    case AxiomForm::kEmpty:
        return result.empty();
    }
    TF_PANIC("unknown axiom form");
}

void
eval_expr(const Expr& expr, const Program& program,
          const DerivedRelations& d, CycleScratch* scratch, EdgeSet* out)
{
    std::optional<CycleScratch> local;
    if (scratch == nullptr) {
        scratch = &local.emplace();
    }
    const ArenaMark mark{*scratch};
    Evaluator eval{program, d, *scratch, program.num_events()};
    std::vector<const Expr*> bodies;
    collect_let_bodies(expr, &bodies);
    eval.pin(bodies);
    *out = eval.at(eval.eval(expr));
}

}  // namespace transform::spec
