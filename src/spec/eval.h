/// \file
/// The concrete interpreter for `.mtm` axioms: evaluates a relational
/// expression over one candidate execution's elt::DerivedRelations and
/// decides the axiom's condition (acyclic / irreflexive / empty).
///
/// Every model — the paper's three included — is judged here, on the
/// synthesis engine's per-candidate hot path, so the evaluator is
/// scratch-threaded and allocation-conscious: every intermediate edge set
/// comes from the CycleScratch::spec_pool arena (capacity kept across
/// evaluations), and a null scratch falls back to a local one. Edge sets
/// are kept sorted and duplicate-free throughout, so the set algebra is
/// linear merges and the join is a binary-search sweep.
///
/// Each axiom is lowered once, when its model is compiled, into an
/// AxiomPlan. The common shape — `acyclic` over a union of base relations,
/// possibly through `let`s — becomes a fixed list of DerivedRelations
/// fields handed straight to elt::has_cycle, with no edge-set algebra at
/// all; every other axiom walks its expression.
#pragma once

#include <array>
#include <vector>

#include "elt/derive.h"
#include "elt/execution.h"
#include "spec/ast.h"

namespace transform::spec {

/// True when \p event's kind belongs to \p set — the single definition both
/// compilers (concrete and symbolic) share.
bool event_in_set(EventSet set, elt::EventKind kind);

/// One axiom lowered for the concrete evaluator. Holds pointers into the
/// AxiomDef's expression DAG: the plan must not outlive the spec it was
/// built from.
struct AxiomPlan {
    /// A base relation's DerivedRelations field; null stands for po_mem,
    /// which no field stores.
    using Field = elt::EdgeSet elt::DerivedRelations::*;

    const AxiomDef* def = nullptr;
    /// The distinct `let` bodies under the condition, each after the
    /// bodies it references: evaluated once and pinned, in this order,
    /// before the condition itself.
    std::vector<const Expr*> let_bodies;
    /// True when the axiom is `acyclic` over a union of base relations
    /// (through lets): the condition is then has_cycle over the first
    /// `union_count` fields, each relation once, in source order.
    bool flat_union = false;
    int union_count = 0;
    std::array<Field, kNumBaseRels> union_fields{};
    /// Otherwise, relations any one of which, when empty, makes the whole
    /// condition empty — and the axiom hold — before any evaluation (`fr`,
    /// `co` and `rmw` in `(fr ; co) & rmw`, for one).
    int guard_count = 0;
    std::array<Field, kNumBaseRels> guard_fields{};
};

/// Lowers \p def (which must outlive the plan).
AxiomPlan plan_axiom(const AxiomDef& def);

/// True when the planned axiom's condition HOLDS on the derived relations
/// of one well-formed execution. \p scratch may be null (a local scratch is
/// used); passing the worker's scratch makes repeated evaluations
/// allocation-free.
bool axiom_holds(const AxiomPlan& plan, const elt::Program& program,
                 const elt::DerivedRelations& d,
                 elt::CycleScratch* scratch);

/// Materializes the expression's edge set (sorted, duplicate-free) into
/// \p out by walking it — the generic evaluator, and the debugging /
/// testing entry point.
void eval_expr(const Expr& expr, const elt::Program& program,
               const elt::DerivedRelations& d, elt::CycleScratch* scratch,
               elt::EdgeSet* out);

}  // namespace transform::spec
