/// \file
/// Compiles a parsed `.mtm` specification into an mtm::Model whose axioms
/// run on BOTH execution-space backends:
///  - concretely, through the evaluation plan spec/eval.h builds for each
///    axiom once, here (the enumerative backend and the minimality judge
///    evaluate it millions of times);
///  - symbolically, because each Axiom carries its AxiomDef and the SAT
///    encoder lowers that AST to rel::RelExpr circuits generically
///    (mtm/incremental.cpp).
#pragma once

#include <vector>

#include "mtm/model.h"
#include "spec/ast.h"
#include "spec/eval.h"

namespace transform::spec {

/// A specification and its axioms' evaluation plans: the immutable state
/// every copy of a Model shares. The plans point into `spec`.
struct CompiledModel {
    ModelSpec spec;
    std::vector<AxiomPlan> plans;  ///< one per spec.axioms entry, in order
};

/// Builds the Model for \p spec. Axiom order follows the file.
mtm::Model compile_model(const ModelSpec& spec);

}  // namespace transform::spec
