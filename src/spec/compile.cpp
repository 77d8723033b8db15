#include "spec/compile.h"

#include <memory>

#include "util/logging.h"

namespace transform::spec {

mtm::Model
compile_model(const ModelSpec& spec)
{
    TF_ASSERT(static_cast<int>(spec.axioms.size()) <= mtm::kMaxAxioms);
    auto compiled = std::make_shared<CompiledModel>();
    compiled->spec = spec;
    compiled->plans.reserve(spec.axioms.size());
    for (const AxiomDef& def : compiled->spec.axioms) {
        compiled->plans.push_back(plan_axiom(def));
    }
    return mtm::Model(std::move(compiled));
}

}  // namespace transform::spec
