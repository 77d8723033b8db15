#include "mtm/model.h"

#include <optional>

#include "spec/compile.h"
#include "spec/printer.h"
#include "spec/registry.h"
#include "util/logging.h"

namespace transform::mtm {

Model::Model(std::shared_ptr<const spec::CompiledModel> compiled)
    : name_(compiled->spec.name),
      vm_aware_(compiled->spec.vm),
      compiled_(std::move(compiled))
{
    TF_ASSERT(static_cast<int>(compiled_->spec.axioms.size()) <= kMaxAxioms);
    axioms_.reserve(compiled_->spec.axioms.size());
    for (const spec::AxiomDef& def : compiled_->spec.axioms) {
        // Alias the compiled model so one control block owns every AST.
        axioms_.push_back(
            {def.name,
             def.description.empty()
                 ? std::string(spec::axiom_form_name(def.form)) + "(" +
                       spec::expr_to_source(*def.expr) + ")"
                 : def.description,
             std::shared_ptr<const spec::AxiomDef>(compiled_, &def)});
    }
}

const spec::ModelSpec&
Model::spec() const
{
    return compiled_->spec;
}

const Axiom*
Model::axiom(const std::string& name) const
{
    for (const Axiom& a : axioms_) {
        if (a.name == name) {
            return &a;
        }
    }
    return nullptr;
}

int
Model::axiom_index(const std::string& name) const
{
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        if (axioms_[i].name == name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

AxiomMask
Model::violated_mask(const elt::Program& program,
                     const elt::DerivedRelations& d,
                     elt::CycleScratch* scratch) const
{
    std::optional<elt::CycleScratch> local;
    if (scratch == nullptr) {
        scratch = &local.emplace();
    }
    AxiomMask mask = 0;
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        if (!spec::axiom_holds(compiled_->plans[i], program, d, scratch)) {
            mask |= AxiomMask{1} << i;
        }
    }
    return mask;
}

std::vector<std::string>
Model::mask_names(AxiomMask mask) const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < axioms_.size(); ++i) {
        if (mask & (AxiomMask{1} << i)) {
            out.push_back(axioms_[i].name);
        }
    }
    return out;
}

std::vector<std::string>
Model::violated_axioms(const elt::Program& program,
                       const elt::DerivedRelations& d) const
{
    return mask_names(violated_mask(program, d));
}

std::vector<std::string>
Model::violated_axioms(const elt::Execution& e) const
{
    const elt::DerivedRelations d = elt::derive(e, derive_options());
    if (!d.well_formed) {
        return {"well_formed"};
    }
    return violated_axioms(e.program, d);
}

const Model&
x86tso()
{
    static const Model& model = *spec::registry_model("x86tso.mtm");
    return model;
}

const Model&
x86t_elt()
{
    static const Model& model = *spec::registry_model("x86t_elt.mtm");
    return model;
}

const Model&
sc_t_elt()
{
    static const Model& model = *spec::registry_model("sc_t_elt.mtm");
    return model;
}

std::vector<std::string>
x86t_elt_axiom_names()
{
    return {"sc_per_loc", "rmw_atomicity", "causality", "invlpg",
            "tlb_causality"};
}

}  // namespace transform::mtm
