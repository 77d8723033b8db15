/// \file
/// Hand-written reference verdicts for the paper's three models, kept for
/// tests only: the C++ closures the library judged these models with
/// before every model became a compiled `.mtm` specification. Tests hold
/// the compiled x86tso, x86t_elt and sc_t_elt (both backends) to these on
/// every fixture execution — an oracle written independently of the DSL,
/// its evaluator and its circuits.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/execution.h"
#include "util/logging.h"

namespace transform::testing {

/// One reference axiom: its name and a closure that is true when the
/// axiom HOLDS on the derived relations of a well-formed execution.
struct ReferenceAxiom {
    std::string name;
    std::function<bool(const elt::Program&, const elt::DerivedRelations&)>
        holds;
};

namespace detail {

inline bool
acyclic(const elt::Program& p,
        std::initializer_list<const elt::EdgeSet*> parts)
{
    return !elt::has_cycle(p.num_events(), parts, nullptr);
}

/// sc_per_loc: acyclic(rf + co + fr + po_loc).
inline ReferenceAxiom
sc_per_loc()
{
    return {"sc_per_loc",
            [](const elt::Program& p, const elt::DerivedRelations& d) {
                return acyclic(p, {&d.rf, &d.co, &d.fr, &d.po_loc});
            }};
}

/// rmw_atomicity: fr.co does not intersect rmw.
inline ReferenceAxiom
rmw_atomicity()
{
    return {"rmw_atomicity",
            [](const elt::Program&, const elt::DerivedRelations& d) {
                for (const auto& [r, w] : d.rmw) {
                    // Does some w' exist with fr(r, w') and co(w', w)?
                    for (const auto& [fr_from, fr_to] : d.fr) {
                        if (fr_from != r) {
                            continue;
                        }
                        for (const auto& [co_from, co_to] : d.co) {
                            if (co_from == fr_to && co_to == w) {
                                return false;
                            }
                        }
                    }
                }
                return true;
            }};
}

/// causality: acyclic(rfe + co + fr + ppo + fence); the SC variant adds
/// back the write->read pairs of the extended order that TSO's ppo drops.
inline ReferenceAxiom
causality(bool sequential_ppo)
{
    return {"causality",
            [sequential_ppo](const elt::Program& p,
                             const elt::DerivedRelations& d) {
                if (!sequential_ppo) {
                    return acyclic(p, {&d.rfe, &d.co, &d.fr, &d.ppo,
                                       &d.fence});
                }
                elt::EdgeSet full(d.ppo.begin(), d.ppo.end());
                for (elt::EventId a = 0; a < p.num_events(); ++a) {
                    for (elt::EventId b = 0; b < p.num_events(); ++b) {
                        if (a != b && elt::is_memory(p.event(a).kind) &&
                            elt::is_memory(p.event(b).kind) &&
                            p.precedes(a, b) &&
                            elt::is_write_like(p.event(a).kind) &&
                            elt::is_read_like(p.event(b).kind)) {
                            full.emplace_back(a, b);
                        }
                    }
                }
                return acyclic(p, {&d.rfe, &d.co, &d.fr, &full, &d.fence});
            }};
}

/// invlpg: acyclic(fr_va + ^po + remap).
inline ReferenceAxiom
invlpg()
{
    return {"invlpg",
            [](const elt::Program& p, const elt::DerivedRelations& d) {
                return acyclic(p, {&d.fr_va, &d.po, &d.remap});
            }};
}

/// tlb_causality: acyclic(ptw_source + rf + co + fr).
inline ReferenceAxiom
tlb_causality()
{
    return {"tlb_causality",
            [](const elt::Program& p, const elt::DerivedRelations& d) {
                return acyclic(p, {&d.ptw_source, &d.rf, &d.co, &d.fr});
            }};
}

}  // namespace detail

/// The reference axioms of "x86tso", "x86t_elt" or "sc_t_elt", in the
/// models' axiom order.
inline std::vector<ReferenceAxiom>
reference_axioms(const std::string& model)
{
    if (model == "x86tso") {
        return {detail::sc_per_loc(), detail::rmw_atomicity(),
                detail::causality(false)};
    }
    const bool sc = model == "sc_t_elt";
    TF_ASSERT(sc || model == "x86t_elt");
    return {detail::sc_per_loc(), detail::rmw_atomicity(),
            detail::causality(sc), detail::invlpg(), detail::tlb_causality()};
}

/// Names of the reference axioms violated by a well-formed execution with
/// derived relations \p d, in axiom order.
inline std::vector<std::string>
reference_violations(const std::string& model, const elt::Program& program,
                     const elt::DerivedRelations& d)
{
    std::vector<std::string> violated;
    for (const ReferenceAxiom& axiom : reference_axioms(model)) {
        if (!axiom.holds(program, d)) {
            violated.push_back(axiom.name);
        }
    }
    return violated;
}

}  // namespace transform::testing
