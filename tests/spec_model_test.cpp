/// \file
/// Semantic cross-checks for the `.mtm` compilers against hand-written
/// reference axioms (tests/reference_axioms.h): the concrete interpreter
/// must return the reference verdict for the paper's three models on EVERY
/// well-formed execution of the paper's fixture programs, and the symbolic
/// lowering must enumerate exactly the reference's violating execution
/// spaces through the SAT backend. Plus unit coverage for the expression
/// algebra, the evaluation plans and the printers.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "mtm/encoding.h"
#include "mtm/model.h"
#include "mtm/spec_printer.h"
#include "reference_axioms.h"
#include "spec/compile.h"
#include "spec/eval.h"
#include "spec/parser.h"
#include "spec/printer.h"
#include "spec/registry.h"
#include "synth/exec_enum.h"

namespace transform::spec {
namespace {

using elt::EdgeSet;
using elt::Execution;

mtm::Model
zoo_model(const std::string& name)
{
    std::string error;
    const auto resolved = resolve_model(name, &error);
    EXPECT_TRUE(resolved.has_value()) << error;
    return resolved->model;
}

/// Names of the violated axioms, sorted (mask order == axiom order for
/// both models, but sorting keeps the comparison shape-agnostic).
std::vector<std::string>
sorted_violations(const mtm::Model& model, const Execution& e)
{
    std::vector<std::string> violated = model.violated_axioms(e);
    std::sort(violated.begin(), violated.end());
    return violated;
}

Execution (*const kFixtures[])() = {
    elt::fixtures::fig2a_sb_mcm,
    elt::fixtures::sb_both_reads_zero_mcm,
    elt::fixtures::fig2b_sb_elt,
    elt::fixtures::fig2c_sb_elt_aliased,
    elt::fixtures::fig4_remap_chain,
    elt::fixtures::fig5a_shared_walk,
    elt::fixtures::fig5b_invlpg_forces_walk,
    elt::fixtures::fig6_remap_disambiguation,
    elt::fixtures::fig8_non_minimal_mcm,
    elt::fixtures::fig10a_ptwalk2,
    elt::fixtures::fig10b_dirtybit3,
    elt::fixtures::fig11_new_elt,
};

/// Every well-formed execution of every fixture program, each derived in
/// its fixture's own mode (so the MCM x86tso is judged on VM executions
/// too, where its axioms read the same relations): the compiled model and
/// the reference closures agree on the exact violation set.
void
expect_reference_agreement(const mtm::Model& model)
{
    int compared = 0;
    for (const auto fixture : kFixtures) {
        const Execution fixed = fixture();
        const bool vm = !fixed.program.validate(false).empty();
        synth::for_each_execution(fixed.program, vm, [&](const Execution& e) {
            const elt::DerivedRelations d = elt::derive(e, {vm});
            EXPECT_TRUE(d.well_formed);
            EXPECT_EQ(model.violated_axioms(e.program, d),
                      testing::reference_violations(model.name(), e.program,
                                                    d));
            ++compared;
            return true;
        });
    }
    // The sweep must have exercised real executions, not vacuously passed.
    EXPECT_GT(compared, 100);
}

TEST(SpecReference, X86TsoConcreteVerdictsMatchTheReference)
{
    expect_reference_agreement(mtm::x86tso());
}

TEST(SpecReference, X86tEltConcreteVerdictsMatchTheReference)
{
    expect_reference_agreement(mtm::x86t_elt());
}

TEST(SpecReference, ScTEltConcreteVerdictsMatchTheReference)
{
    expect_reference_agreement(mtm::sc_t_elt());
}

TEST(SpecReference, ScratchAndScratchlessEvaluationAgree)
{
    const mtm::Model& model = mtm::x86t_elt();
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    const elt::DerivedRelations d = elt::derive(e, model.derive_options());
    ASSERT_TRUE(d.well_formed);
    elt::CycleScratch scratch;
    for (const mtm::Axiom& axiom : model.axioms()) {
        const AxiomPlan plan = plan_axiom(*axiom.def);
        const bool with = axiom_holds(plan, e.program, d, &scratch);
        const bool without = axiom_holds(plan, e.program, d, nullptr);
        EXPECT_EQ(with, without) << axiom.name;
        // The arena must balance: everything acquired was released.
        EXPECT_EQ(scratch.spec_pool_live, 0u) << axiom.name;
        EXPECT_TRUE(scratch.spec_memo.empty()) << axiom.name;
    }
}

/// The symbolic lowering agrees with the reference: per axiom, the SAT
/// backend enumerates exactly the executions the reference closures find
/// violating (same count, and every enumerated one violates it).
void
expect_symbolic_agreement(const mtm::Model& model, const Execution& fixture)
{
    const auto reference = testing::reference_axioms(model.name());
    mtm::EncodingScratch scratch;
    bool any_permitted = false;
    std::vector<int> violating(reference.size(), 0);
    synth::for_each_execution(
        fixture.program, model.vm_aware(), [&](const Execution& e) {
            const elt::DerivedRelations d =
                elt::derive(e, model.derive_options());
            bool permitted = true;
            for (std::size_t i = 0; i < reference.size(); ++i) {
                if (!reference[i].holds(e.program, d)) {
                    ++violating[i];
                    permitted = false;
                }
            }
            any_permitted = any_permitted || permitted;
            return true;
        });
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const std::string& axiom = reference[i].name;
        mtm::ProgramEncoding encoding(fixture.program, &model, &scratch);
        const auto enumerated = encoding.enumerate(axiom);
        EXPECT_EQ(static_cast<int>(enumerated.size()), violating[i]) << axiom;
        for (const Execution& e : enumerated) {
            const elt::DerivedRelations d =
                elt::derive(e, model.derive_options());
            ASSERT_TRUE(d.well_formed) << axiom;
            EXPECT_FALSE(reference[i].holds(e.program, d)) << axiom;
        }
    }
    mtm::ProgramEncoding encoding(fixture.program, &model, &scratch);
    EXPECT_EQ(encoding.exists_permitted(), any_permitted);
}

TEST(SpecReference, X86TsoSymbolicSpacesMatchTheReference)
{
    expect_symbolic_agreement(mtm::x86tso(),
                              elt::fixtures::sb_both_reads_zero_mcm());
}

TEST(SpecReference, X86tEltSymbolicSpacesMatchTheReference)
{
    expect_symbolic_agreement(mtm::x86t_elt(),
                              elt::fixtures::fig10a_ptwalk2());
}

TEST(SpecReference, ScTEltSymbolicSpacesMatchTheReference)
{
    expect_symbolic_agreement(mtm::sc_t_elt(),
                              elt::fixtures::fig2c_sb_elt_aliased());
}

// ---------------------------------------------------------------------------
// Expression algebra, concretely.
// ---------------------------------------------------------------------------

EdgeSet
eval_on(const char* expr_src, const Execution& e, bool vm)
{
    const std::string source =
        std::string("model t\nvm ") + (vm ? "on" : "off") +
        "\naxiom a: empty(" + expr_src + ")\n";
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    EXPECT_TRUE(spec.has_value()) << diag.to_string("<eval_on>");
    const elt::DerivedRelations d = elt::derive(e, {vm});
    EXPECT_TRUE(d.well_formed);
    EdgeSet out;
    eval_expr(*spec->axioms[0].expr, e.program, d, nullptr, &out);
    return out;
}

EdgeSet
sorted(EdgeSet edges)
{
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

TEST(SpecEval, BaseAndSetAlgebra)
{
    const Execution e = elt::fixtures::sb_both_reads_zero_mcm();
    const elt::DerivedRelations d = elt::derive(e, {false});

    EXPECT_EQ(eval_on("rf | co | fr", e, false),
              sorted([&] {
                  EdgeSet all = d.rf;
                  all.insert(all.end(), d.co.begin(), d.co.end());
                  all.insert(all.end(), d.fr.begin(), d.fr.end());
                  return all;
              }()));
    EXPECT_EQ(eval_on("po & po", e, false), sorted(d.po));
    EXPECT_EQ(eval_on("po \\ po", e, false), EdgeSet{});
    EXPECT_EQ(eval_on("0", e, false), EdgeSet{});
    // Transpose is an involution.
    EXPECT_EQ(eval_on("rf^-1^-1", e, false), sorted(d.rf));
    // [W] ; po ; [R] == the W->R po pairs == po \ ppo (TSO's dropped pairs
    // restricted to memory events; in this MCM fixture all events are
    // memory events).
    EXPECT_EQ(eval_on("[W] ; po_mem ; [R]", e, false),
              eval_on("po_mem \\ ppo", e, false));
}

TEST(SpecEval, JoinAndClosure)
{
    const Execution e = elt::fixtures::sb_both_reads_zero_mcm();
    // po is already transitive: closure is a fixed point.
    EXPECT_EQ(eval_on("po^+", e, false), eval_on("po", e, false));
    // Chains: rf ; fr relates a write to the co-successors of its readers'
    // sources — check against a manual join.
    const EdgeSet rf = eval_on("rf", e, false);
    const EdgeSet fr = eval_on("fr", e, false);
    EdgeSet manual;
    for (const auto& [a, b] : rf) {
        for (const auto& [c, dd] : fr) {
            if (b == c) {
                manual.emplace_back(a, dd);
            }
        }
    }
    EXPECT_EQ(eval_on("rf ; fr", e, false), sorted(manual));
    // Closure of a genuine chain: po over one thread of the SB program is
    // {0->1}; its closure adds nothing, but (po | po^-1)^+ relates every
    // same-thread pair both ways.
    const EdgeSet sym = eval_on("(po | po^-1)^+", e, false);
    for (const auto& [a, b] : eval_on("po", e, false)) {
        EXPECT_NE(std::find(sym.begin(), sym.end(), elt::Edge(b, a)),
                  sym.end());
        EXPECT_NE(std::find(sym.begin(), sym.end(), elt::Edge(a, a)),
                  sym.end());
    }
}

TEST(SpecEval, VmRelationsOnFixtures)
{
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    const elt::DerivedRelations d = elt::derive(e, {true});
    EXPECT_EQ(eval_on("fr_va", e, true), sorted(d.fr_va));
    EXPECT_EQ(eval_on("remap", e, true), sorted(d.remap));
    EXPECT_EQ(eval_on("rf_ptw", e, true), sorted(d.rf_ptw));
    EXPECT_EQ(eval_on("ghost", e, true), sorted(d.ghost));
    // Ghost events hang off their parents: ghost ⊆ [M] ; ghost ; [Ghost].
    EXPECT_EQ(eval_on("ghost", e, true),
              eval_on("ghost & ([M] ; ghost ; [Ghost])", e, true));
}

TEST(SpecEval, DeepLetChainsEvaluateInDagTimeNotTreeTime)
{
    // let a1 = a0 ; a0, ..., a25 = a24 ; a24 — a 2^25-node tree but a
    // 26-node DAG. Both compilers must stay linear in the DAG: the
    // concrete evaluator pins each body once (CycleScratch::spec_memo),
    // the encoder memoizes circuits and walks needs with a visited set.
    // Without those, this test (and any user model with shared
    // definitions) hangs rather than fails.
    std::string source = "model deep\nvm off\nlet a0 = po\n";
    constexpr int kDepth = 25;
    for (int i = 1; i <= kDepth; ++i) {
        source += "let a" + std::to_string(i) + " = a" +
                  std::to_string(i - 1) + " ; a" + std::to_string(i - 1) +
                  "\n";
    }
    source += "axiom deep_chain: acyclic(a" + std::to_string(kDepth) +
              " | rf)\n";
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    ASSERT_TRUE(spec.has_value()) << diag.to_string("<deep>");
    const mtm::Model model = compile_model(*spec);

    const Execution e = elt::fixtures::sb_both_reads_zero_mcm();
    // po is transitive, so every a_i collapses to po: the axiom is plain
    // acyclic(po | rf) — permitted on this fixture.
    EXPECT_TRUE(model.violated_axioms(e).empty());
    // Concrete expression evaluation terminates and equals po ; po.
    EdgeSet deep;
    eval_expr(*spec->axioms[0].expr->lhs->lhs, e.program,
              elt::derive(e, {false}), nullptr, &deep);
    EXPECT_EQ(deep, eval_on("po ; po", e, false));
    // And the SAT backend builds/solves it without walking the tree.
    mtm::EncodingScratch scratch;
    mtm::ProgramEncoding enc(e.program, &model, &scratch);
    EXPECT_FALSE(enc.exists_violating("deep_chain"));
}

// ---------------------------------------------------------------------------
// Compiled models and printers.
// ---------------------------------------------------------------------------

TEST(SpecCompile, ModelCarriesItsSpec)
{
    const mtm::Model model = zoo_model("pso_t_elt");
    EXPECT_EQ(model.name(), "pso_t_elt");
    EXPECT_TRUE(model.vm_aware());
    EXPECT_EQ(model.spec().lets.size(), 2u);
    ASSERT_EQ(model.spec().axioms.size(), model.axioms().size());
    for (std::size_t i = 0; i < model.axioms().size(); ++i) {
        EXPECT_EQ(model.axioms()[i].def.get(), &model.spec().axioms[i]);
        ASSERT_NE(model.axioms()[i].def->expr, nullptr);
    }
    // A copy shares the compiled spec and outlives its source.
    std::optional<mtm::Model> source(model);
    const mtm::Model copy = *source;
    source.reset();
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    EXPECT_EQ(copy.violated_axioms(e), model.violated_axioms(e));
}

TEST(SpecCompile, PaperModelsAreTheirRegistrySources)
{
    EXPECT_EQ(&mtm::x86t_elt(), &mtm::x86t_elt());  // compiled once
    for (const char* name : {"x86tso", "x86t_elt", "sc_t_elt"}) {
        const mtm::Model& model = *registry_model(name);
        EXPECT_EQ(model.name(), name);
        EXPECT_EQ(model_to_source(model.spec()),
                  model_to_source(zoo_model(std::string(name) + ".mtm")
                                      .spec()));
    }
    EXPECT_EQ(&mtm::x86tso().spec(), &registry_model("x86tso")->spec());
    EXPECT_EQ(&mtm::sc_t_elt().spec(), &registry_model("sc_t_elt")->spec());
}

/// The generic verdict: the condition's edge set, walked by eval_expr,
/// then the form decided on it.
bool
generic_holds(const AxiomDef& axiom, const Execution& e,
              const elt::DerivedRelations& d)
{
    EdgeSet edges;
    eval_expr(*axiom.expr, e.program, d, nullptr, &edges);
    switch (axiom.form) {
    case AxiomForm::kAcyclic: {
        const EdgeSet* parts[] = {&edges};
        return !elt::has_cycle(e.program.num_events(), parts, 1, nullptr);
    }
    case AxiomForm::kIrreflexive:
        return std::none_of(edges.begin(), edges.end(),
                            [](const elt::Edge& x) { return x.first == x.second; });
    case AxiomForm::kEmpty:
        return edges.empty();
    }
    return false;
}

TEST(SpecPlan, PlansMatchTheGenericEvaluatorOnEveryZooModel)
{
    int flat = 0;
    int generic = 0;
    int compared = 0;
    for (const RegistryEntry& entry : registry_entries()) {
        const mtm::Model model = zoo_model(entry.name);
        std::vector<AxiomPlan> plans;
        for (const mtm::Axiom& axiom : model.axioms()) {
            plans.push_back(plan_axiom(*axiom.def));
            (plans.back().flat_union ? flat : generic) += 1;
        }
        elt::CycleScratch scratch;
        for (const auto fixture : kFixtures) {
            const Execution fixed = fixture();
            if (!model.vm_aware() && !fixed.program.validate(false).empty()) {
                continue;  // a VM fixture under an MCM
            }
            synth::for_each_execution(
                fixed.program, model.vm_aware(), [&](const Execution& e) {
                    const elt::DerivedRelations d =
                        elt::derive(e, model.derive_options());
                    for (std::size_t i = 0; i < plans.size(); ++i) {
                        EXPECT_EQ(
                            axiom_holds(plans[i], e.program, d, &scratch),
                            generic_holds(*model.axioms()[i].def, e, d))
                            << entry.name << " " << model.axioms()[i].name;
                        ++compared;
                    }
                    return true;
                });
        }
    }
    // Both plan kinds were exercised: every union axiom of the zoo is
    // flattened, and rmw_atomicity and x86tso_star's causality are not.
    EXPECT_GT(flat, 20);
    EXPECT_GT(generic, 8);
    EXPECT_GT(compared, 1000);
}

TEST(SpecPlan, OnlyAcyclicUnionsOfBaseRelationsAreFlattened)
{
    const char* source =
        "model t\nvm on\nlet com = rf | co | fr\n"
        "axiom a: acyclic(com | po_mem | rf | 0)\n"
        "axiom b: acyclic(com | po ; po)\n"
        "axiom c: irreflexive(com)\n";
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    ASSERT_TRUE(spec.has_value()) << diag.to_string("<plan>");
    const AxiomPlan a = plan_axiom(spec->axioms[0]);
    EXPECT_TRUE(a.flat_union);
    using D = elt::DerivedRelations;
    EXPECT_EQ(std::vector<AxiomPlan::Field>(
                  a.union_fields.begin(),
                  a.union_fields.begin() + a.union_count),
              (std::vector<AxiomPlan::Field>{&D::rf, &D::co, &D::fr,
                                             nullptr}));  // po_mem last
    EXPECT_TRUE(a.let_bodies.empty());
    const AxiomPlan b = plan_axiom(spec->axioms[1]);
    EXPECT_FALSE(b.flat_union);
    EXPECT_EQ(b.let_bodies.size(), 1u);
    EXPECT_FALSE(plan_axiom(spec->axioms[2]).flat_union);
}

TEST(SpecPlan, EmptyGuardsAreTheRelationsThatEmptyTheCondition)
{
    const char* source =
        "model t\nvm on\n"
        "axiom a: empty((fr ; co) & rmw)\n"
        "axiom b: irreflexive((rf ; po) | (rf ; co^-1) \\ fr)\n"
        "axiom c: empty(po_mem ; [W])\n"
        "axiom d: irreflexive((rf ; po)^*)\n";
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    ASSERT_TRUE(spec.has_value()) << diag.to_string("<guards>");
    using D = elt::DerivedRelations;
    const auto guards = [&](int i) {
        const AxiomPlan plan = plan_axiom(spec->axioms[i]);
        return std::vector<AxiomPlan::Field>(
            plan.guard_fields.begin(),
            plan.guard_fields.begin() + plan.guard_count);
    };
    EXPECT_EQ(guards(0),
              (std::vector<AxiomPlan::Field>{&D::co, &D::fr, &D::rmw}));
    // A union is empty only when both sides are: rf guards both.
    EXPECT_EQ(guards(1), std::vector<AxiomPlan::Field>{&D::rf});
    // po_mem has no field to test; [S] and ^* are never known empty.
    EXPECT_TRUE(guards(2).empty());
    EXPECT_TRUE(guards(3).empty());
}

TEST(SpecCompile, SourceRoundTripsForTheZoo)
{
    for (const char* name :
         {"x86tso", "x86t_elt", "sc_t_elt", "x86tso_star", "pso.mtm"}) {
        const mtm::Model model = zoo_model(name);
        const std::string source = model_to_source(model.spec());
        Diagnostic diag;
        const auto reparsed = parse_model(source, &diag);
        ASSERT_TRUE(reparsed.has_value())
            << name << ": " << diag.to_string("<model_to_source>");
        EXPECT_EQ(reparsed->name, model.name());
        EXPECT_EQ(reparsed->vm, model.vm_aware());
        ASSERT_EQ(reparsed->axioms.size(), model.axioms().size());
        // The re-parsed spec compiles to a model with identical concrete
        // verdicts — printing is semantics-preserving.
        const mtm::Model recompiled = compile_model(*reparsed);
        for (const auto fixture : kFixtures) {
            const Execution e = fixture();
            if (model.vm_aware() ||
                e.program.validate(false).empty()) {
                EXPECT_EQ(sorted_violations(recompiled, e),
                          sorted_violations(model, e))
                    << name;
            }
        }
    }
}

TEST(SpecCompile, AlloyPrinterDefinesLetsAndPrintsAlloyOperators)
{
    const mtm::Model model = zoo_model("pso.mtm");
    const std::string alloy = mtm::model_to_alloy(model);
    EXPECT_NE(alloy.find("fun ppo_pso : Event->Event { "
                         "ppo - (W <: iden).po_mem.(W <: iden) }"),
              std::string::npos)
        << alloy;
    EXPECT_NE(alloy.find("pred causality { "
                         "acyclic[rfe + co + fr + ppo_pso + fence] }"),
              std::string::npos)
        << alloy;
    EXPECT_NE(alloy.find("pred rmw_atomicity { no (fr.co & rmw) }"),
              std::string::npos)
        << alloy;
    // Only Alloy operators in the predicates: no `.mtm` `|`, `;` or `\`.
    std::size_t pos = 0;
    while ((pos = alloy.find("\npred ", pos)) != std::string::npos) {
        const std::size_t end = alloy.find('\n', pos + 1);
        const std::string line = alloy.substr(pos + 1, end - pos - 1);
        EXPECT_EQ(line.find_first_of("|;\\"), std::string::npos) << line;
        pos = end;
    }
}

TEST(SpecCompile, AlloyPrinterPrecedence)
{
    const char* source =
        "model t\nvm off\n"
        "axiom a: irreflexive((po | rf) \\ co & fr ; (rf | co)^+ ; rf^-1)\n"
        "axiom b: acyclic(po | (rf \\ co) | 0 | (po ; rf)^*)\n";
    Diagnostic diag;
    const auto spec = parse_model(source, &diag);
    ASSERT_TRUE(spec.has_value()) << diag.to_string("<alloy>");
    EXPECT_EQ(axiom_to_alloy(spec->axioms[0]),
              "irreflexive[(po + rf - co) & fr.^(rf + co).~rf]");
    EXPECT_EQ(axiom_to_alloy(spec->axioms[1]),
              "acyclic[po + (rf - co) + none + *(po.rf)]");
}

}  // namespace
}  // namespace transform::spec
