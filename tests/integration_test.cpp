/// \file
/// Integration tests: the explicit execution enumerator and the
/// SAT/relational backend must agree on the execution space of every
/// program, axiom by axiom, under every model of the zoo, and the
/// synthesis pipeline must be backend-independent.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "mtm/encoding.h"
#include "spec/registry.h"
#include "synth/engine.h"
#include "synth/exec_enum.h"
#include "synth/skeleton.h"

namespace transform {
namespace {

using elt::Execution;
using elt::Program;

/// Fingerprint of an execution's witness choices, for set comparison.
std::string
fingerprint(const Execution& e)
{
    std::string out;
    for (int i = 0; i < e.program.num_events(); ++i) {
        out += std::to_string(e.rf_src[i]) + "," +
               std::to_string(e.co_pos[i]) + "," +
               std::to_string(e.ptw_src[i]) + "," +
               std::to_string(e.co_pa_pos[i]) + ";";
    }
    return out;
}

/// The explicit enumerator is the reference for the SAT encoder: the
/// whole execution space must agree, and so must the violating subset of
/// every axiom of the model (the axiom circuits against the concrete
/// evaluators).
void
expect_backends_agree(const Program& program, const mtm::Model& model)
{
    std::set<std::string> explicit_set;
    std::map<std::string, std::set<std::string>> explicit_violating;
    synth::for_each_execution(
        program, model.vm_aware(), [&](const Execution& e) {
            explicit_set.insert(fingerprint(e));
            const elt::DerivedRelations d =
                elt::derive(e, model.derive_options());
            if (d.well_formed) {
                for (const std::string& axiom :
                     model.violated_axioms(e.program, d)) {
                    explicit_violating[axiom].insert(fingerprint(e));
                }
            }
            return true;
        });
    mtm::ProgramEncoding encoding(program, &model);
    std::set<std::string> sat_set;
    for (const Execution& e : encoding.enumerate()) {
        sat_set.insert(fingerprint(e));
    }
    EXPECT_EQ(explicit_set, sat_set) << model.name();
    for (const mtm::Axiom& axiom : model.axioms()) {
        std::set<std::string> sat_violating;
        for (const Execution& e : encoding.enumerate(axiom.name)) {
            sat_violating.insert(fingerprint(e));
        }
        EXPECT_EQ(explicit_violating[axiom.name], sat_violating)
            << model.name() << " axiom " << axiom.name;
    }
}

/// Checks every \p stride-th skeleton candidate at \p bound, up to
/// \p samples of them: a spread of shapes, kept fast.
void
expect_backends_agree_on_skeletons(const mtm::Model& model, int bound,
                                   int stride, int samples)
{
    synth::SkeletonOptions opt;
    opt.num_events = bound;
    opt.max_threads = 2;
    opt.vm_enabled = model.vm_aware();
    int seen = 0;
    int sampled = 0;
    synth::for_each_skeleton(opt, [&](const Program& p) {
        if (seen++ % stride != 0) {
            return true;
        }
        expect_backends_agree(p, model);
        return ++sampled < samples;
    });
    EXPECT_GT(sampled, 0) << model.name() << " bound " << bound;
}

TEST(BackendEquivalence, PaperPrograms)
{
    const mtm::Model model = mtm::x86t_elt();
    expect_backends_agree(elt::fixtures::fig10a_ptwalk2().program, model);
    expect_backends_agree(elt::fixtures::fig11_new_elt().program, model);
    expect_backends_agree(elt::fixtures::fig5a_shared_walk().program, model);
    expect_backends_agree(elt::fixtures::fig5b_invlpg_forces_walk().program,
                          model);
}

TEST(BackendEquivalence, McmPrograms)
{
    const mtm::Model tso = mtm::x86tso();
    expect_backends_agree(elt::fixtures::fig2a_sb_mcm().program, tso);
    expect_backends_agree(elt::fixtures::fig8_non_minimal_mcm().program, tso);
}

TEST(BackendEquivalence, SampledSkeletons)
{
    expect_backends_agree_on_skeletons(mtm::x86t_elt(), 4, 1, 12);
    // Bound 5 in both VM modes.
    expect_backends_agree_on_skeletons(mtm::x86t_elt(), 5, 7, 60);
    expect_backends_agree_on_skeletons(mtm::x86tso(), 5, 7, 60);
    // Every model of the zoo, its `.mtm` axioms lowered to circuits.
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        std::string error;
        const std::optional<spec::ResolvedModel> resolved =
            spec::resolve_model(entry.name, &error);
        ASSERT_TRUE(resolved.has_value()) << entry.name << ": " << error;
        expect_backends_agree_on_skeletons(resolved->model, 4, 5, 20);
    }
}

TEST(SynthesisBackends, SameSuiteAtSmallBound)
{
    const mtm::Model model = mtm::x86t_elt();
    synth::SynthesisOptions opt;
    opt.min_bound = 4;
    opt.bound = 4;
    opt.max_threads = 2;
    opt.max_vas = 2;
    opt.backend = synth::Backend::kEnumerative;
    const auto enum_suite = synth::synthesize_suite(model, "invlpg", opt);
    opt.backend = synth::Backend::kSat;
    const auto sat_suite = synth::synthesize_suite(model, "invlpg", opt);

    std::set<std::string> enum_keys;
    for (const auto& t : enum_suite.tests) {
        enum_keys.insert(t.canonical_key);
    }
    std::set<std::string> sat_keys;
    for (const auto& t : sat_suite.tests) {
        sat_keys.insert(t.canonical_key);
    }
    EXPECT_EQ(enum_keys, sat_keys);
}

TEST(Pipeline, EveryFixtureProgramRoundTripsThroughEncoding)
{
    // Programs with a forbidden witness per the concrete evaluator must
    // also have one per the SAT backend, and vice versa, axiom by axiom.
    const mtm::Model model = mtm::x86t_elt();
    const std::vector<Execution> fixtures = {
        elt::fixtures::fig10a_ptwalk2(),
        elt::fixtures::fig10b_dirtybit3(),
        elt::fixtures::fig11_new_elt(),
        elt::fixtures::fig5a_shared_walk(),
    };
    for (const Execution& fixture : fixtures) {
        mtm::ProgramEncoding encoding(fixture.program, &model);
        for (const auto& axiom : model.axioms()) {
            bool explicit_violation = false;
            synth::for_each_execution(
                fixture.program, true, [&](const Execution& e) {
                    const auto d = elt::derive(e);
                    if (!d.well_formed) {
                        return true;
                    }
                    const auto violated =
                        model.violated_axioms(e.program, d);
                    for (const std::string& name : violated) {
                        explicit_violation =
                            explicit_violation || name == axiom.name;
                    }
                    return !explicit_violation;
                });
            EXPECT_EQ(explicit_violation, encoding.exists_violating(axiom.name))
                << axiom.name;
        }
    }
}

}  // namespace
}  // namespace transform
