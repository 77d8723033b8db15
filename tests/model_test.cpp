/// \file
/// Unit tests for the memory models: verdicts on every paper figure.
#include <gtest/gtest.h>

#include <algorithm>

#include "elt/fixtures.h"
#include "mtm/model.h"
#include "spec/registry.h"

namespace transform::mtm {
namespace {

using elt::Execution;

bool
violates(const Model& model, const Execution& e, const std::string& axiom)
{
    const auto violated = model.violated_axioms(e);
    return std::find(violated.begin(), violated.end(), axiom) != violated.end();
}

TEST(Model, AxiomLookup)
{
    const Model m = x86t_elt();
    EXPECT_EQ(m.name(), "x86t_elt");
    EXPECT_TRUE(m.vm_aware());
    EXPECT_EQ(m.axioms().size(), 5u);
    EXPECT_NE(m.axiom("invlpg"), nullptr);
    EXPECT_EQ(m.axiom("nonsense"), nullptr);
    EXPECT_EQ(x86t_elt_axiom_names().size(), 5u);
}

TEST(Model, Fig2aPermittedUnderTso)
{
    const Model tso = x86tso();
    EXPECT_FALSE(tso.vm_aware());
    EXPECT_TRUE(tso.permits(elt::fixtures::fig2a_sb_mcm()));
}

TEST(Model, SbBothZeroPermittedUnderTsoOnly)
{
    // The classic sb outcome: permitted by TSO (store buffering), forbidden
    // under sequential consistency.
    const Execution e = elt::fixtures::sb_both_reads_zero_mcm();
    EXPECT_TRUE(x86tso().permits(e));

    // The registry's SC MCM (sc_t_elt's causality without VM modelling):
    // sb violates it.
    const Model& sc = *spec::registry_model("sc");
    EXPECT_FALSE(sc.vm_aware());
    EXPECT_FALSE(sc.permits(e));
    EXPECT_TRUE(violates(sc, e, "causality"));
}

TEST(Model, Fig2bEltPermitted)
{
    EXPECT_TRUE(x86t_elt().permits(elt::fixtures::fig2b_sb_elt()));
}

TEST(Model, Fig2cAliasedForbiddenByCoherence)
{
    const Execution e = elt::fixtures::fig2c_sb_elt_aliased();
    const Model m = x86t_elt();
    EXPECT_FALSE(m.permits(e));
    EXPECT_TRUE(violates(m, e, "sc_per_loc"));
}

TEST(Model, Fig4Permitted)
{
    EXPECT_TRUE(x86t_elt().permits(elt::fixtures::fig4_remap_chain()));
}

TEST(Model, Fig5Permitted)
{
    EXPECT_TRUE(x86t_elt().permits(elt::fixtures::fig5a_shared_walk()));
    EXPECT_TRUE(x86t_elt().permits(elt::fixtures::fig5b_invlpg_forces_walk()));
}

TEST(Model, Fig6Permitted)
{
    EXPECT_TRUE(x86t_elt().permits(elt::fixtures::fig6_remap_disambiguation()));
}

TEST(Model, Fig8ForbiddenMcm)
{
    // The sb-style cycle with an extra unrelated write: forbidden (the
    // cycle exists) regardless of the extra write.
    const Execution e = elt::fixtures::fig8_non_minimal_mcm();
    const Model tso = x86tso();
    EXPECT_FALSE(tso.permits(e));
}

TEST(Model, Fig10aForbiddenByScPerLocAndInvlpg)
{
    const Execution e = elt::fixtures::fig10a_ptwalk2();
    const Model m = x86t_elt();
    EXPECT_TRUE(violates(m, e, "sc_per_loc"));
    EXPECT_TRUE(violates(m, e, "invlpg"));
}

TEST(Model, Fig10bPermitted)
{
    EXPECT_TRUE(x86t_elt().permits(elt::fixtures::fig10b_dirtybit3()));
}

TEST(Model, Fig11ForbiddenByInvlpg)
{
    const Execution e = elt::fixtures::fig11_new_elt();
    const Model m = x86t_elt();
    EXPECT_FALSE(m.permits(e));
    EXPECT_TRUE(violates(m, e, "invlpg"));
}

TEST(Model, IllFormedReportsWellFormedPseudoAxiom)
{
    Execution e = elt::fixtures::fig10a_ptwalk2();
    e.ptw_src[2] = elt::kNone;  // break the translation
    const auto violated = x86t_elt().violated_axioms(e);
    ASSERT_EQ(violated.size(), 1u);
    EXPECT_EQ(violated[0], "well_formed");
}

TEST(Model, ScMtmForbidsTsoOutcome)
{
    // Under the SC-based MTM, even the plain ELT store-buffering outcome
    // (both reads stale) is forbidden; x86t_elt permits it.
    // Build sb ELT with both reads returning initial values.
    elt::ProgramBuilder b;
    b.thread();
    const auto w0 = b.W(0);
    const auto wdb0 = b.wdb(w0);
    const auto rptw0 = b.rptw(w0);
    const auto r1 = b.R(1);
    const auto rptw1 = b.rptw(r1);
    b.thread();
    const auto w2 = b.W(1);
    const auto wdb2 = b.wdb(w2);
    const auto rptw2 = b.rptw(w2);
    const auto r3 = b.R(0);
    const auto rptw3 = b.rptw(r3);
    Execution e = Execution::empty_for(b.build());
    e.ptw_src[w0] = rptw0;
    e.ptw_src[r1] = rptw1;
    e.ptw_src[w2] = rptw2;
    e.ptw_src[r3] = rptw3;
    e.rf_src[rptw0] = wdb0;
    e.rf_src[rptw1] = elt::kNone;
    e.rf_src[rptw2] = wdb2;
    e.rf_src[rptw3] = elt::kNone;
    e.rf_src[r1] = elt::kNone;  // stale
    e.rf_src[r3] = elt::kNone;  // stale
    e.co_pos[w0] = 0;
    e.co_pos[w2] = 0;
    e.co_pos[wdb0] = 0;
    e.co_pos[wdb2] = 0;
    EXPECT_TRUE(x86t_elt().permits(e));
    EXPECT_FALSE(sc_t_elt().permits(e));
}

}  // namespace
}  // namespace transform::mtm
