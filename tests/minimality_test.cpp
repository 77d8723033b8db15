/// \file
/// Unit tests for the spanning-set criteria (interesting + minimal).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "mtm/model.h"
#include "mtm/relax.h"
#include "spec/registry.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"

namespace transform::synth {
namespace {

using elt::Execution;

TEST(Minimality, ContainsWrite)
{
    EXPECT_TRUE(contains_write(elt::fixtures::fig10a_ptwalk2().program));
    EXPECT_TRUE(contains_write(elt::fixtures::fig2b_sb_elt().program));
    // A lone read (with its walk) has no writes.
    elt::ProgramBuilder b;
    b.thread();
    const auto r = b.R(0);
    b.rptw(r);
    EXPECT_FALSE(contains_write(b.build()));
}

TEST(Minimality, Ptwalk2IsMinimal)
{
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig10a_ptwalk2());
    EXPECT_TRUE(verdict.interesting);
    EXPECT_TRUE(verdict.minimal) << verdict.blocking_relaxation;
    // Forbidden via both sc_per_loc and invlpg, as the paper notes.
    EXPECT_EQ(verdict.violated.size(), 2u);
}

TEST(Minimality, Fig11IsMinimal)
{
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig11_new_elt());
    EXPECT_TRUE(verdict.interesting);
    EXPECT_TRUE(verdict.minimal) << verdict.blocking_relaxation;
}

TEST(Minimality, Fig10bIsPermittedHenceNotInteresting)
{
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig10b_dirtybit3());
    EXPECT_FALSE(verdict.interesting);
    EXPECT_TRUE(verdict.violated.empty());
}

TEST(Minimality, Fig8IsForbiddenButNotMinimal)
{
    // The paper's worked example of the minimality criterion: the extra
    // write W4 can be removed and the test stays forbidden.
    const mtm::Model tso = mtm::x86tso();
    const MinimalityVerdict verdict =
        judge(tso, elt::fixtures::fig8_non_minimal_mcm());
    EXPECT_TRUE(verdict.interesting);
    EXPECT_FALSE(verdict.minimal);
    EXPECT_FALSE(verdict.blocking_relaxation.empty());
}

TEST(Minimality, Fig2cIsForbiddenButNotMinimal)
{
    // The aliased sb ELT is forbidden yet reducible (the coherence cycle
    // survives the removal of, e.g., the x-write on C0).
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig2c_sb_elt_aliased());
    EXPECT_TRUE(verdict.interesting);
    EXPECT_FALSE(verdict.minimal);
}

TEST(Minimality, PermittedExecutionNotInteresting)
{
    const mtm::Model model = mtm::x86t_elt();
    const MinimalityVerdict verdict =
        judge(model, elt::fixtures::fig4_remap_chain());
    EXPECT_FALSE(verdict.interesting);
}

/// Every fixture of elt/fixtures.h (VM and MCM views).
std::vector<Execution>
all_fixtures()
{
    namespace f = elt::fixtures;
    return {f::fig2a_sb_mcm(),           f::sb_both_reads_zero_mcm(),
            f::fig2b_sb_elt(),           f::fig2c_sb_elt_aliased(),
            f::fig4_remap_chain(),       f::fig5a_shared_walk(),
            f::fig5b_invlpg_forces_walk(), f::fig6_remap_disambiguation(),
            f::fig8_non_minimal_mcm(),   f::fig10a_ptwalk2(),
            f::fig10b_dirtybit3(),       f::fig11_new_elt()};
}

TEST(Minimality, SweepAgreesWithJudgeUnderAWarmBlockerHint)
{
    // The engine calls is_minimal alone, on interesting executions it has
    // derived itself, with a scratch (and its last-blocker hint) carried
    // across programs and models. Over every execution of every fixture
    // program under every model of the zoo, that sweep and the 3-argument
    // judge sharing its scratch must agree with a fresh diagnostic judge.
    JudgeScratch scratch;
    int interesting = 0;
    int non_minimal = 0;
    for (const spec::RegistryEntry& entry : spec::registry_entries()) {
        const mtm::Model* model = spec::registry_model(entry.name);
        ASSERT_NE(model, nullptr) << entry.name;
        for (const Execution& fixture : all_fixtures()) {
            const elt::Program& program = fixture.program;
            if (!program.validate(model->vm_aware()).empty()) {
                continue;  // a VM fixture under an MCM model
            }
            for_each_execution(
                program, model->vm_aware(), [&](const Execution& e) {
                    const MinimalityVerdict fresh = judge(*model, e);
                    const MinimalityVerdict reused =
                        judge(*model, e, &scratch);
                    EXPECT_EQ(fresh.interesting, reused.interesting)
                        << entry.name;
                    EXPECT_EQ(fresh.minimal, reused.minimal) << entry.name;
                    EXPECT_EQ(fresh.violated_mask, reused.violated_mask)
                        << entry.name;
                    if (fresh.interesting) {
                        ++interesting;
                        non_minimal += fresh.minimal ? 0 : 1;
                        EXPECT_EQ(fresh.minimal,
                                  is_minimal(*model, e, &scratch))
                            << entry.name << " " << fresh.blocking_relaxation;
                    }
                    return true;
                });
        }
    }
    EXPECT_GT(interesting, 0);
    EXPECT_GT(non_minimal, 0);
    EXPECT_TRUE(scratch.last_blocker.has_value());
}

TEST(Minimality, HintGoesFirstButDiagnosticsKeepSourceOrder)
{
    // fig2c stays forbidden under several relaxations. Hinted with the
    // last of them, the scratch judge tries it first (and so keeps it as
    // the blocker); the diagnostic judge still names the first in source
    // order.
    const mtm::Model model = mtm::x86t_elt();
    const Execution e = elt::fixtures::fig2c_sb_elt_aliased();
    std::vector<mtm::Relaxation> blockers;
    for (const mtm::Relaxation& r : mtm::applicable_relaxations(e.program)) {
        const Execution relaxed =
            mtm::apply_relaxation(e, r, model.vm_aware());
        const elt::DerivedRelations d =
            elt::derive(relaxed, model.derive_options());
        if (relaxed.program.num_events() > 0 && d.well_formed &&
            model.violated_mask(relaxed.program, d) != 0) {
            blockers.push_back(r);
        }
    }
    ASSERT_GE(blockers.size(), 2u);
    JudgeScratch scratch;
    scratch.last_blocker = blockers.back();
    EXPECT_FALSE(judge(model, e, &scratch).minimal);
    EXPECT_EQ(scratch.last_blocker, blockers.back());
    EXPECT_EQ(judge(model, e).blocking_relaxation,
              blockers.front().describe(e.program));
}

}  // namespace
}  // namespace transform::synth
