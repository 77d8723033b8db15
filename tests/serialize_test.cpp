/// \file
/// Round-trip tests for the XML serializer on every fixture.
#include <gtest/gtest.h>

#include "elt/derive.h"
#include "elt/fixtures.h"
#include "elt/serialize.h"

namespace transform::elt {
namespace {

void
expect_round_trip(const Execution& original)
{
    const std::string xml = execution_to_xml(original, "test");
    const auto parsed = execution_from_xml(xml);
    ASSERT_TRUE(parsed.has_value()) << xml;
    EXPECT_EQ(parsed->program.num_events(), original.program.num_events());
    EXPECT_EQ(parsed->program.num_threads(), original.program.num_threads());
    for (EventId id = 0; id < original.program.num_events(); ++id) {
        const Event& a = original.program.event(id);
        const Event& b = parsed->program.event(id);
        EXPECT_EQ(a.kind, b.kind) << "event " << id;
        EXPECT_EQ(a.thread, b.thread) << "event " << id;
        EXPECT_EQ(a.va, b.va) << "event " << id;
        EXPECT_EQ(a.map_pa, b.map_pa) << "event " << id;
        EXPECT_EQ(a.parent, b.parent) << "event " << id;
        EXPECT_EQ(a.remap_src, b.remap_src) << "event " << id;
    }
    EXPECT_EQ(parsed->rf_src, original.rf_src);
    EXPECT_EQ(parsed->co_pos, original.co_pos);
    EXPECT_EQ(parsed->ptw_src, original.ptw_src);
    EXPECT_EQ(parsed->co_pa_pos, original.co_pa_pos);
    EXPECT_EQ(parsed->program.rmw_pairs(), original.program.rmw_pairs());
}

TEST(Serialize, RoundTripAllFixtures)
{
    expect_round_trip(fixtures::fig2a_sb_mcm());
    expect_round_trip(fixtures::sb_both_reads_zero_mcm());
    expect_round_trip(fixtures::fig2b_sb_elt());
    expect_round_trip(fixtures::fig2c_sb_elt_aliased());
    expect_round_trip(fixtures::fig4_remap_chain());
    expect_round_trip(fixtures::fig5a_shared_walk());
    expect_round_trip(fixtures::fig5b_invlpg_forces_walk());
    expect_round_trip(fixtures::fig6_remap_disambiguation());
    expect_round_trip(fixtures::fig8_non_minimal_mcm());
    expect_round_trip(fixtures::fig10a_ptwalk2());
    expect_round_trip(fixtures::fig10b_dirtybit3());
    expect_round_trip(fixtures::fig11_new_elt());
}

TEST(Serialize, RoundTripPreservesSemantics)
{
    const Execution original = fixtures::fig10a_ptwalk2();
    const auto parsed =
        execution_from_xml(execution_to_xml(original, "ptwalk2"));
    ASSERT_TRUE(parsed.has_value());
    const DerivedRelations a = derive(original);
    const DerivedRelations b = derive(*parsed);
    ASSERT_TRUE(a.well_formed);
    ASSERT_TRUE(b.well_formed);
    EXPECT_EQ(a.fr_va, b.fr_va);
    EXPECT_EQ(a.remap, b.remap);
    EXPECT_EQ(a.rf, b.rf);
}

TEST(Serialize, RmwRoundTrip)
{
    ProgramBuilder builder;
    builder.thread();
    const EventId r = builder.R(0);
    builder.rptw(r);
    const EventId w = builder.W(0);
    builder.wdb(w);
    builder.rmw(r, w);
    Execution e = Execution::empty_for(builder.build());
    expect_round_trip(e);
}

TEST(Serialize, RejectsGarbage)
{
    EXPECT_FALSE(execution_from_xml("not xml").has_value());
    EXPECT_FALSE(execution_from_xml("<wrong/>").has_value());
    EXPECT_FALSE(execution_from_xml("<elt threads=\"1\">").has_value());
    // Out-of-range indices are malformed input, not program-construction
    // invariant violations: a ghost's parent and an rmw pair's events.
    const std::string events = "<elt threads=\"1\">\n"
                               "  <read id=\"0\" thread=\"0\" va=\"0\"/>\n"
                               "  <write id=\"1\" thread=\"0\" va=\"0\"/>\n";
    EXPECT_FALSE(execution_from_xml(events +
                                    "  <rptw id=\"2\" parent=\"99\"/>\n"
                                    "</elt>\n")
                     .has_value());
    EXPECT_FALSE(
        execution_from_xml(events + "  <rptw id=\"2\"/>\n</elt>\n")
            .has_value());
    EXPECT_FALSE(execution_from_xml(events +
                                    "  <rmw read=\"0\" write=\"7\"/>\n"
                                    "</elt>\n")
                     .has_value());
    EXPECT_FALSE(
        execution_from_xml(events + "  <rmw write=\"1\"/>\n</elt>\n")
            .has_value());
}

TEST(Serialize, ProgramXmlMentionsKinds)
{
    const std::string xml =
        program_to_xml(fixtures::fig10a_ptwalk2().program, "ptwalk2");
    EXPECT_NE(xml.find("<wpte"), std::string::npos);
    EXPECT_NE(xml.find("<invlpg"), std::string::npos);
    EXPECT_NE(xml.find("<read"), std::string::npos);
    EXPECT_NE(xml.find("<rptw"), std::string::npos);
    EXPECT_NE(xml.find("name=\"ptwalk2\""), std::string::npos);
}

}  // namespace
}  // namespace transform::elt
