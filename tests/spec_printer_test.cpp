/// \file
/// Tests for the Alloy-style specification emitter.
#include <gtest/gtest.h>

#include "mtm/model.h"
#include "mtm/spec_printer.h"

namespace transform::mtm {
namespace {

TEST(SpecPrinter, VocabularyMentionsEveryTableIElement)
{
    const std::string vocab = vocabulary_to_alloy();
    for (const char* element :
         {"MemoryEvent", "Read", "Write", "Wpte", "Invlpg", "Rptw", "Wdb",
          "rf_ptw", "rf_pa", "co_pa", "fr_pa", "fr_va", "remap",
          "ptw_source", "po", "address"}) {
        EXPECT_NE(vocab.find(element), std::string::npos)
            << "missing " << element;
    }
}

TEST(SpecPrinter, X86tEltModuleHasEveryAxiom)
{
    const std::string module = model_to_alloy(x86t_elt());
    EXPECT_NE(module.find("module transform/x86t_elt"), std::string::npos);
    for (const std::string& axiom : x86t_elt_axiom_names()) {
        EXPECT_NE(module.find("pred " + axiom), std::string::npos);
    }
    EXPECT_NE(module.find("x86t_elt_predicate"), std::string::npos);
    // The formal bodies: each axiom's expression, printed in Alloy, over
    // the model's let bindings.
    EXPECT_NE(module.find("fun com : Event->Event { rf + co + fr }"),
              std::string::npos);
    EXPECT_NE(module.find("pred sc_per_loc { acyclic[com + po_loc] }"),
              std::string::npos);
    EXPECT_NE(module.find("pred invlpg { acyclic[fr_va + po + remap] }"),
              std::string::npos);
    EXPECT_NE(module.find("pred tlb_causality { acyclic[ptw_source + com] }"),
              std::string::npos);
    EXPECT_NE(module.find("pred rmw_atomicity { no (fr.co & rmw) }"),
              std::string::npos);
}

TEST(SpecPrinter, McmModuleLacksVmAxioms)
{
    const std::string module = model_to_alloy(x86tso());
    EXPECT_EQ(module.find("pred invlpg"), std::string::npos);
    EXPECT_EQ(module.find("pred tlb_causality"), std::string::npos);
    EXPECT_NE(module.find("consistency"), std::string::npos);
}

TEST(SpecPrinter, ScVariantUsesFullProgramOrder)
{
    const std::string module = model_to_alloy(sc_t_elt());
    EXPECT_NE(module.find("sequential consistency"), std::string::npos);
    EXPECT_NE(module.find("acyclic[rfe + co + fr + po_mem + fence]"),
              std::string::npos);
}

}  // namespace
}  // namespace transform::mtm
