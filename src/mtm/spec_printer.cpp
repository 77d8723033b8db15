#include "mtm/spec_printer.h"

#include <sstream>

#include "spec/ast.h"
#include "spec/printer.h"

namespace transform::mtm {

std::string
vocabulary_to_alloy()
{
    // Static text: the vocabulary is fixed by the library (Table I of the
    // paper plus this library's documented extensions); keeping it inline
    // makes the emitted module self-contained and reviewable.
    return R"(// TransForm MTM vocabulary (Table I), emitted by transform-cpp.
// Events ---------------------------------------------------------------
abstract sig Event { po: lone Event }           // program order (intra-thread)
abstract sig MemoryEvent extends Event { address: one Location }
sig Read extends MemoryEvent { rf: lone Write, rf_ptw: lone Rptw }
sig Write extends MemoryEvent { co: set Write, ghost_db: lone Wdb }
sig Mfence extends Event {}
// System-level (support) instructions ----------------------------------
sig Wpte extends MemoryEvent { maps: one PhysicalAddress,
                               remap: set Invlpg, co_pa: set Wpte }
sig Invlpg extends Event { evicts: one VirtualAddress }
sig InvlpgAll extends Event {}                  // extension: full TLB flush
// Hardware-level (ghost) instructions -----------------------------------
sig Rptw extends MemoryEvent { invoked_by: one MemoryEvent }
sig Wdb  extends MemoryEvent { invoked_by: one Write }
sig Rdb  extends MemoryEvent { invoked_by: one Write }  // RMW-dirty-bit mode
// Locations --------------------------------------------------------------
abstract sig Location {}
sig VirtualAddress extends Location { pte: one PteLocation }
sig PteLocation extends Location {}
sig PhysicalAddress {}
// Placement facts (section IV-A) ------------------------------------------
fact po_total_per_thread { /* po is a strict total order per thread;
                              ghosts inherit their parent's position and
                              are unordered against it */ }
fact walks_source_users  { all r: Rptw | r.invoked_by in r.~rf_ptw }
fact wdb_per_write       { all w: Write | one w.ghost_db }
fact remap_per_core      { all p: Wpte | one core: Thread | one
                           (p.remap & core.events) }
fact no_tlb_reuse_across_invlpg {
  /* rf_ptw may not span a same-VA INVLPG (or any INVLPGALL) between the
     walk's invoking access and the user, on their shared core */ }
fact spurious_invlpg_useful {
  /* an OS-initiated eviction requires a later same-core access it can
     affect (same VA for INVLPG, any VA for INVLPGALL) */ }
fact dirty_bit_value {
  /* a Wdb carries the mapping of its immediate coherence predecessor at
     its PTE location (initial mapping when coherence-first) */ }
// Derived relations --------------------------------------------------------
fun fr        { /* reads to co-successors of their rf source */ }
fun rf_pa     { /* Wpte to accesses whose translation it provided */ }
fun fr_pa     { /* accesses to co_pa-successors of their provenance */ }
fun fr_va     { /* accesses to later Wptes remapping their VA */ }
fun ptw_source{ /* walk's invoking access to other users of the entry */ }
)";
}

std::string
model_to_alloy(const Model& model)
{
    std::ostringstream out;
    out << "module transform/" << model.name() << "\n\n";
    out << vocabulary_to_alloy() << "\n";
    if (!model.spec().lets.empty()) {
        out << "// Definitions (let bindings of " << model.name()
            << ") ---------------------\n";
        for (const spec::LetDef& let : model.spec().lets) {
            out << "fun " << let.name << " : Event->Event { "
                << spec::expr_to_alloy(*let.expr) << " }\n";
        }
        out << "\n";
    }
    out << "// Axioms ("
        << (model.vm_aware() ? "transistency" : "consistency")
        << " predicate of " << model.name() << ") ---------------------\n";
    for (const Axiom& axiom : model.axioms()) {
        out << "// " << axiom.description << "\n";
        out << "pred " << axiom.name << " { "
            << spec::axiom_to_alloy(*axiom.def) << " }\n\n";
    }
    out << "pred " << model.name() << "_predicate {\n";
    for (const Axiom& axiom : model.axioms()) {
        out << "  " << axiom.name << "\n";
    }
    out << "}\n";
    return out.str();
}

}  // namespace transform::mtm
