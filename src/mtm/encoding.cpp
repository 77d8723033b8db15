#include "mtm/encoding.h"

#include <utility>

#include "mtm/encoding_detail.h"
#include "obs/alloc.h"
#include "util/logging.h"

namespace transform::mtm {

using elt::Execution;
using elt::Program;

namespace {

/// Builds \p program's structure into \p enc on the scratch's factory and
/// solver (build() resets both), with the selector domains sized from the
/// program itself.
void
build_for(SelectorEncoding* enc, const Program& program, const Model& model,
          EncodingScratch* scratch, unsigned needs)
{
    enc->factory = &scratch->factory;
    enc->solver = &scratch->solver;
    enc->build(program, model.vm_aware(), program.num_vas(),
               program.num_pas(), needs);
}

/// Asserts \p program's pins as unit clauses, which fix its addresses for
/// every later solve, and records the encoding's size in \p stats.
void
pin(SelectorEncoding* enc, const Program& program, EncodingStats* stats)
{
    std::vector<sat::Lit> pins;
    enc->pins(program, &pins);
    for (const sat::Lit l : pins) {
        enc->solver->add_unit(l);
    }
    stats->variables = enc->solver->num_vars();
    stats->circuit_nodes = static_cast<int>(enc->factory->num_nodes());
}

/// Solves and maps the verdict onto the robustness contract: a
/// budget-exhausted kUnknown is unsound to fold into "no model" and is
/// surfaced as a retryable fault; an interrupt kUnknown reads as
/// "not found" — the cancelled caller discards the result anyway.
sat::SolveResult
solve(sat::Solver* solver)
{
    const sat::SolveResult verdict = solver->solve();
    if (verdict == sat::SolveResult::kUnknown &&
        solver->unknown_cause() == sat::UnknownCause::kConflictBudget) {
        throw sat::BudgetExhausted();
    }
    return verdict;
}

}  // namespace

ProgramEncoding::ProgramEncoding(Program program, const Model* model,
                                 EncodingScratch* scratch)
    : program_(std::move(program)), model_(model), scratch_(scratch)
{
    TF_ASSERT(model_ != nullptr);
    TF_ASSERT(program_.validate(model_->vm_aware()).empty());
    if (scratch_ == nullptr) {
        owned_scratch_ = std::make_unique<EncodingScratch>();
        scratch_ = owned_scratch_.get();
    }
}

bool
ProgramEncoding::exists_violating(const std::string& axiom_name)
{
    return find_violating(axiom_name).has_value();
}

std::optional<Execution>
ProgramEncoding::find_violating(const std::string& axiom_name)
{
    TF_ASSERT(!axiom_name.empty());
    std::optional<Execution> out;
    enumerate(axiom_name, [&](const Execution& e) {
        out = e;
        return false;
    });
    return out;
}

bool
ProgramEncoding::exists_permitted()
{
    unsigned needs = 0;
    for (const Axiom& axiom : model_->axioms()) {
        needs |= needs_for(axiom);
    }
    SelectorEncoding enc;
    build_for(&enc, program_, *model_, scratch_, needs);
    for (const Axiom& axiom : model_->axioms()) {
        enc.factory->assert_true(enc.axiom_circuit(program_, axiom),
                                 enc.solver);
    }
    pin(&enc, program_, &stats_);
    return solve(enc.solver) == sat::SolveResult::kSat;
}

bool
ProgramEncoding::exists_execution()
{
    bool found = false;
    enumerate("", [&](const Execution&) {
        found = true;
        return false;
    });
    return found;
}

bool
ProgramEncoding::enumerate(const std::string& violating_axiom,
                           const ExecutionVisitor& visit)
{
    const Axiom* axiom = nullptr;
    if (!violating_axiom.empty()) {
        axiom = model_->axiom(violating_axiom);
        TF_ASSERT(axiom != nullptr);
    }
    SelectorEncoding enc;
    build_for(&enc, program_, *model_, scratch_,
              axiom == nullptr ? 0u : needs_for(*axiom));
    if (axiom != nullptr) {
        enc.factory->assert_true(
            enc.factory->mk_not(enc.axiom_circuit(program_, *axiom)),
            enc.solver);
    }
    enc.freeze_projection(program_);
    pin(&enc, program_, &stats_);
    enc.build_block_template(program_);
    stats_.models = 0;
    Execution current = Execution::empty_for(program_);
    sat::Clause clause;
    while (true) {
        const sat::SolveResult verdict = solve(enc.solver);
        if (verdict != sat::SolveResult::kSat) {
            // kUnsat exhausts the space; an interrupt kUnknown stops the
            // sweep like a visitor veto — the cancelled caller discards it.
            return verdict == sat::SolveResult::kUnsat;
        }
        enc.extract_into(program_, &current);
        ++stats_.models;
        if (!visit(current)) {
            return false;  // the visitor stopped the solver
        }
        const obs::ScopedAllocSite alloc_site(
            obs::AllocSite::kSiteBlockingClause);
        enc.blocking_clause(&clause);
        if (clause.empty() || !enc.solver->add_clause(clause)) {
            break;
        }
    }
    return true;
}

std::vector<Execution>
ProgramEncoding::enumerate(const std::string& violating_axiom,
                           int max_executions)
{
    std::vector<Execution> out;
    enumerate(violating_axiom, [&](const Execution& e) {
        out.push_back(e);
        return max_executions <= 0 ||
               static_cast<int>(out.size()) < max_executions;
    });
    return out;
}

}  // namespace transform::mtm
