/// \file
/// The spanning-set criteria of section IV-B: a synthesized candidate
/// execution enters the suite iff it is *interesting* (contains a write and
/// has a forbidden outcome) and *minimal* (every isolated relaxation of the
/// test makes the outcome permitted).
///
/// Judging is the second-hottest call in the synthesis inner loop (one
/// derivation per relaxation of every violating candidate). It is built
/// from two steps: derive + verdict on the execution, then the relaxation
/// sweep (`is_minimal`), which applies each relaxation, derives the relaxed
/// execution and checks its verdict. `judge` runs both. The engine has
/// already derived the execution and holds its verdict when it needs
/// minimality, so it calls the sweep alone.
///
/// Two `judge` forms share one implementation: the diagnostic
/// `judge(model, execution)` fills the string fields, and the
/// scratch-reusing overload derives every execution into reused buffers
/// and never touches a string on the accept path.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "elt/execution.h"
#include "mtm/model.h"
#include "mtm/relax.h"
#include "obs/metrics.h"

namespace transform::synth {

/// Reusable buffers for judge and is_minimal: the derived relations of the
/// execution (and of each relaxed execution, sequentially), two derivation
/// scratches, and the relaxation-rebuild scratch (each relaxed execution
/// is built into relax.relaxed rather than materialized per relaxation).
/// One per worker; not shareable between concurrent judges.
///
/// The judged execution and its relaxed executions derive through separate
/// scratches, so each keeps its own program-level cache (elt::derive.h):
/// consecutive executions of one program reuse the judged program's block,
/// and the relaxed program usually repeats from one execution to the next.
struct JudgeScratch {
    elt::DerivedRelations derived;
    elt::DeriveScratch derive;          ///< the judged execution (judge())
    elt::DeriveScratch relaxed_derive;  ///< the relaxed executions (sweep)
    mtm::RelaxScratch relax;
    /// The relaxation that last kept an execution forbidden. The sweep
    /// tries it first when the current program has it: minimality is an
    /// all-of over relaxations, so the order cannot change the verdict,
    /// and a blocker tends to block the next execution of the program too.
    std::optional<mtm::Relaxation> last_blocker;
    /// When set, judge and is_minimal attribute their own time to
    /// Phase::kJudge and the relaxation rebuilds to Phase::kRelax on
    /// \p worker's cell (the engine does not wrap the call site).
    obs::MetricsRegistry* metrics = nullptr;
    int worker = 0;
};

/// Result of judging one candidate.
struct MinimalityVerdict {
    bool interesting = false;
    bool minimal = false;
    /// Axioms the candidate violates, as a bitset over model.axioms().
    mtm::AxiomMask violated_mask = 0;
    /// Axiom names (filled by the diagnostic judge overload only; the
    /// scratch overload leaves it empty and reports via violated_mask).
    std::vector<std::string> violated;
    /// For non-minimal candidates: description of a relaxation that stays
    /// forbidden (diagnostic overload only).
    std::string blocking_relaxation;
};

/// True when the execution contains at least one write-like event (the
/// paper's first vector-space criterion).
bool contains_write(const elt::Program& program);

/// Judges a candidate execution against \p model: computes the violated
/// axioms, the interesting criterion, and minimality under the restricted
/// relaxations of mtm/relax.h. Fills the diagnostic string fields; the
/// relaxations are tried in source order, so blocking_relaxation names
/// the first one that stays forbidden.
MinimalityVerdict judge(const mtm::Model& model,
                        const elt::Execution& execution);

/// As judge, but reuses \p scratch for every derivation and skips the
/// diagnostic strings (violated stays empty, violated_mask is authoritative;
/// blocking_relaxation stays empty). The interesting/minimal verdict is
/// identical to the diagnostic overload.
MinimalityVerdict judge(const mtm::Model& model,
                        const elt::Execution& execution,
                        JudgeScratch* scratch);

/// The relaxation sweep of judge alone: true when every isolated
/// relaxation of \p execution is permitted under \p model. The caller
/// must already know the execution is interesting (well formed, contains
/// a write, violates some axiom); for such an execution the result equals
/// judge(...).minimal. Tries scratch->last_blocker first and updates it.
bool is_minimal(const mtm::Model& model, const elt::Execution& execution,
                JudgeScratch* scratch);

}  // namespace transform::synth
