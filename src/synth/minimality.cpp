#include "synth/minimality.h"

#include <algorithm>

#include "elt/derive.h"
#include "mtm/relax.h"
#include "obs/alloc.h"
#include "util/logging.h"

namespace transform::synth {

bool
contains_write(const elt::Program& program)
{
    for (elt::EventId id = 0; id < program.num_events(); ++id) {
        if (elt::is_write_like(program.event(id).kind)) {
            return true;
        }
    }
    return false;
}

namespace {

/// The relaxation sweep behind is_minimal and both judge overloads. With
/// \p blocking null (the hot path) the last blocker is tried first; the
/// diagnostic path keeps source order and describes the first relaxation
/// that stays forbidden into \p blocking.
bool
sweep_relaxations(const mtm::Model& model, const elt::Execution& execution,
                  JudgeScratch* scratch, std::string* blocking)
{
    // Verdict-side allocations (relaxation-list growth, the blocking
    // description) carry their own call-site bucket in the alloc breakdown.
    const obs::ScopedAllocSite alloc_site(
        obs::AllocSite::kSiteJudgeVerdict);
    std::vector<mtm::Relaxation>& relaxations = scratch->relax.relaxations;
    {
        obs::ScopedPhase judge_phase(scratch->metrics, scratch->worker,
                                     obs::Phase::kJudge);
        mtm::applicable_relaxations_into(execution.program, &relaxations);
        if (blocking == nullptr && scratch->last_blocker) {
            // Move the last blocker to the front, the rest in source order.
            const auto hint = std::find(relaxations.begin(),
                                        relaxations.end(),
                                        *scratch->last_blocker);
            if (hint != relaxations.end()) {
                std::rotate(relaxations.begin(), hint, hint + 1);
            }
        }
    }
    // Each relaxed execution is rebuilt into scratch->relax (kRelax
    // phase), then derived into scratch->derived (kJudge phase — the
    // original's relations are no longer needed at this point).
    for (const mtm::Relaxation& relaxation : relaxations) {
        const elt::Execution* relaxed = nullptr;
        {
            obs::ScopedPhase relax_phase(scratch->metrics, scratch->worker,
                                         obs::Phase::kRelax);
            relaxed = &mtm::apply_relaxation_into(
                execution, relaxation, model.vm_aware(), &scratch->relax);
        }
        if (relaxed->program.num_events() == 0) {
            continue;  // the relaxation emptied the test: trivially permitted
        }
        obs::ScopedPhase judge_phase(scratch->metrics, scratch->worker,
                                     obs::Phase::kJudge);
        elt::derive_into(*relaxed, model.derive_options(), &scratch->derived,
                         &scratch->relaxed_derive);
        // An ill-formed relaxed execution is trivially permitted (the
        // string API reported it as the "well_formed" pseudo-axiom, which
        // the old code did not count as still-forbidden either).
        const bool still_forbidden =
            scratch->derived.well_formed &&
            model.violated_mask(relaxed->program, scratch->derived,
                                &scratch->relaxed_derive.cycle) != 0;
        if (still_forbidden) {
            scratch->last_blocker = relaxation;
            if (blocking != nullptr) {
                *blocking = relaxation.describe(execution.program);
            }
            return false;
        }
    }
    return true;
}

/// One implementation behind both judge overloads: derive + verdict, then
/// the sweep. \p diagnostics selects whether the string fields (violated
/// names, blocking_relaxation) are filled — the scratch-reusing hot path
/// skips them.
MinimalityVerdict
judge_impl(const mtm::Model& model, const elt::Execution& execution,
           JudgeScratch* scratch, bool diagnostics)
{
    MinimalityVerdict verdict;
    {
        const obs::ScopedAllocSite alloc_site(
            obs::AllocSite::kSiteJudgeVerdict);
        obs::ScopedPhase judge_phase(scratch->metrics, scratch->worker,
                                     obs::Phase::kJudge);
        elt::derive_into(execution, model.derive_options(), &scratch->derived,
                         &scratch->derive);
        if (!scratch->derived.well_formed) {
            return verdict;  // not even a candidate
        }
        verdict.violated_mask = model.violated_mask(
            execution.program, scratch->derived, &scratch->derive.cycle);
        if (diagnostics) {
            verdict.violated = model.mask_names(verdict.violated_mask);
        }
        verdict.interesting =
            contains_write(execution.program) && verdict.violated_mask != 0;
        if (!verdict.interesting) {
            return verdict;
        }
    }
    verdict.minimal = sweep_relaxations(
        model, execution, scratch,
        diagnostics ? &verdict.blocking_relaxation : nullptr);
    return verdict;
}

}  // namespace

MinimalityVerdict
judge(const mtm::Model& model, const elt::Execution& execution)
{
    JudgeScratch scratch;
    return judge_impl(model, execution, &scratch, /*diagnostics=*/true);
}

MinimalityVerdict
judge(const mtm::Model& model, const elt::Execution& execution,
      JudgeScratch* scratch)
{
    return judge_impl(model, execution, scratch, /*diagnostics=*/false);
}

bool
is_minimal(const mtm::Model& model, const elt::Execution& execution,
           JudgeScratch* scratch)
{
    return sweep_relaxations(model, execution, scratch, nullptr);
}

}  // namespace transform::synth
