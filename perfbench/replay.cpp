#include "replay.h"

#include <algorithm>
#include <optional>

#include "common.h"
#include "elt/derive.h"
#include "elt/litmus.h"
#include "mtm/encoding.h"
#include "mtm/incremental.h"
#include "obs/alloc.h"
#include "sched/sharded_index.h"
#include "synth/canonical.h"
#include "synth/exec_enum.h"
#include "synth/minimality.h"
#include "synth/skeleton.h"

namespace perfbench {

using namespace transform;

namespace {

/// Adds the time and allocations of its scope to a layer.
class Span {
  public:
    explicit Span(Layer* layer)
        : layer_(layer), allocs_(obs::alloc_count()), start_(now_ns())
    {
    }
    ~Span()
    {
        layer_->nanos += now_ns() - start_;
        layer_->allocs += obs::alloc_count() - allocs_;
        ++layer_->calls;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Layer* layer_;
    std::uint64_t allocs_;
    std::uint64_t start_;
};

}  // namespace

ReplayedSuite
replay_suite(const mtm::Model& model, const std::string& axiom,
             const synth::SynthesisOptions& options, Layers* layers)
{
    const bool sat = options.backend == synth::Backend::kSat;
    const mtm::AxiomMask target = mtm::AxiomMask{1}
                                  << model.axiom_index(axiom);
    sched::ShardedKeyIndex index;
    synth::CanonicalScratch canonical;
    elt::DerivedRelations derived;
    elt::DeriveScratch derive;
    synth::JudgeScratch judge;
    mtm::IncrementalEncoding incremental;
    mtm::EncodingScratch encoding;
    if (sat) {
        // As the engine configures each worker's session.
        incremental.configure(&model, axiom, options.max_vas,
                              options.max_vas + options.max_fresh_pas);
        incremental.set_base_cache_capacity(options.sat_base_cache_capacity);
        incremental.set_timing(true);
        encoding.solver.set_timing(true);
    }

    // State of the candidate under evaluation, shared with consider().
    const elt::Program* program = nullptr;
    bool violating = false;
    bool accepted = false;
    elt::Execution witness;
    mtm::AxiomMask witness_mask = 0;
    std::uint64_t consider_nanos = 0;

    // The engine's per-execution step (find_witness): derive, verdict,
    // and the judge on executions that violate the target axiom; stops
    // at the first minimal one.
    const auto evaluate = [&](const elt::Execution& execution) {
        {
            const Span span(&layers->derive);
            elt::derive_into(execution, model.derive_options(), &derived,
                             &derive);
        }
        if (!derived.well_formed) {
            return true;
        }
        mtm::AxiomMask mask = 0;
        {
            const Span span(&layers->model);
            mask = model.violated_mask(*program, derived, &derive.cycle);
        }
        if ((mask & target) == 0) {
            return true;
        }
        violating = true;
        if (options.require_minimal) {
            bool minimal = false;
            {
                const Span span(&layers->judge);
                minimal = synth::judge(model, execution, &judge).minimal;
            }
            layers->minimal += minimal ? 1 : 0;
            if (!minimal) {
                return true;
            }
        }
        accepted = true;
        witness = execution;
        witness_mask = mask;
        return false;
    };
    const std::function<bool(const elt::Execution&)> consider =
        [&](const elt::Execution& execution) {
            const std::uint64_t start = now_ns();
            const bool more = evaluate(execution);
            consider_nanos += now_ns() - start;
            return more;
        };

    ReplayedSuite out;
    Funnel& funnel = out.funnel;
    std::uint64_t ticket = 0;
    const auto visit = [&](const elt::Program& candidate) {
        ++funnel.programs;
        ++layers->skeleton.calls;
        std::string key;
        {
            const Span span(&layers->canonical);
            key = synth::canonical_key(candidate, &canonical);
        }
        bool first = false;
        {
            const Span span(&layers->dedup);
            first = index.record(key, ticket++).is_min;
        }
        if (!first) {
            ++funnel.duplicate;
            ++layers->duplicates;
            return;
        }
        if (!synth::contains_write(candidate)) {
            ++funnel.no_write;
            return;
        }
        program = &candidate;
        violating = false;
        accepted = false;
        consider_nanos = 0;
        const std::uint64_t start = now_ns();
        if (!sat) {
            synth::ExecEnumStats stats;
            synth::for_each_execution(candidate, model.vm_aware(), consider,
                                      &stats);
            layers->exec_enum.nanos += now_ns() - start - consider_nanos;
            layers->exec_enum.calls += stats.executions;
            layers->pruned += stats.rejected;
        } else {
            incremental.enumerate(candidate, consider);
            if (accepted) {
                // The engine re-runs an accepted probe through a fresh
                // encoding; its solver order picks the witness.
                ++layers->sat_replays;
                accepted = false;
                mtm::ProgramEncoding fresh(candidate, &model, &encoding);
                fresh.enumerate(axiom, consider);
            }
            layers->sat.nanos += now_ns() - start - consider_nanos;
            ++layers->sat.calls;
        }
        if (accepted) {
            ++funnel.accepted;
            synth::SynthesizedTest test;
            test.witness = witness;
            test.canonical_key = key;
            test.size = candidate.num_events();
            test.violated = model.mask_names(witness_mask);
            out.tests.push_back(std::move(test));
        } else if (violating) {
            ++funnel.not_minimal;
        } else {
            ++funnel.no_violation;
        }
    };

    for (int size = options.min_bound; size <= options.bound; ++size) {
        const synth::SkeletonOptions skeleton =
            synth::engine_skeleton_options(model, axiom, options, size);
        std::uint64_t visit_nanos = 0;
        const std::uint64_t start = now_ns();
        synth::for_each_skeleton(skeleton, [&](const elt::Program& p) {
            const std::uint64_t visit_start = now_ns();
            visit(p);
            visit_nanos += now_ns() - visit_start;
            return true;
        });
        layers->skeleton.nanos += now_ns() - start - visit_nanos;
    }
    if (sat) {
        const sat::SolverStats probe = incremental.lifetime_stats();
        const sat::SolverStats fresh = encoding.solver.lifetime_stats();
        layers->sat_solve_nanos += probe.solve_nanos + fresh.solve_nanos;
        layers->sat_conflicts += probe.conflicts + fresh.conflicts;
        layers->sat_propagations += probe.propagations + fresh.propagations;
        layers->sat_bases_built += incremental.session_stats().bases_built;
    }
    std::sort(out.tests.begin(), out.tests.end(),
              [](const auto& a, const auto& b) {
                  return a.canonical_key < b.canonical_key;
              });
    return out;
}

void
replay_checks(const CheckModel& spec, const CheckModel& builtin,
              const std::vector<std::string>& texts, Layers* layers,
              std::vector<Verdict>* spec_verdicts,
              std::vector<Verdict>* twin_verdicts)
{
    elt::DerivedRelations derived;
    elt::DeriveScratch derive;
    const mtm::Model& model = *spec.model;
    for (const std::string& text : texts) {
        std::optional<elt::ParsedLitmus> parsed;
        bool valid = false;
        {
            const Span span(&layers->litmus);
            parsed = elt::parse_litmus(text);
            valid = parsed &&
                    parsed->program.validate(model.vm_aware()).empty();
        }
        if (!valid) {
            spec_verdicts->emplace_back();
            twin_verdicts->emplace_back();
            continue;
        }
        Verdict verdict = start_verdict(spec.axioms);
        Verdict twin = start_verdict(builtin.axioms);
        const elt::Program& program = parsed->program;
        std::uint64_t consider_nanos = 0;
        synth::ExecEnumStats stats;
        const std::uint64_t start = now_ns();
        synth::for_each_execution(
            program, model.vm_aware(),
            [&](const elt::Execution& execution) {
                const std::uint64_t consider_start = now_ns();
                {
                    const Span span(&layers->derive);
                    elt::derive_into(execution, model.derive_options(),
                                     &derived, &derive);
                }
                std::uint32_t mask = kIllFormed;
                std::uint32_t twin_mask = kIllFormed;
                if (derived.well_formed) {
                    {
                        const Span span(&layers->spec);
                        mask = spec.remap(model.violated_mask(
                            program, derived, &derive.cycle));
                    }
                    const Span span(&layers->model);
                    twin_mask = builtin.remap(builtin.model->violated_mask(
                        program, derived, &derive.cycle));
                }
                add_execution(mask, &verdict);
                add_execution(twin_mask, &twin);
                consider_nanos += now_ns() - consider_start;
                return true;
            },
            &stats);
        layers->exec_enum.nanos += now_ns() - start - consider_nanos;
        layers->exec_enum.calls += stats.executions;
        layers->pruned += stats.rejected;
        spec_verdicts->push_back(std::move(verdict));
        twin_verdicts->push_back(std::move(twin));
    }
}

}  // namespace perfbench
