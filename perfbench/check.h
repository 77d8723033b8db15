/// \file
/// The litmus check path, as elt_check runs it on a litmus file (parse,
/// validate, enumerate every execution, evaluate each one under the
/// model), and the seeded bound-10 program sample the check-mtm workload
/// feeds it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "elt/program.h"
#include "mtm/model.h"
#include "sched/scheduler.h"

namespace perfbench {

/// What one program's check found. Two checks agree when every field is
/// equal; the oracle compares the `.mtm` model against its builtin twin.
struct Verdict {
    bool parsed = false;
    std::uint64_t executions = 0;
    std::uint64_t permitted = 0;
    /// Violating executions per axiom, in the builtin x86t_elt order.
    std::vector<std::uint64_t> violations;
    /// FNV-1a over each execution's violated-axiom set (builtin order), in
    /// enumeration order: equal digests mean equal per-execution verdicts.
    std::uint64_t digest = 0;

    bool operator==(const Verdict&) const = default;
};

/// A model whose verdicts are reported in a common axiom order, so a
/// `.mtm` model and its builtin twin can be compared bit for bit.
struct CheckModel {
    const transform::mtm::Model* model = nullptr;
    /// model axiom index -> position in the common order.
    std::vector<int> slot;
    int axioms = 0;

    /// Re-expresses \p mask (model bit order) in the common order.
    std::uint32_t remap(transform::mtm::AxiomMask mask) const;
};

/// Binds \p model to the axiom order \p order. Returns false when the
/// model lacks one of the names or has others.
bool make_check_model(const transform::mtm::Model& model,
                      const std::vector<std::string>& order, CheckModel* out);

/// Stands in for the violated set of an execution the derivation rejects
/// (the enumerator never yields one; distinct so a regression shows).
inline constexpr std::uint32_t kIllFormed = 1u << 31;

/// The verdict of a parsed, valid program before any execution is seen.
Verdict start_verdict(int axioms);

/// Folds one execution's violated set (common order) into \p verdict.
/// Shared with the traced replay, which evaluates executions itself.
void add_execution(std::uint32_t common_mask, Verdict* verdict);

/// One parallel check call: every text checked once on \p workers
/// scheduler workers, one job per program. An unparsable or invalid
/// program gets a verdict with parsed == false.
struct BatchResult {
    std::vector<Verdict> verdicts;
    std::vector<double> latency_ms;  ///< per program, service time
    transform::sched::SchedulerStats scheduler;
};
BatchResult check_batch(const CheckModel& model,
                        const std::vector<std::string>& texts, int workers);

/// The check-mtm input: about \p target programs of exactly \p bound
/// events from the default x86t_elt skeleton space, drawn with \p seed.
///
/// The draw is stratified by execution count. Per-program check cost is
/// heavy-tailed (at bound 10 the mean program has about 24 executions and
/// the largest over 9,000), so a plain random sample of 5k programs
/// varies by over 10% in total work from seed to seed. Instead a fixed
/// 1-in-1000 systematic sample of the whole space sets how many programs
/// each half-octave execution-count bucket receives, and the seed picks
/// which programs fill each bucket from a seeded 1-in-711 pool. Every seed
/// therefore checks the same cost profile with different programs. The
/// programs come costliest bucket first.
std::vector<transform::elt::Program> sample_programs(int bound,
                                                     std::uint64_t seed,
                                                     int target, int workers);

}  // namespace perfbench
