#include "check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <random>

#include "common.h"
#include "elt/derive.h"
#include "elt/litmus.h"
#include "synth/exec_enum.h"
#include "synth/skeleton.h"

namespace perfbench {

using namespace transform;

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Systematic calibration stride and seeded pool stride of
/// sample_programs, in programs per shard stream.
constexpr std::uint64_t kCalibrationStride = 1000;
constexpr std::uint64_t kPoolStride = 711;

/// Per-thread buffers of the check path.
struct CheckScratch {
    elt::DerivedRelations derived;
    elt::DeriveScratch derive;
};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Checks one litmus text (check_batch).
Verdict
check_litmus(const CheckModel& model, const std::string& text,
             CheckScratch* scratch)
{
    const auto parsed = elt::parse_litmus(text);
    if (!parsed || !parsed->program.validate(model.model->vm_aware()).empty()) {
        return Verdict{};
    }
    Verdict verdict = start_verdict(model.axioms);
    const elt::Program& program = parsed->program;
    synth::for_each_execution(
        program, model.model->vm_aware(), [&](const elt::Execution& e) {
            elt::derive_into(e, model.model->derive_options(),
                             &scratch->derived, &scratch->derive);
            const std::uint32_t mask =
                scratch->derived.well_formed
                    ? model.remap(model.model->violated_mask(
                          program, scratch->derived, &scratch->derive.cycle))
                    : kIllFormed;
            add_execution(mask, &verdict);
            return true;
        });
    return verdict;
}

}  // namespace

std::uint32_t
CheckModel::remap(mtm::AxiomMask mask) const
{
    std::uint32_t out = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
        if ((mask >> i) & 1u) {
            out |= 1u << slot[i];
        }
    }
    return out;
}

bool
make_check_model(const mtm::Model& model,
                 const std::vector<std::string>& order, CheckModel* out)
{
    out->model = &model;
    out->axioms = static_cast<int>(order.size());
    out->slot.clear();
    if (model.axioms().size() != order.size()) {
        return false;
    }
    for (const mtm::Axiom& axiom : model.axioms()) {
        const auto it = std::find(order.begin(), order.end(), axiom.name);
        if (it == order.end()) {
            return false;
        }
        out->slot.push_back(static_cast<int>(it - order.begin()));
    }
    return true;
}

Verdict
start_verdict(int axioms)
{
    Verdict verdict;
    verdict.parsed = true;
    verdict.violations.assign(static_cast<std::size_t>(axioms), 0);
    verdict.digest = kFnvOffset;
    return verdict;
}

void
add_execution(std::uint32_t common_mask, Verdict* verdict)
{
    ++verdict->executions;
    if (common_mask == 0) {
        ++verdict->permitted;
    }
    for (std::size_t i = 0; i < verdict->violations.size(); ++i) {
        verdict->violations[i] += (common_mask >> i) & 1u;
    }
    verdict->digest = (verdict->digest ^ common_mask) * kFnvPrime;
}

BatchResult
check_batch(const CheckModel& model, const std::vector<std::string>& texts,
            int workers)
{
    BatchResult result;
    result.verdicts.resize(texts.size());
    result.latency_ms.resize(texts.size());
    sched::WorkStealingPool pool(workers);
    std::vector<CheckScratch> scratch(
        static_cast<std::size_t>(pool.workers()));
    std::vector<sched::WorkStealingPool::Job> jobs;
    jobs.reserve(texts.size());
    for (std::size_t i = 0; i < texts.size(); ++i) {
        jobs.push_back([&, i](int worker) {
            const std::uint64_t start = now_ns();
            result.verdicts[i] = check_litmus(
                model, texts[i], &scratch[static_cast<std::size_t>(worker)]);
            result.latency_ms[i] =
                static_cast<double>(now_ns() - start) * 1e-6;
        });
    }
    const auto group = pool.make_group();
    pool.submit(group, std::move(jobs));
    pool.wait(group);
    result.scheduler = pool.group_stats(group);
    return result;
}

std::vector<elt::Program>
sample_programs(int bound, std::uint64_t seed, int target, int workers)
{
    // The default synthesis vocabulary (two cores, two VAs, one fresh PA,
    // RMWs and fences) with no per-axiom pruning.
    synth::SkeletonOptions skeleton;
    skeleton.num_events = bound;
    const std::vector<synth::SkeletonShard> shards =
        synth::partition_skeletons(skeleton, 256);

    // One pass over the whole space, shards in parallel. Positions are
    // per shard, so the selection does not depend on scheduling.
    struct Picked {
        std::vector<elt::Program> calibration;
        std::vector<elt::Program> pool;
    };
    std::vector<Picked> picked(shards.size());
    {
        sched::WorkStealingPool pool(workers);
        std::vector<sched::WorkStealingPool::Job> jobs;
        for (std::size_t s = 0; s < shards.size(); ++s) {
            jobs.push_back([&, s](int) {
                std::uint64_t position = 0;
                synth::for_each_skeleton(
                    shards[s], [&](const elt::Program& program) {
                        const std::uint64_t j = position++;
                        if (j % kCalibrationStride == 0) {
                            picked[s].calibration.push_back(program);
                        }
                        if (splitmix64(seed ^ splitmix64((s << 40) ^ j)) %
                                kPoolStride ==
                            0) {
                            picked[s].pool.push_back(program);
                        }
                        return true;
                    });
            });
        }
        pool.run_batch(std::move(jobs));
    }
    std::vector<elt::Program> calibration;
    std::vector<elt::Program> candidates;
    for (Picked& p : picked) {
        calibration.insert(calibration.end(), p.calibration.begin(),
                           p.calibration.end());
        candidates.insert(candidates.end(), p.pool.begin(), p.pool.end());
    }

    // Execution counts of every calibration and pool program, bucketed
    // by half octave: bit_width(n^2) = floor(2 log2 n) + 1, so programs in
    // one bucket differ in cost by at most about 1.4x.
    const auto buckets_of = [workers](const std::vector<elt::Program>& programs) {
        std::vector<int> bucket(programs.size());
        sched::WorkStealingPool pool(workers);
        std::vector<sched::WorkStealingPool::Job> jobs;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            jobs.push_back([&, i](int) {
                std::uint64_t executions = 0;
                synth::for_each_execution(programs[i], true,
                                          [&](const elt::Execution&) {
                                              ++executions;
                                              return true;
                                          });
                bucket[i] = std::bit_width(executions * executions);
            });
        }
        pool.run_batch(std::move(jobs));
        return bucket;
    };
    const std::vector<int> calibration_bucket = buckets_of(calibration);
    const std::vector<int> candidate_bucket = buckets_of(candidates);

    std::map<int, std::vector<std::size_t>, std::greater<>> calibration_members;
    std::map<int, std::vector<std::size_t>> candidate_members;
    for (std::size_t i = 0; i < calibration.size(); ++i) {
        calibration_members[calibration_bucket[i]].push_back(i);
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        candidate_members[candidate_bucket[i]].push_back(i);
    }
    // Costliest bucket first: checked in this order, the few programs that
    // each take a large share of a call start early, so where the seed
    // happened to put them does not decide the call's wall time.
    std::mt19937_64 rng(seed);
    std::vector<elt::Program> sample;
    for (auto& [bucket, members] : calibration_members) {
        // At least one program per non-empty bucket, so the rare costliest
        // programs are always in the sample.
        const auto quota = static_cast<std::size_t>(std::max<long long>(
            1, std::llround(static_cast<double>(target) *
                            static_cast<double>(members.size()) /
                            static_cast<double>(calibration.size()))));
        std::vector<std::size_t>& pool = candidate_members[bucket];
        std::shuffle(pool.begin(), pool.end(), rng);
        std::shuffle(members.begin(), members.end(), rng);
        for (std::size_t k = 0; k < quota; ++k) {
            // A bucket the seeded pool under-fills is topped up from the
            // calibration sample itself.
            sample.push_back(k < pool.size()
                                 ? candidates[pool[k]]
                                 : calibration[members[(k - pool.size()) %
                                                       members.size()]]);
        }
    }
    return sample;
}

}  // namespace perfbench
