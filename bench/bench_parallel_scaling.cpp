/// \file
/// Parallel-scaling bench for the v2 synthesis runtime: wall time of the
/// full all-axiom suite sweep at 1/2/4/8 scheduler jobs on the fixture
/// MTMs, reporting speedup over the sequential (jobs=1) run. The sweep
/// goes through synthesize_all_parallel — one fused search of every axiom
/// on ONE work-stealing pool (Chase-Lev deques over one static shard
/// partition per event bound) — the paper's Alloy pipeline took a week
/// single-threaded at bound 11; the point of the runtime is that added
/// cores translate into wall-clock speedup while the synthesized suite,
/// the candidates searched and the shard jobs run stay identical at every
/// job count.
///
/// Knobs: TRANSFORM_SCALING_BOUND (default 6), TRANSFORM_SCALING_MODEL
/// (x86t_elt | x86tso, default x86t_elt), TRANSFORM_SCALING_JSON (output
/// path, default BENCH_scaling.json — the machine-readable run record),
/// TRANSFORM_SCALING_REQUIRE_SPEEDUP (default 1; 0 makes the >=2x
/// throughput check report-only — for smoke runs whose workloads are too
/// small to out-measure scheduler spin-up and CI noise).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "mtm/model.h"
#include "synth/engine.h"
#include "util/stopwatch.h"

namespace {

using namespace transform;

/// The determinism contract's observable (bench_common.h): canonical keys,
/// order, sizes, violated-axiom lists across every suite of a sweep point.
std::string
sweep_fingerprint(const std::vector<synth::SuiteResult>& suites)
{
    return bench::suite_fingerprint(suites, /*include_violated=*/true);
}

}  // namespace

int
main()
{
    const int bound = bench::env_int("TRANSFORM_SCALING_BOUND", 6);
    const char* model_env = std::getenv("TRANSFORM_SCALING_MODEL");
    const bool use_tso =
        model_env != nullptr && std::strcmp(model_env, "x86tso") == 0;
    const mtm::Model model = use_tso ? mtm::x86tso() : mtm::x86t_elt();
    const unsigned hw = std::thread::hardware_concurrency();

    bench::banner("parallel_scaling",
                  "synthesis-loop scaling (TransForm section IV at scale)",
                  "one fused search sweeps all axioms; suites are "
                  "identical at every job count");
    std::printf("model %s, bounds %d..%d, %u hardware thread(s)\n\n",
                model.name().c_str(), model.vm_aware() ? 4 : 2, bound, hw);

    const std::vector<int> job_counts = {1, 2, 4, 8};
    std::vector<double> seconds;
    std::vector<bench::JsonPair> json;
    json.push_back(bench::jstr("bench", "parallel_scaling"));
    json.push_back(bench::jstr("model", model.name()));
    json.push_back(bench::jint("bound", static_cast<std::uint64_t>(bound)));
    json.push_back(bench::jint("hardware_threads", hw));
    std::string reference_fp;
    std::uint64_t reference_programs = 0;
    std::uint64_t reference_shards = 0;
    std::printf("%8s %12s %10s %9s %9s %10s\n", "jobs", "wall (s)",
                "speedup", "tests", "shards", "steals");
    bool ok = true;
    for (const int jobs : job_counts) {
        synth::SynthesisOptions opt;
        opt.min_bound = model.vm_aware() ? 4 : 2;
        opt.bound = bound;
        opt.jobs = jobs;
        util::Stopwatch watch;
        const auto suites = synth::synthesize_all_parallel(model, opt);
        const double elapsed = watch.elapsed_seconds();
        seconds.push_back(elapsed);
        std::uint64_t steals = 0;
        std::uint64_t shard_jobs = 0;
        std::uint64_t programs = 0;
        int tests = 0;
        for (const auto& suite : suites) {
            steals += suite.scheduler.steals;
            shard_jobs += suite.scheduler.jobs_run;
            programs += suite.programs_considered;
            tests += static_cast<int>(suite.tests.size());
        }
        std::printf("%8d %12.3f %9.2fx %9d %9llu %10llu\n", jobs, elapsed,
                    seconds.front() / elapsed, tests,
                    static_cast<unsigned long long>(shard_jobs),
                    static_cast<unsigned long long>(steals));
        const std::string jobs_key = "jobs_" + std::to_string(jobs);
        json.push_back(bench::jnum(jobs_key + "_seconds", elapsed));
        json.push_back(bench::jnum(jobs_key + "_programs_per_sec",
                                   static_cast<double>(programs) / elapsed));
        json.push_back(
            bench::jnum(jobs_key + "_speedup", seconds.front() / elapsed));
        const std::string fp = sweep_fingerprint(suites);
        if (jobs == job_counts.front()) {
            reference_fp = fp;
            reference_programs = programs;
            reference_shards = shard_jobs;
        } else {
            const std::string at = " at jobs=" + std::to_string(jobs);
            ok = bench::check(("suite byte-identical" + at).c_str(),
                              fp == reference_fp) &&
                 ok;
            ok = bench::check(("candidates counted once" + at).c_str(),
                              programs == reference_programs) &&
                 ok;
            ok = bench::check(("same shard jobs" + at).c_str(),
                              shard_jobs == reference_shards) &&
                 ok;
        }
    }
    std::printf("\n");

    // Speedup needs cores to scale onto; the determinism checks above run
    // everywhere, the throughput check only where 4 workers can actually
    // run in parallel AND the caller asked for it (smoke runs use tiny
    // bounds where spin-up and noisy neighbors dominate wall time).
    const bool require_speedup =
        bench::env_int("TRANSFORM_SCALING_REQUIRE_SPEEDUP", 1) != 0;
    const double speedup4 = seconds[0] / seconds[2];
    if (hw >= 4 && require_speedup) {
        ok = bench::check(">= 2x speedup at 4 jobs", speedup4 >= 2.0) && ok;
    } else {
        std::printf("  [SKIP] >= 2x speedup at 4 jobs (%s; measured %.2fx)\n",
                    hw < 4 ? "needs >= 4 hardware threads"
                           : "report-only: TRANSFORM_SCALING_REQUIRE_SPEEDUP=0",
                    speedup4);
    }
    json.push_back(bench::jbool("checks_ok", ok));
    const char* json_env = std::getenv("TRANSFORM_SCALING_JSON");
    bench::write_json(json_env != nullptr ? json_env : "BENCH_scaling.json",
                      json);
    std::printf("\nparallel_scaling overall: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
