/// \file
/// The benchmark runner: one workload per process, driven through the
/// library's public API on at most four worker threads.
///
///   perfbench_runner --workload synth-enum|synth-sat|check-mtm
///                    --seed N --seconds S --trace 0|1
///
/// Untraced runs (--trace 0) repeat the workload's timed call until S
/// seconds have passed and print the end-to-end metrics. Traced runs
/// (--trace 1) run the call once, replay it on one thread through each
/// layer's public functions (replay.h) and print the per-layer metrics.
/// Both kinds check their output; the last stdout line is the JSON result
/// (common.h). Workloads, metrics and the layer map: perfbench/README.md.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common.h"
#include "elt/litmus.h"
#include "elt/serialize.h"
#include "mtm/model.h"
#include "obs/metrics.h"
#include "replay.h"
#include "spec/registry.h"
#include "synth/engine.h"
#include "synth/minimality.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace transform;
using perfbench::Clock;
using perfbench::Report;

constexpr int kWorkers = 4;
/// The `.mtm` twin of the builtin x86t_elt, relative to the checkout root.
constexpr const char* kSpecPath = "examples/models/x86t_elt.mtm";
/// Set-up is repeated in rounds of this many set-ups pinned to each CPU in
/// turn, for at least kSetupSeconds, and the median reported: one set-up
/// takes about 20 microseconds, too little to time once, and the machine's
/// speed moves within a second.
constexpr int kSetupRepeats = 50;
constexpr double kSetupSeconds = 1.0;
constexpr int kCheckBound = 10;
constexpr int kCheckSample = 5000;
/// Synthesis workloads time their suites' checks after the timed calls, in
/// rounds of one pass pinned to each CPU in turn, on one thread, for at
/// least kLatencySeconds and kLatencyRounds. Their suites hold only a few
/// hundred programs, so p99 rests on the slowest two or three: a check
/// sharing the machine with other workers, or timed within one fast or slow
/// spell of the machine (a round takes milliseconds), moves it by tens of
/// percent.
constexpr int kLatencyRounds = 10;
constexpr double kLatencySeconds = 3.0;

struct Workload {
    std::string name;
    bool synthesis;
    synth::Backend backend;
    int bound;
};

const std::vector<Workload> kWorkloads = {
    {"synth-enum", true, synth::Backend::kEnumerative, 8},
    {"synth-sat", true, synth::Backend::kSat, 7},
    {"check-mtm", false, synth::Backend::kEnumerative, kCheckBound},
};

struct Args {
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

bool
parse_args(int argc, char** argv, Args* args)
{
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            for (const Workload& w : kWorkloads) {
                if (w.name == value) {
                    args->workload = &w;
                }
            }
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = !value.empty() && *end == '\0';
        } else if (flag == "--seconds") {
            args->seconds = std::strtod(value.c_str(), &end);
            have_seconds = !value.empty() && *end == '\0' && args->seconds > 0;
        } else if (flag == "--trace") {
            args->trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && args->workload != nullptr && have_seed &&
           have_seconds && have_trace;
}

/// The resolved models. Check models point into this object, so it is
/// built in place and never moved.
struct Models {
    std::optional<mtm::Model> builtin;  ///< builtin x86t_elt (synthesis)
    std::optional<mtm::Model> spec;     ///< examples/models/x86t_elt.mtm
    perfbench::CheckModel builtin_check;
    perfbench::CheckModel spec_check;
    double setup_s = 0;     ///< median time to resolve both models
    double compile_ms = 0;  ///< median time to read, parse, compile the .mtm
};

/// Resolves both models once, timing the whole and the `.mtm` part.
bool
set_up_once(Models* models, std::vector<double>* setup,
            std::vector<double>* compile)
{
    std::string error;
    const auto start = Clock::now();
    auto builtin = spec::resolve_model("x86t_elt", &error);
    const auto middle = Clock::now();
    auto spec = builtin ? spec::resolve_model(kSpecPath, &error) : std::nullopt;
    const auto end = Clock::now();
    if (!builtin || !spec) {
        std::fprintf(stderr, "model set-up failed: %s\n", error.c_str());
        return false;
    }
    setup->push_back(std::chrono::duration<double>(end - start).count());
    compile->push_back(
        std::chrono::duration<double, std::milli>(end - middle).count());
    models->builtin.emplace(std::move(builtin->model));
    models->spec.emplace(std::move(spec->model));
    return true;
}

/// Runs \p body once pinned to each CPU the process may use, then restores
/// the affinity (worker pools inherit it). The vCPUs of a shared machine
/// differ in speed, so a median over one CPU's samples moves with the CPU
/// the run happened to start on.
template <typename Body>
void
on_each_cpu(const Body& body)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        body();
        return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) {
            continue;
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) == 0) {
            body();
        }
    }
    sched_setaffinity(0, sizeof allowed, &allowed);
}

bool
set_up(Models* models)
{
    std::vector<double> setup;
    std::vector<double> compile;
    bool ok = true;
    const auto start = Clock::now();
    do {
        on_each_cpu([&] {
            for (int i = 0; ok && i < kSetupRepeats; ++i) {
                ok = set_up_once(models, &setup, &compile);
            }
        });
    } while (ok && perfbench::seconds_since(start) < kSetupSeconds);
    if (!ok || setup.empty()) {
        return false;
    }
    models->setup_s = perfbench::median(setup);
    models->compile_ms = perfbench::median(compile);
    const std::vector<std::string> order = mtm::x86t_elt_axiom_names();
    if (!perfbench::make_check_model(*models->builtin, order,
                                     &models->builtin_check) ||
        !perfbench::make_check_model(*models->spec, order,
                                     &models->spec_check)) {
        std::fprintf(stderr, "%s does not define the x86t_elt axioms\n",
                     kSpecPath);
        return false;
    }
    return true;
}

synth::SynthesisOptions
synthesis_options(const Workload& workload)
{
    synth::SynthesisOptions options;
    options.min_bound = 4;  // as elt_synth searches a VM-aware model
    options.bound = workload.bound;
    options.backend = workload.backend;
    options.jobs = kWorkers;
    return options;
}

bool
same_tests(const std::vector<synth::SynthesizedTest>& a,
           const std::vector<synth::SynthesizedTest>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].canonical_key != b[i].canonical_key ||
            a[i].size != b[i].size || a[i].violated != b[i].violated ||
            elt::execution_to_xml(a[i].witness) !=
                elt::execution_to_xml(b[i].witness)) {
            return false;
        }
    }
    return true;
}

bool
same_suites(const std::vector<synth::SuiteResult>& a,
            const std::vector<synth::SuiteResult>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].axiom != b[i].axiom ||
            a[i].programs_considered != b[i].programs_considered ||
            !same_tests(a[i].tests, b[i].tests)) {
            return false;
        }
    }
    return true;
}

const synth::SuiteResult*
find_suite(const std::vector<synth::SuiteResult>& suites,
           const std::string& axiom)
{
    for (const synth::SuiteResult& suite : suites) {
        if (suite.axiom == axiom) {
            return &suite;
        }
    }
    return nullptr;
}

std::uint64_t
programs_considered(const std::vector<synth::SuiteResult>& suites)
{
    std::uint64_t programs = 0;
    for (const synth::SuiteResult& suite : suites) {
        programs += suite.programs_considered;
    }
    return programs;
}

/// The correctness oracle of the synthesis workloads. It trusts none of
/// the engine's bookkeeping: every witness is re-judged by the diagnostic
/// judge, the paper's Fig. 9a shape must hold, and under SAT the suites
/// must hold the same (key, size) pairs as the enumerative backend's.
void
check_suites(const Workload& workload, const Models& models,
             const std::vector<synth::SuiteResult>& suites, Report* report)
{
    for (const synth::SuiteResult& suite : suites) {
        report->check(suite.complete && !suite.cancelled &&
                          suite.failures.empty(),
                      suite.axiom + " suite complete");
        std::uint64_t bad = 0;
        for (const synth::SynthesizedTest& test : suite.tests) {
            const synth::MinimalityVerdict verdict =
                synth::judge(*models.builtin, test.witness);
            const bool names_axiom =
                std::find(verdict.violated.begin(), verdict.violated.end(),
                          suite.axiom) != verdict.violated.end();
            if (!verdict.interesting || !verdict.minimal || !names_axiom ||
                verdict.violated != test.violated) {
                ++bad;
            }
        }
        report->tally(suite.tests.size(), bad,
                      suite.axiom + " witnesses re-judged");
    }
    const synth::SuiteResult* tlb = find_suite(suites, "tlb_causality");
    report->check(tlb != nullptr && tlb->tests.size() == 5,
                  "tlb_causality suite has 5 tests (Fig. 9a)");
    const synth::SuiteResult* sc = find_suite(suites, "sc_per_loc");
    bool largest = sc != nullptr;
    for (const synth::SuiteResult& suite : suites) {
        largest = largest && suite.tests.size() <= sc->tests.size();
    }
    report->check(largest, "sc_per_loc is the largest suite (Fig. 9a)");

    if (workload.backend == synth::Backend::kSat) {
        synth::SynthesisOptions options = synthesis_options(workload);
        options.backend = synth::Backend::kEnumerative;
        const std::vector<synth::SuiteResult> reference =
            synth::synthesize_all_parallel(*models.builtin, options);
        bool equal = reference.size() == suites.size();
        for (std::size_t i = 0; equal && i < suites.size(); ++i) {
            std::set<std::pair<std::string, int>> sat_set;
            std::set<std::pair<std::string, int>> enum_set;
            for (const auto& test : suites[i].tests) {
                sat_set.emplace(test.canonical_key, test.size);
            }
            for (const auto& test : reference[i].tests) {
                enum_set.emplace(test.canonical_key, test.size);
            }
            equal = sat_set == enum_set;
        }
        report->check(equal, "SAT and enum suites hold the same (key, size) "
                             "pairs");
    }
}

/// A program's latency is the fastest of its checks in the run: its
/// service time with the least interference from the shared machine, whose
/// speed moves by a third within seconds. The median of its checks moved
/// with the spells a run happened to catch, by 18% from run to run.
std::vector<double>
program_latencies(const std::vector<std::vector<double>>& samples)
{
    std::vector<double> latency;
    latency.reserve(samples.size());
    for (const std::vector<double>& checks : samples) {
        latency.push_back(*std::min_element(checks.begin(), checks.end()));
    }
    return latency;
}

void
add_latencies(const perfbench::BatchResult& batch,
              std::vector<std::vector<double>>* samples)
{
    samples->resize(batch.latency_ms.size());
    for (std::size_t i = 0; i < batch.latency_ms.size(); ++i) {
        (*samples)[i].push_back(batch.latency_ms[i]);
    }
}

/// The distinct tests of a synthesis call, checked through the check
/// path against the builtin twin as a user checks a suite. Every program
/// must also show an execution violating each axiom whose suite holds it.
struct SuiteCheck {
    std::vector<std::string> texts;
    std::vector<std::uint32_t> required;  ///< axiom bits, common order
    std::vector<perfbench::Verdict> twin;
};

SuiteCheck
prepare_suite_check(const Models& models,
                    const std::vector<synth::SuiteResult>& suites,
                    Report* report)
{
    SuiteCheck check;
    std::map<std::string, std::size_t> index;
    const std::vector<std::string> order = mtm::x86t_elt_axiom_names();
    for (const synth::SuiteResult& suite : suites) {
        const auto slot = static_cast<std::uint32_t>(
            std::find(order.begin(), order.end(), suite.axiom) -
            order.begin());
        for (const synth::SynthesizedTest& test : suite.tests) {
            auto [it, fresh] =
                index.emplace(test.canonical_key, check.texts.size());
            if (fresh) {
                check.texts.push_back(elt::program_to_litmus(
                    test.witness.program,
                    "t" + std::to_string(check.texts.size())));
                check.required.push_back(0);
            }
            check.required[it->second] |= 1u << slot;
        }
    }
    report->check(!check.texts.empty(), "the suites hold tests to check");
    check.twin =
        perfbench::check_batch(models.builtin_check, check.texts, kWorkers)
            .verdicts;
    return check;
}

/// Checks every test once under the `.mtm` model, on one thread (it
/// inherits the caller's affinity).
void
check_pass(const Models& models, const SuiteCheck& check, Report* report,
           std::vector<std::vector<double>>* samples)
{
    const perfbench::BatchResult batch =
        perfbench::check_batch(models.spec_check, check.texts, 1);
    add_latencies(batch, samples);
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < check.texts.size(); ++i) {
        const perfbench::Verdict& v = batch.verdicts[i];
        bool ok = v.parsed && v == check.twin[i];
        for (std::size_t a = 0; ok && a < v.violations.size(); ++a) {
            ok = ((check.required[i] >> a) & 1u) == 0 || v.violations[a] > 0;
        }
        bad += ok ? 0 : 1;
    }
    report->tally(check.texts.size(), bad,
                  "synthesized tests checked against the builtin twin");
}

std::vector<std::string>
sample_texts(std::uint64_t seed)
{
    std::vector<std::string> texts;
    for (const elt::Program& program :
         perfbench::sample_programs(kCheckBound, seed, kCheckSample,
                                    kWorkers)) {
        texts.push_back(elt::program_to_litmus(
            program, "s" + std::to_string(texts.size())));
    }
    return texts;
}

std::uint64_t
count_mismatches(const std::vector<perfbench::Verdict>& got,
                 const std::vector<perfbench::Verdict>& want)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        bad += got[i].parsed && got[i] == want[i] ? 0 : 1;
    }
    return bad;
}

void
end_to_end_metrics(const Models& models, const std::vector<double>& walls,
                   const std::vector<double>& cpus, double programs_per_call,
                   double peak_rss_mb, const std::vector<double>& latency,
                   Report* report)
{
    const double wall = perfbench::median(walls);
    report->metric("wall_s", wall, "s");
    report->metric("programs_per_s", perfbench::ratio(programs_per_call, wall),
                   "1/s");
    report->metric("cpu_s", perfbench::median(cpus), "s");
    report->metric("setup_s", models.setup_s, "s");
    report->metric("peak_rss_mb", peak_rss_mb, "MiB");
    report->metric("check_p50_ms", perfbench::quantile(latency, 0.5), "ms");
    report->metric("check_p99_ms", perfbench::quantile(latency, 0.99), "ms");
    std::fprintf(stderr,
                 "%zu timed call(s); wall_s median %.4f; %zu programs' "
                 "latencies, largest %.3f ms\n",
                 walls.size(), wall, latency.size(),
                 perfbench::quantile(latency, 1.0));
}

void
run_synthesis(const Workload& workload, const Models& models,
              const Args& args, Report* report)
{
    const synth::SynthesisOptions options = synthesis_options(workload);
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<synth::SuiteResult> first;
    SuiteCheck check;
    std::vector<std::vector<double>> samples;
    double rss = 0;
    const auto start = Clock::now();
    do {
        const double cpu = perfbench::cpu_seconds();
        const auto call = Clock::now();
        std::vector<synth::SuiteResult> suites =
            synth::synthesize_all_parallel(*models.builtin, options);
        walls.push_back(perfbench::seconds_since(call));
        cpus.push_back(perfbench::cpu_seconds() - cpu);
        if (first.empty()) {
            // The peak of one call: later calls overlap the suites kept
            // from this one, and their allocator state varies run to run.
            rss = perfbench::peak_rss_mb();
            first = std::move(suites);
            check = prepare_suite_check(models, first, report);
        } else {
            report->check(same_suites(first, suites),
                          "every call synthesizes the same suites");
        }
    } while (perfbench::seconds_since(start) < args.seconds);
    const auto checks = Clock::now();
    for (int round = 0; round < kLatencyRounds ||
                        perfbench::seconds_since(checks) < kLatencySeconds;
         ++round) {
        on_each_cpu([&] { check_pass(models, check, report, &samples); });
    }
    check_suites(workload, models, first, report);
    end_to_end_metrics(models, walls, cpus,
                       static_cast<double>(programs_considered(first)), rss,
                       program_latencies(samples), report);
}

void
run_check(const Models& models, const Args& args, Report* report)
{
    const std::vector<std::string> texts = sample_texts(args.seed);
    const perfbench::BatchResult twin =
        perfbench::check_batch(models.builtin_check, texts, kWorkers);
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<std::vector<double>> samples;
    const auto start = Clock::now();
    do {
        const double cpu = perfbench::cpu_seconds();
        const auto call = Clock::now();
        const perfbench::BatchResult batch =
            perfbench::check_batch(models.spec_check, texts, kWorkers);
        walls.push_back(perfbench::seconds_since(call));
        cpus.push_back(perfbench::cpu_seconds() - cpu);
        add_latencies(batch, &samples);
        report->tally(texts.size(),
                      count_mismatches(batch.verdicts, twin.verdicts),
                      "check verdicts match the builtin twin");
    } while (perfbench::seconds_since(start) < args.seconds);
    end_to_end_metrics(models, walls, cpus, static_cast<double>(texts.size()),
                       perfbench::peak_rss_mb(), program_latencies(samples),
                       report);
}

// ------------------------------------------------------------- traced

/// Engine and scheduler numbers of the traced run that the replay cannot
/// see: the engine's own phase table (collect_metrics on), and scheduler
/// counters and timings of the untimed-instrumentation call.
struct EngineSide {
    obs::PhaseTotals phases;
    std::uint64_t jobs_run = 0;
    std::uint64_t steals = 0;
    std::uint64_t skip_replays = 0;
    std::uint64_t programs = 0;
    double wall = 0;
    double cpu = 0;
    double metrics_overhead = 0;  ///< wall with collect_metrics / without
};

/// Prints the engine's own phase table (synthesis only) beside the
/// replay's self times of the layers each phase covers.
void
print_beside(const EngineSide& engine, const perfbench::Layers& layers)
{
    const auto seconds = [](std::uint64_t nanos) {
        return static_cast<double>(nanos) * 1e-9;
    };
    const auto phase = [&](obs::Phase p) { return engine.phases.seconds(p); };
    const std::uint64_t solve = layers.sat_solve_nanos;
    const std::uint64_t encode =
        layers.sat.nanos > solve ? layers.sat.nanos - solve : 0;
    std::fprintf(stderr,
                 "\n%-28s %10s | %-28s %10s\n", "engine phase (synthesis)",
                 "worker-s", "replay layers (1 thread)", "self s");
    const auto row = [](const char* engine_name, double engine_s,
                        const char* replay_name, double replay_s) {
        std::fprintf(stderr, "%-28s %10.4f | %-28s %10.4f\n", engine_name,
                     engine_s, replay_name, replay_s);
    };
    row("skeleton_enum", phase(obs::Phase::kSkeletonEnum),
        "skeleton + exec_enum", seconds(layers.skeleton.nanos +
                                        layers.exec_enum.nanos));
    row("sat_encode", phase(obs::Phase::kSatEncode), "sat - solver clock",
        seconds(encode));
    row("sat_solve", phase(obs::Phase::kSatSolve), "sat solver clock",
        seconds(solve));
    row("derive", phase(obs::Phase::kDerive), "derive + model + spec",
        seconds(layers.derive.nanos + layers.model.nanos + layers.spec.nanos));
    row("canonicalize", phase(obs::Phase::kCanonicalize), "canonical",
        seconds(layers.canonical.nanos));
    row("judge + relax",
        phase(obs::Phase::kJudge) + phase(obs::Phase::kRelax), "judge",
        seconds(layers.judge.nanos));
    row("dedup", phase(obs::Phase::kDedup), "dedup",
        seconds(layers.dedup.nanos));
    row("queue_wait", phase(obs::Phase::kQueueWait), "(none)", 0.0);
    row("(none)", 0.0, "litmus", seconds(layers.litmus.nanos));
}

void
layer_metrics(const perfbench::Layers& l, const EngineSide& engine,
              const Models& models, Report* report)
{
    using perfbench::ratio;
    const auto per = [](const perfbench::Layer& layer) {
        return ratio(static_cast<double>(layer.nanos),
                     static_cast<double>(layer.calls));
    };
    const auto allocs = [](const perfbench::Layer& layer) {
        return ratio(static_cast<double>(layer.allocs),
                     static_cast<double>(layer.calls));
    };
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    report->metric("skeleton.ns_per_program", per(l.skeleton), "ns");
    report->metric("skeleton.skip_replay_ratio",
                   ratio(count(engine.skip_replays), count(engine.programs)),
                   "ratio");
    report->metric("canonical.ns_per_program", per(l.canonical), "ns");
    report->metric("canonical.allocs_per_program", allocs(l.canonical),
                   "allocs");
    report->metric("dedup.ns_per_insert", per(l.dedup), "ns");
    report->metric("dedup.duplicate_ratio",
                   ratio(count(l.duplicates), count(l.dedup.calls)), "ratio");
    report->metric("exec_enum.ns_per_execution", per(l.exec_enum), "ns");
    report->metric("exec_enum.executions", count(l.exec_enum.calls), "count");
    report->metric("exec_enum.pruned_per_execution",
                   ratio(count(l.pruned), count(l.exec_enum.calls)), "ratio");
    report->metric("derive.ns_per_execution", per(l.derive), "ns");
    report->metric("derive.allocs_per_execution", allocs(l.derive), "allocs");
    report->metric("model.ns_per_verdict", per(l.model), "ns");
    report->metric("spec.ns_per_verdict", per(l.spec), "ns");
    report->metric("spec.compile_ms", models.compile_ms, "ms");
    report->metric("judge.calls", count(l.judge.calls), "count");
    report->metric("judge.ns_per_verdict", per(l.judge), "ns");
    report->metric("judge.allocs_per_verdict", allocs(l.judge), "allocs");
    report->metric("judge.minimal_ratio",
                   ratio(count(l.minimal), count(l.judge.calls)), "ratio");
    report->metric("sat.ns_per_program", per(l.sat), "ns");
    report->metric("sat.solve_share",
                   ratio(count(l.sat_solve_nanos), count(l.sat.nanos)),
                   "ratio");
    report->metric("sat.conflicts", count(l.sat_conflicts), "count");
    report->metric("sat.propagations", count(l.sat_propagations), "count");
    report->metric("sat.base_builds_per_program",
                   ratio(count(l.sat_bases_built), count(l.sat.calls)),
                   "ratio");
    report->metric("sat.replay_ratio",
                   ratio(count(l.sat_replays), count(l.sat.calls)), "ratio");
    report->metric("sched.jobs_run", count(engine.jobs_run), "count");
    report->metric("sched.steals", count(engine.steals), "count");
    report->metric("sched.efficiency", ratio(engine.cpu, kWorkers * engine.wall),
                   "ratio");
    report->metric("litmus.ns_per_program", per(l.litmus), "ns");
    report->metric("obs.metrics_overhead", engine.metrics_overhead, "ratio");

    const std::pair<const char*, const perfbench::Layer*> self[] = {
        {"skeleton", &l.skeleton}, {"canonical", &l.canonical},
        {"dedup", &l.dedup},       {"exec_enum", &l.exec_enum},
        {"derive", &l.derive},     {"model", &l.model},
        {"spec", &l.spec},         {"judge", &l.judge},
        {"sat", &l.sat},           {"litmus", &l.litmus},
    };
    for (const auto& [name, layer] : self) {
        report->metric(std::string("replay.") + name + "_s",
                       static_cast<double>(layer->nanos) * 1e-9, "s");
    }
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        const auto phase = static_cast<obs::Phase>(p);
        report->metric(std::string("engine.") + obs::phase_name(phase) + "_s",
                       engine.phases.seconds(phase), "s");
    }
    print_beside(engine, l);
}

void
funnel_metrics(const std::map<std::string, perfbench::Funnel>& funnels,
               Report* report)
{
    std::fprintf(stderr, "\ncandidate fates (of programs considered):\n");
    for (const std::string& axiom : mtm::x86t_elt_axiom_names()) {
        const auto it = funnels.find(axiom);
        const perfbench::Funnel f =
            it == funnels.end() ? perfbench::Funnel{} : it->second;
        const std::pair<const char*, std::uint64_t> fates[] = {
            {"programs", f.programs},         {"duplicate", f.duplicate},
            {"no_write", f.no_write},         {"no_violation", f.no_violation},
            {"not_minimal", f.not_minimal},   {"accepted", f.accepted},
        };
        for (const auto& [fate, n] : fates) {
            report->metric("funnel." + axiom + "." + fate,
                           static_cast<double>(n), "count");
        }
        std::fprintf(stderr,
                     "  %-14s %9llu programs: %9llu duplicate, %9llu no "
                     "write, %9llu no violation, %9llu not minimal, %5llu "
                     "accepted\n",
                     axiom.c_str(), static_cast<unsigned long long>(f.programs),
                     static_cast<unsigned long long>(f.duplicate),
                     static_cast<unsigned long long>(f.no_write),
                     static_cast<unsigned long long>(f.no_violation),
                     static_cast<unsigned long long>(f.not_minimal),
                     static_cast<unsigned long long>(f.accepted));
    }
}

void
trace_synthesis(const Workload& workload, const Models& models,
                Report* report)
{
    synth::SynthesisOptions options = synthesis_options(workload);
    EngineSide engine;
    const double cpu = perfbench::cpu_seconds();
    const auto call = Clock::now();
    const std::vector<synth::SuiteResult> suites =
        synth::synthesize_all_parallel(*models.builtin, options);
    engine.wall = perfbench::seconds_since(call);
    engine.cpu = perfbench::cpu_seconds() - cpu;

    options.collect_metrics = true;
    const auto instrumented_call = Clock::now();
    const std::vector<synth::SuiteResult> instrumented =
        synth::synthesize_all_parallel(*models.builtin, options);
    engine.metrics_overhead =
        perfbench::seconds_since(instrumented_call) / engine.wall;
    options.collect_metrics = false;
    report->check(same_suites(suites, instrumented),
                  "collect_metrics leaves the suites unchanged");
    for (std::size_t i = 0; i < suites.size(); ++i) {
        engine.phases.merge(instrumented[i].phases);
        engine.jobs_run += suites[i].scheduler.jobs_run;
        engine.steals += suites[i].scheduler.steals;
        engine.skip_replays += suites[i].scheduler.skip_enumerations;
        engine.programs += suites[i].programs_considered;
    }
    check_suites(workload, models, suites, report);

    perfbench::Layers layers;
    std::map<std::string, perfbench::Funnel> funnels;
    for (const synth::SuiteResult& suite : suites) {
        perfbench::ReplayedSuite replayed = perfbench::replay_suite(
            *models.builtin, suite.axiom, options, &layers);
        report->check(replayed.funnel.programs == suite.programs_considered &&
                          same_tests(replayed.tests, suite.tests),
                      "the replay reproduces the " + suite.axiom + " suite");
        funnels[suite.axiom] = replayed.funnel;
    }
    layer_metrics(layers, engine, models, report);
    funnel_metrics(funnels, report);
}

void
trace_check(const Models& models, const Args& args, Report* report)
{
    const std::vector<std::string> texts = sample_texts(args.seed);
    EngineSide engine;
    const double cpu = perfbench::cpu_seconds();
    const auto call = Clock::now();
    const perfbench::BatchResult batch =
        perfbench::check_batch(models.spec_check, texts, kWorkers);
    engine.wall = perfbench::seconds_since(call);
    engine.cpu = perfbench::cpu_seconds() - cpu;
    engine.jobs_run = batch.scheduler.jobs_run;
    engine.steals = batch.scheduler.steals;

    perfbench::Layers layers;
    std::vector<perfbench::Verdict> replayed;
    std::vector<perfbench::Verdict> twin;
    perfbench::replay_checks(models.spec_check, models.builtin_check, texts,
                             &layers, &replayed, &twin);
    report->tally(texts.size(), count_mismatches(replayed, batch.verdicts),
                  "the replay reproduces the parallel check");
    report->tally(texts.size(), count_mismatches(replayed, twin),
                  "check verdicts match the builtin twin");
    layer_metrics(layers, engine, models, report);
    funnel_metrics({}, report);
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse_args(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench_runner --workload "
                     "synth-enum|synth-sat|check-mtm --seed N --seconds S "
                     "--trace 0|1\n");
        return 2;
    }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::fprintf(stderr, "refusing to measure an unoptimised build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    std::fprintf(stderr,
                 "workload %s seed %llu seconds %g trace %d | nproc %u, "
                 "workers %d, compiler %s, build %s\n",
                 args.workload->name.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                 kWorkers, __VERSION__, PERFBENCH_BUILD_TYPE);
    Models models;
    if (!set_up(&models)) {
        return 1;
    }
    Report report;
    const Workload& workload = *args.workload;
    if (workload.synthesis) {
        if (args.trace) {
            trace_synthesis(workload, models, &report);
        } else {
            run_synthesis(workload, models, args, &report);
        }
    } else if (args.trace) {
        trace_check(models, args, &report);
    } else {
        run_check(models, args, &report);
    }
    report.print();
    return 0;
}
