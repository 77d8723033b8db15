/// \file
/// The traced replay: each workload re-run on one thread through the
/// layers' public functions, with every call timed by steady_clock and its
/// allocations counted by obs::alloc_count(). Spans nest (skeleton visit
/// > canonical key, dedup insert, execution walk > derive, verdict,
/// judge), and a layer's self time is its span time minus the spans of
/// the layers it calls. The replay must reproduce the engine's output
/// exactly, so its numbers describe the same work as the timed run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check.h"
#include "mtm/model.h"
#include "synth/engine.h"

namespace perfbench {

/// Self time, calls and allocations of one layer.
struct Layer {
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;
    std::uint64_t allocs = 0;
};

/// Every layer the replay times, plus the counters their ratios need.
struct Layers {
    Layer skeleton;   ///< synth/skeleton: calls = programs emitted
    Layer canonical;  ///< synth/canonical: calls = keys computed
    Layer dedup;      ///< sched/sharded_index: calls = inserts
    Layer exec_enum;  ///< synth/exec_enum: calls = executions emitted
    Layer derive;     ///< elt/derive: calls = derivations
    Layer model;      ///< mtm/model builtin axioms: calls = verdicts
    Layer spec;       ///< `.mtm` axioms (spec/): calls = verdicts
    Layer judge;      ///< synth/minimality + mtm/relax: calls = verdicts
    Layer sat;        ///< mtm/incremental + mtm/encoding + sat: calls =
                      ///  candidate programs probed
    Layer litmus;     ///< elt/litmus: calls = programs parsed

    std::uint64_t duplicates = 0;       ///< dedup inserts that lost
    std::uint64_t pruned = 0;           ///< exec_enum partial assignments
    std::uint64_t minimal = 0;          ///< judge verdicts that were minimal
    std::uint64_t sat_replays = 0;      ///< accepted probes re-run fresh
    std::uint64_t sat_bases_built = 0;  ///< incremental structure bases
    std::uint64_t sat_solve_nanos = 0;  ///< solver-clocked time in `sat`
    std::uint64_t sat_conflicts = 0;
    std::uint64_t sat_propagations = 0;
};

/// Where every candidate program of one suite ended up; the five fates
/// sum to `programs`.
struct Funnel {
    std::uint64_t programs = 0;
    std::uint64_t duplicate = 0;     ///< an earlier candidate had its key
    std::uint64_t no_write = 0;      ///< no write-like event
    std::uint64_t no_violation = 0;  ///< no execution violates the axiom
    std::uint64_t not_minimal = 0;   ///< violating, but never minimal
    std::uint64_t accepted = 0;      ///< entered the suite
};

struct ReplayedSuite {
    std::vector<transform::synth::SynthesizedTest> tests;  ///< key order
    Funnel funnel;
};

/// Replays the engine's search for one axiom's suite in sequential
/// enumeration order, on options.backend, with the engine's skeleton
/// options, dedup rule, write filter, witness search and judge.
ReplayedSuite replay_suite(const transform::mtm::Model& model,
                           const std::string& axiom,
                           const transform::synth::SynthesisOptions& options,
                           Layers* layers);

/// Replays check_batch on one thread, evaluating every execution under
/// both \p spec and its builtin twin \p builtin on the same derivation.
void replay_checks(const CheckModel& spec, const CheckModel& builtin,
                   const std::vector<std::string>& texts, Layers* layers,
                   std::vector<Verdict>* spec_verdicts,
                   std::vector<Verdict>* twin_verdicts);

}  // namespace perfbench
