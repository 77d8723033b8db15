/// \file
/// Shared helpers for the paper-reproduction bench binaries: environment
/// knobs, uniform headers so bench output is self-describing, and a tiny
/// JSON emitter so the perf trajectory lands in machine-readable
/// BENCH_*.json files (see docs/performance.md).
#pragma once

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "synth/engine.h"
#include "tool_args.h"

namespace transform::bench {

/// Version of the flat BENCH_*.json layout written by write_json, stamped
/// into every record as "bench_schema_version" so the CI regression gate
/// (tools/bench_compare.py) can refuse to diff records whose layout
/// drifted instead of silently comparing renamed keys. Bump on any key
/// addition/removal/rename in a bench's record.
///
/// v2: the substrate record gained the judge-loop allocation ratio
/// (minimality_allocs_per_witness) and the incremental-SAT structure-base
/// economy (sat_incremental_bases_built / _bases_reused /
/// _base_builds_per_program).
/// v3: the substrate record gained the phase-attributed allocation
/// breakdown (sat_allocs_per_phase_<phase>, one key per obs::Phase).
/// v4: the substrate record lost the per-candidate fresh-encoding rows
/// (sat_*_per_sec, sat_allocs_per_program, spec_sat_*); the `.mtm` twin's
/// SAT row is now spec_sat_incremental_*.
/// v5: the substrate record lost the `.mtm` twin rows (spec_enum_*,
/// spec_sat_incremental_*): x86t_elt is its compiled `.mtm` source, so
/// there is no second model to price.
/// v6: the scaling record lost lazy_candidates_per_sec and
/// lazy_skip_enumerations: the engine searches one static shard partition,
/// so there is no lazy re-split run to measure.
inline constexpr int kBenchSchemaVersion = 6;

/// The determinism contract's observable, shared by the scaling and
/// substrate benches: canonical keys, order, sizes and (optionally) the
/// violated-axiom lists across every suite of a sweep point. Witness
/// *selection* is backend-dependent (first qualifying witness in that
/// backend's enumeration order), so cross-backend comparisons drop the
/// violated lists while cross-jobs comparisons keep them.
inline std::string
suite_fingerprint(const std::vector<synth::SuiteResult>& suites,
                  bool include_violated = true)
{
    std::string fp;
    for (const synth::SuiteResult& suite : suites) {
        fp += suite.axiom;
        fp += ':';
        for (const synth::SynthesizedTest& test : suite.tests) {
            fp += test.canonical_key;
            fp += '#';
            fp += std::to_string(test.size);
            if (include_violated) {
                for (const std::string& axiom : test.violated) {
                    fp += ',';
                    fp += axiom;
                }
            }
            fp += '|';
        }
        fp += '\n';
    }
    return fp;
}

/// Reads an integer knob from the environment (bounds, budgets). Malformed
/// values are a hard error, not a silent fallback: the strict
/// std::from_chars parsing is shared with the tools' flag validation
/// (tools/tool_args.h), so `TRANSFORM_SCALING_BOUND=8x` aborts the bench
/// instead of quietly running the default workload.
inline int
env_int(const char* name, int fallback)
{
    const char* value = std::getenv(name);
    if (value == nullptr) {
        return fallback;
    }
    long long parsed = 0;
    if (!tools::parse_int(value, INT_MIN, INT_MAX, &parsed)) {
        std::fprintf(stderr,
                     "%s takes a decimal integer, got '%s'\n", name, value);
        std::exit(2);
    }
    return static_cast<int>(parsed);
}

/// Prints the standard bench banner.
inline void
banner(const char* experiment, const char* paper_artifact,
       const char* expectation)
{
    std::printf("==============================================================\n");
    std::printf("experiment : %s\n", experiment);
    std::printf("reproduces : %s\n", paper_artifact);
    std::printf("expected   : %s\n", expectation);
    std::printf("==============================================================\n");
}

/// PASS/FAIL line for shape checks.
inline bool
check(const char* what, bool ok)
{
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    return ok;
}

/// One key/value pair of a flat JSON object; the value is stored
/// pre-rendered (numbers verbatim, strings/booleans quoted/encoded by the
/// j* constructors below).
using JsonPair = std::pair<std::string, std::string>;

inline JsonPair
jnum(const std::string& key, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return {key, buffer};
}

inline JsonPair
jint(const std::string& key, std::uint64_t value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
    return {key, buffer};
}

inline JsonPair
jbool(const std::string& key, bool value)
{
    return {key, value ? "true" : "false"};
}

inline JsonPair
jstr(const std::string& key, const std::string& value)
{
    std::string out = "\"";
    for (const char c : value) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return {key, out};
}

/// Writes the pairs as one flat JSON object to \p path (plus a note on
/// stdout so bench logs say where the machine-readable copy went).
/// Returns false (after a stderr note) when the file cannot be written.
inline bool
write_json(const std::string& path, const std::vector<JsonPair>& pairs)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fputs("{\n", file);
    std::fprintf(file, "  \"bench_schema_version\": %d%s\n",
                 kBenchSchemaVersion, pairs.empty() ? "" : ",");
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        std::fprintf(file, "  \"%s\": %s%s\n", pairs[i].first.c_str(),
                     pairs[i].second.c_str(),
                     i + 1 < pairs.size() ? "," : "");
    }
    std::fputs("}\n", file);
    std::fclose(file);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

}  // namespace transform::bench
