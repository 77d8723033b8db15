/// \file
/// Deterministic fault injection for the synthesis runtime.
///
/// A `FaultPlan` describes one kind of failure to inject at one site in
/// the candidate pipeline. Whether a particular probe fires is a pure
/// function of (seed, site, key, attempt): the key is the candidate's
/// deterministic merge ticket (or the shard's ticket base at shard
/// boundaries), so the same plan fires at the same logical places at
/// every `--jobs` value — which is what lets the fault
/// matrix in tests/fault_test.cpp assert byte-identical suites after
/// retries. See docs/robustness.md, "Fault injection".
///
/// Plans parse from the `--fault-plan` flag / `TRANSFORM_FAULT_PLAN` env
/// grammar: comma-separated `key=value` pairs, e.g.
///   site=derive,rate=64,seed=7,mode=transient
///   site=shard_boundary,kind=kill,after=2   (SIGKILL for crash tests)
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace transform::util {

/// Where in the pipeline a probe sits.
enum class FaultSite : int {
    kShardBoundary = 0,  ///< entry of a shard-search job
    kDerive = 1,         ///< before deriving a candidate's executions
    kJudge = 2,          ///< before judging a witness's minimality
    kSatSolve = 3,       ///< before a SAT witness query
};

/// Stable lowercase name used by the parse grammar and error messages.
const char* fault_site_name(FaultSite site);

/// The exception thrown by Kind::kThrow probes. Deliberately a plain
/// std::runtime_error subtype: the engine's fault containment must catch
/// it through the same `catch (const std::exception&)` boundary that
/// contains real faults.
class InjectedFault : public std::runtime_error {
  public:
    explicit InjectedFault(const std::string& what)
        : std::runtime_error(what)
    {
    }
};

/// One deterministic fault-injection plan. The public fields are the
/// plan's configuration (set directly or via parse()); maybe_fire() is
/// called from probe points and throws/kills when the plan selects that
/// probe. Thread-safe: firing decisions are pure except for the `after`
/// skip counter and the fired tally, which are atomics.
class FaultPlan {
  public:
    enum class Kind {
        kThrow,     ///< throw InjectedFault
        kBadAlloc,  ///< throw std::bad_alloc (allocation-failure simulation)
        kKill,      ///< raise(SIGKILL) — for checkpoint/resume crash tests
    };

    FaultPlan() = default;
    FaultPlan(const FaultPlan&) = delete;
    FaultPlan& operator=(const FaultPlan&) = delete;

    std::uint64_t seed = 0;
    FaultSite site = FaultSite::kDerive;
    Kind kind = Kind::kThrow;

    /// Fire on probes whose hash(seed, site, key) lands in 1-in-`rate`.
    /// 1 = every probe at the site.
    std::uint64_t rate = 1;

    /// Fire only while the shard's retry attempt is below this: 1 models a
    /// transient fault (first execution fails, the retry succeeds), a
    /// large value models a deterministic fault that survives every retry
    /// and forces quarantine.
    int attempts = 1;

    /// Skip the first `after` selected probes before firing (a process-wide
    /// atomic count, so with jobs > 1 which probe is skipped depends on
    /// scheduling — use jobs=1 when `after` must be deterministic, as the
    /// kill-mid-run checkpoint test does).
    std::uint64_t after = 0;

    /// Parses the `key=value[,key=value...]` grammar into \p out. Keys:
    /// seed=N, site=shard_boundary|derive|judge|sat_solve,
    /// kind=throw|alloc|kill, rate=N (>=1), mode=transient|sticky,
    /// attempts=N, after=N. Returns false and fills \p error on a bad spec.
    static bool parse(const std::string& spec, FaultPlan* out,
                      std::string* error);

    /// Probe point: decides deterministically whether this (site, key,
    /// attempt) fires and, if so, injects the configured failure.
    void maybe_fire(FaultSite site, std::uint64_t key, int attempt) const;

    /// How many times this plan actually fired (kThrow/kBadAlloc only;
    /// a kKill firing never returns).
    std::uint64_t
    fired() const
    {
        return fired_.load(std::memory_order_relaxed);
    }

  private:
    mutable std::atomic<std::uint64_t> matched_{0};
    mutable std::atomic<std::uint64_t> fired_{0};
};

}  // namespace transform::util
