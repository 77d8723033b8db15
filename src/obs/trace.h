/// \file
/// Span collection and Chrome trace-event export — the timeline half of
/// the observability layer (see obs/metrics.h for the counter half and
/// docs/observability.md for how to open the output in Perfetto or
/// chrome://tracing).
///
/// Writers record *complete* spans (begin + duration in one event, so a
/// truncated ring can never produce unbalanced begin/end pairs), instant
/// markers, async spans and counter samples. Storage is one ring buffer
/// per lane; a lane has exactly one
/// writer (pool worker w writes lane w, the submitting thread writes the
/// lane returned by main_lane()), so recording is lock- and wait-free.
/// When the ring wraps, the oldest events are overwritten and counted in
/// dropped() — a bounded trace of the most recent activity, never
/// unbounded memory.
///
/// Export (chrome_json / write) must not run concurrently with recording;
/// the engine's contract is "export after every job group has been
/// wait()ed", which is also when ring contents are settled.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace transform::obs {

/// Collects spans from concurrent single-writer lanes and serializes them
/// as a Chrome trace-event JSON object.
class TraceCollector {
  public:
    /// One numeric argument attached to a span (rendered into the event's
    /// "args" object). The key must outlive the collector (string
    /// literals).
    struct Arg {
        const char* key;
        std::uint64_t value;
    };

    /// \p worker_lanes writer lanes for pool workers plus one extra lane
    /// (main_lane()) for the submitting thread. Each lane holds at most
    /// \p capacity_per_lane events; older events are overwritten.
    explicit TraceCollector(int worker_lanes,
                            std::size_t capacity_per_lane = 1 << 14);

    TraceCollector(const TraceCollector&) = delete;
    TraceCollector& operator=(const TraceCollector&) = delete;

    /// Total lanes, including the main lane.
    int lanes() const { return static_cast<int>(lanes_.size()); }

    /// The extra lane reserved for the submitting thread.
    int main_lane() const { return lanes() - 1; }

    /// A fresh process-unique id for an async span pair (never 0).
    std::uint64_t next_flow_id();

    /// Labels a lane in the exported trace (defaults to "worker N" /
    /// "main").
    void set_lane_name(int lane, std::string name);

    /// Records a complete span [start_ns, end_ns] (obs::now_nanos()
    /// timestamps) on \p lane with up to 3 numeric args. Out-of-range
    /// lanes drop the event (counted).
    void record_complete(int lane, std::string name, std::uint64_t start_ns,
                         std::uint64_t end_ns,
                         std::initializer_list<Arg> args = {});

    /// Records an instant marker.
    void record_instant(int lane, std::string name, std::uint64_t ts_ns);

    /// Records an async span pair (Chrome "b"/"e" events, rendered on
    /// their own track). Async spans may overlap freely — used for
    /// per-search spans, which may interleave on a shared pool. Pair the two
    /// calls with the same \p id (next_flow_id() is a fine source).
    void record_async_begin(int lane, std::string name, std::uint64_t id,
                            std::uint64_t ts_ns);
    void record_async_end(int lane, std::string name, std::uint64_t id,
                          std::uint64_t ts_ns);

    /// Records a counter sample (Chrome "C" event, rendered as a stacked
    /// chart of the arg series). Used for per-phase latency percentiles
    /// at the end of a search.
    void record_counter(int lane, std::string name, std::uint64_t ts_ns,
                        std::initializer_list<Arg> args);

    /// Events recorded and still resident across all lanes.
    std::size_t events_resident() const;

    /// Events lost to ring wraparound or invalid lanes.
    std::uint64_t dropped() const;

    /// Serializes everything recorded so far as a Chrome trace-event JSON
    /// object (the `{"traceEvents": [...]}` dictionary form), with lane
    /// thread-name metadata. Timestamps are microseconds relative to the
    /// collector's construction. Not safe concurrently with record_*.
    std::string chrome_json() const;

    /// Writes chrome_json() to \p path; false (with \p error filled when
    /// non-null) when the file cannot be written.
    bool write(const std::string& path, std::string* error = nullptr) const;

  private:
    struct Event {
        enum class Kind : std::uint8_t {
            kComplete,
            kInstant,
            kAsyncBegin,
            kAsyncEnd,
            kCounter,
        };
        Kind kind = Kind::kComplete;
        std::uint8_t num_args = 0;
        std::string name;
        std::uint64_t ts_ns = 0;
        std::uint64_t dur_ns = 0;
        std::uint64_t flow_id = 0;
        Arg args[3] = {};
    };

    /// Single-writer ring; padded so lanes never share a cache line.
    struct alignas(64) Lane {
        std::vector<Event> ring;   ///< capacity fixed at construction
        std::size_t next = 0;      ///< insertion cursor
        std::uint64_t written = 0; ///< events ever recorded on this lane
        std::string name;
    };

    void push(int lane, Event event);

    std::vector<Lane> lanes_;
    std::size_t capacity_;
    std::uint64_t epoch_ns_;
    std::atomic_uint64_t next_flow_{1};
    std::atomic_uint64_t invalid_lane_drops_{0};
};

/// RAII complete-span helper: records [construction, destruction] on
/// destruction. A null collector is the disabled fast path (one branch,
/// no clock read).
class ScopedSpan {
  public:
    ScopedSpan(TraceCollector* trace, int lane, std::string name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    TraceCollector* trace_;
    int lane_;
    std::string name_;
    std::uint64_t start_;
};

}  // namespace transform::obs
