/// \file
/// Crash-safe checkpoint journal for synthesis runs (docs/robustness.md,
/// "Checkpoint/resume").
///
/// `elt_synth --checkpoint <path>` journals every *completed* shard-search
/// task: its per-axiom counters and its synthesized tests with their axioms
/// (witnesses serialized through the exact-round-trip XML form).
/// `--resume` replays journaled tasks instead of
/// re-searching them; tasks missing from the journal (in flight when the
/// process died, or quarantined) are searched normally. Because the shard
/// partition and the min-ticket merge are pure functions of the options,
/// the resumed suite is byte-identical to an uninterrupted run — proven by
/// the kill-mid-run test in tests/fault_test.cpp.
///
/// Durability: the header is written to a temp file, fsync'ed, and
/// atomically renamed into place; each record append is length-and-
/// checksum framed (the checksum covers the record's header line and its
/// payload) and fsync'ed, so a crash can at worst truncate the final
/// record — resume() drops any malformed tail and the affected shard is
/// simply re-searched.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "synth/engine.h"

namespace transform::synth {

/// One run's append-only journal of completed shard tasks. Thread-safe:
/// append() serializes under a mutex; find() reads the immutable
/// load-time index (appends never touch it). One journal serves one
/// search, which covers every axiom of the run — the task id includes the
/// run's axioms.
class CheckpointJournal {
  public:
    /// One axiom's counters in a task (SuiteResult's counters, summed over
    /// the run's tasks).
    struct AxiomCounts {
        std::uint64_t programs = 0;
        std::uint64_t executions = 0;
    };

    /// An accepted test: the position of its axiom among the run's
    /// axioms, the test, and its merge ticket.
    struct JournaledTest {
        std::size_t axiom = 0;
        SynthesizedTest test;
        std::uint64_t ticket = 0;
    };

    /// A completed shard-search task, exactly as the engine executed it.
    struct ShardRecord {
        std::uint64_t task_id = 0;
        /// Per-axiom counters, in the run's axiom order.
        std::vector<AxiomCounts> counts;
        /// The task's accepted tests.
        std::vector<JournaledTest> tests;
    };

    ~CheckpointJournal();
    CheckpointJournal(const CheckpointJournal&) = delete;
    CheckpointJournal& operator=(const CheckpointJournal&) = delete;

    /// Starts a fresh journal at \p path, overwriting any previous one.
    /// \p fingerprint identifies the run configuration (model, bounds,
    /// backend — anything that changes the partition or the suites);
    /// resume() refuses a journal whose fingerprint differs. Returns
    /// nullptr and fills \p error on I/O failure.
    static std::unique_ptr<CheckpointJournal> create(
        const std::string& path, const std::string& fingerprint,
        std::string* error);

    /// Opens an existing journal for resume: verifies the format version
    /// and the fingerprint, loads every intact record (a truncated or
    /// corrupt tail is dropped and the file truncated back to the last
    /// good record), and reopens for appending. Returns nullptr and fills
    /// \p error when the file is missing or unreadable, or — setting
    /// \p refused, when given — when it is not a journal of this format
    /// (a journal of an older format included) or was written by a
    /// different configuration.
    static std::unique_ptr<CheckpointJournal> resume(
        const std::string& path, const std::string& fingerprint,
        std::string* error, bool* refused = nullptr);

    /// The loaded record for \p task_id, or nullptr. Only records loaded
    /// by resume() are visible — same-run appends are never re-queried.
    const ShardRecord* find(std::uint64_t task_id) const;

    /// Durably appends one completed-task record (fsync before return).
    void append(const ShardRecord& record);

    /// Records loaded by resume() (0 for a fresh journal).
    std::size_t loaded() const;

  private:
    CheckpointJournal();
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Stable identity of one shard task within a run: a hash of the format
/// version, the run's axioms, the shard's event bound and prefix, and the
/// task's first ticket. Stable across processes and scheduling (the
/// partition is a pure function of the options), which is what lets
/// --resume match journaled records to the tasks it re-creates.
std::uint64_t checkpoint_task_id(const std::vector<std::string>& axioms,
                                 const SkeletonShard& shard,
                                 std::uint64_t ticket_base);

/// The journal-fingerprint term identifying \p model: its name and a hash
/// of its normalised `.mtm` source (spec::model_to_source), so a journal
/// written under one set of axioms is refused after any axiom edit, while
/// comment and layout edits still resume.
std::string model_fingerprint(const mtm::Model& model);

}  // namespace transform::synth
