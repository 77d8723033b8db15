/// \file
/// Unit tests for the skeleton enumerator.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "elt/derive.h"
#include "elt/printer.h"
#include "synth/canonical.h"
#include "synth/skeleton.h"

namespace transform::synth {
namespace {

using elt::EventKind;
using elt::Program;

int
count_skeletons(const SkeletonOptions& options)
{
    int count = 0;
    for_each_skeleton(options, [&](const Program&) {
        ++count;
        return true;
    });
    return count;
}

/// Every program of \p options' stream, printed, in stream order.
std::vector<std::string>
stream(const SkeletonOptions& options)
{
    std::vector<std::string> out;
    for_each_skeleton(options, [&](const Program& p) {
        out.push_back(elt::program_to_string(p));
        return true;
    });
    return out;
}

TEST(Skeleton, AllGeneratedProgramsValidate)
{
    SkeletonOptions opt;
    opt.num_events = 4;
    opt.max_threads = 2;
    for_each_skeleton(opt, [&](const Program& p) {
        EXPECT_TRUE(p.validate().empty());
        EXPECT_EQ(p.num_events(), 4);
        return true;
    });
}

TEST(Skeleton, McmModeGeneratesNoVmEvents)
{
    SkeletonOptions opt;
    opt.num_events = 3;
    opt.vm_enabled = false;
    opt.max_threads = 2;
    for_each_skeleton(opt, [&](const Program& p) {
        for (int id = 0; id < p.num_events(); ++id) {
            const EventKind k = p.event(id).kind;
            EXPECT_TRUE(k == EventKind::kRead || k == EventKind::kWrite ||
                        k == EventKind::kMfence);
        }
        return true;
    });
    EXPECT_GT(count_skeletons(opt), 0);
}

TEST(Skeleton, BoundIsExact)
{
    SkeletonOptions opt;
    opt.num_events = 5;
    opt.max_threads = 2;
    for_each_skeleton(opt, [&](const Program& p) {
        EXPECT_EQ(p.num_events(), 5);
        return true;
    });
}

TEST(Skeleton, RequireWptePrunes)
{
    SkeletonOptions plain;
    plain.num_events = 4;
    SkeletonOptions pruned = plain;
    pruned.require_wpte = true;
    int with_wpte = 0;
    for_each_skeleton(pruned, [&](const Program& p) {
        bool found = false;
        for (int id = 0; id < p.num_events(); ++id) {
            found = found || p.event(id).kind == EventKind::kWpte;
        }
        EXPECT_TRUE(found);
        ++with_wpte;
        return true;
    });
    EXPECT_GT(with_wpte, 0);
    EXPECT_LT(with_wpte, count_skeletons(plain));
}

TEST(Skeleton, RequireRmwPrunes)
{
    SkeletonOptions opt;
    opt.num_events = 4;
    opt.require_rmw = true;
    for_each_skeleton(opt, [&](const Program& p) {
        EXPECT_FALSE(p.rmw_pairs().empty());
        return true;
    });
}

TEST(Skeleton, RequirementPredicateFiltersTheUnprunedStream)
{
    // The fused search walks the unpruned stream and opens an axiom on the
    // candidates meeting its requirements. That reproduces the axiom's own
    // (pruned) stream only if filtering by the predicate gives exactly the
    // pruned stream, in order, and the tests the merge keeps for it only
    // if the predicate is constant on every canonical-key class.
    std::vector<SkeletonOptions> bases;
    for (int events = 4; events <= 6; ++events) {
        SkeletonOptions vm;
        vm.num_events = events;
        bases.push_back(vm);
        SkeletonOptions mcm = vm;
        mcm.vm_enabled = false;
        bases.push_back(mcm);
    }
    SkeletonOptions wide;
    wide.num_events = 5;
    wide.max_threads = 3;
    wide.max_vas = 3;
    wide.allow_full_flush = true;
    bases.push_back(wide);
    SkeletonOptions ablation;
    ablation.num_events = 6;
    ablation.dirty_bit_as_rmw = true;
    bases.push_back(ablation);

    std::vector<SkeletonOptions> requirements(4);
    requirements[0].require_wpte = true;
    requirements[1].require_rmw = true;
    requirements[2].require_shared_walk = true;
    requirements[3].require_wpte = true;
    requirements[3].require_shared_walk = true;
    for (const SkeletonOptions& base : bases) {
        std::vector<std::pair<std::string, std::string>> unpruned;
        for_each_skeleton(base, [&](const Program& p) {
            unpruned.emplace_back(elt::program_to_string(p),
                                  canonical_key(p));
            return true;
        });
        ASSERT_FALSE(unpruned.empty());
        const std::string label =
            "events=" + std::to_string(base.num_events) +
            (base.vm_enabled ? " vm" : " mcm");
        for (std::size_t r = 0; r < requirements.size(); ++r) {
            SkeletonOptions pruned = base;
            pruned.require_wpte = requirements[r].require_wpte;
            pruned.require_rmw = requirements[r].require_rmw;
            pruned.require_shared_walk = requirements[r].require_shared_walk;
            std::vector<std::string> filtered;
            std::map<std::string, bool> by_key;
            std::size_t index = 0;
            for_each_skeleton(base, [&](const Program& p) {
                const bool meets = meets_requirements(p, pruned);
                if (meets) {
                    filtered.push_back(unpruned[index].first);
                }
                const auto [it, fresh] =
                    by_key.emplace(unpruned[index].second, meets);
                EXPECT_TRUE(fresh || it->second == meets)
                    << label << " requirement " << r << ": "
                    << unpruned[index].first;
                ++index;
                return true;
            });
            EXPECT_EQ(filtered, stream(pruned))
                << label << " requirement " << r;
        }
    }
}

TEST(Skeleton, HitsAlwaysHaveALiveWalk)
{
    SkeletonOptions opt;
    opt.num_events = 5;
    opt.max_threads = 2;
    for_each_skeleton(opt, [&](const Program& p) {
        // Every data access without its own walk must have an earlier
        // same-thread same-VA access with a walk and no INVLPG in between
        // (the enumerator's feasibility rule; re-checked here directly).
        for (int id = 0; id < p.num_events(); ++id) {
            if (!elt::is_data_access(p.event(id).kind) ||
                p.rptw_of(id) != elt::kNone) {
                continue;
            }
            bool ok = false;
            for (int other = 0; other < p.num_events(); ++other) {
                if (!elt::is_data_access(p.event(other).kind) ||
                    p.rptw_of(other) == elt::kNone) {
                    continue;
                }
                if (p.event(other).thread != p.event(id).thread ||
                    p.event(other).va != p.event(id).va ||
                    !p.precedes(other, id)) {
                    continue;
                }
                bool blocked = false;
                for (int inv = 0; inv < p.num_events(); ++inv) {
                    if (p.event(inv).kind == EventKind::kInvlpg &&
                        p.event(inv).thread == p.event(id).thread &&
                        p.event(inv).va == p.event(id).va &&
                        p.precedes(other, inv) && p.precedes(inv, id)) {
                        blocked = true;
                    }
                }
                ok = ok || !blocked;
            }
            EXPECT_TRUE(ok);
        }
        return true;
    });
}

TEST(Skeleton, WpteAlwaysFullyRemapped)
{
    SkeletonOptions opt;
    opt.num_events = 6;
    opt.max_threads = 2;
    opt.require_wpte = true;
    int seen = 0;
    for_each_skeleton(opt, [&](const Program& p) {
        ++seen;
        for (int id = 0; id < p.num_events(); ++id) {
            if (p.event(id).kind != EventKind::kWpte) {
                continue;
            }
            EXPECT_EQ(static_cast<int>(p.remap_targets(id).size()),
                      p.num_threads());
        }
        return seen < 500;  // sample
    });
    EXPECT_GT(seen, 0);
}

TEST(Skeleton, EarlyStopWorks)
{
    SkeletonOptions opt;
    opt.num_events = 4;
    int count = 0;
    const bool completed = for_each_skeleton(opt, [&](const Program&) {
        ++count;
        return count < 3;
    });
    EXPECT_FALSE(completed);
    EXPECT_EQ(count, 3);
}

TEST(Skeleton, CountsGrowWithBound)
{
    SkeletonOptions opt4;
    opt4.num_events = 4;
    SkeletonOptions opt5;
    opt5.num_events = 5;
    EXPECT_GT(count_skeletons(opt5), count_skeletons(opt4));
}

/// The contract the parallel synthesis runtime depends on: searching the
/// shards of partition_skeletons in list order visits exactly the program
/// sequence of the unsharded enumeration.
TEST(Skeleton, ShardsConcatenateToFullEnumeration)
{
    for (const bool vm : {true, false}) {
        for (const int target : {1, 8, 64, 1000}) {
            SkeletonOptions opt;
            opt.num_events = vm ? 5 : 4;
            opt.vm_enabled = vm;
            std::vector<std::string> full;
            for_each_skeleton(opt, [&](const Program& p) {
                full.push_back(elt::program_to_string(p));
                return true;
            });
            std::vector<std::string> sharded;
            const auto shards = partition_skeletons(opt, target);
            EXPECT_GE(static_cast<int>(shards.size()), std::min(target, 2));
            for (const SkeletonShard& shard : shards) {
                for_each_skeleton(shard, [&](const Program& p) {
                    sharded.push_back(elt::program_to_string(p));
                    return true;
                });
            }
            EXPECT_EQ(full, sharded)
                << "vm=" << vm << " target=" << target;
        }
    }
}

/// The contract every partition depth depends on: a shard's children, in
/// list order, replay exactly the parent's program stream.
TEST(Skeleton, SplitShardChildrenConcatenateToParent)
{
    SkeletonOptions opt;
    opt.num_events = 5;
    for (const SkeletonShard& parent : partition_skeletons_at_depth(opt, 1)) {
        std::vector<std::string> parent_stream;
        for_each_skeleton(parent, [&](const Program& p) {
            parent_stream.push_back(elt::program_to_string(p));
            return true;
        });
        std::vector<std::string> child_stream;
        const auto children = split_shard(parent);
        ASSERT_FALSE(children.empty());
        for (const SkeletonShard& child : children) {
            EXPECT_EQ(child.prefix.size(), parent.prefix.size() + 1);
            for_each_skeleton(child, [&](const Program& p) {
                child_stream.push_back(elt::program_to_string(p));
                return true;
            });
        }
        EXPECT_EQ(parent_stream, child_stream);
    }
}

/// A shard whose prefix closed thread 0 splits on thread 1+ decisions, and
/// its children in list order replay the parent's program stream exactly —
/// the property that lets a deep partition keep subdividing a heavy
/// one-slot-first-thread subtree instead of dead-ending.
TEST(Skeleton, SplitShardClosedPrefixChildrenReplayParentStream)
{
    SkeletonOptions opt;
    opt.num_events = 5;
    int closed_parents_with_children = 0;
    for (const SkeletonShard& depth1 : partition_skeletons_at_depth(opt, 1)) {
        for (const SkeletonShard& parent : split_shard(depth1)) {
            if (parent.prefix.back() != kCloseThread) {
                continue;
            }
            const auto children = split_shard(parent);
            std::vector<std::string> parent_stream;
            for_each_skeleton(parent, [&](const Program& p) {
                parent_stream.push_back(elt::program_to_string(p));
                return true;
            });
            if (children.empty()) {
                continue;  // slot structure fully pinned: nothing to split
            }
            ++closed_parents_with_children;
            std::vector<std::string> child_stream;
            for (const SkeletonShard& child : children) {
                EXPECT_EQ(child.prefix.size(), parent.prefix.size() + 1);
                // Thread 0 is closed, so the new decision constrains a
                // later thread.
                EXPECT_EQ(child.prefix[parent.prefix.size() - 1],
                          kCloseThread);
                for_each_skeleton(child, [&](const Program& p) {
                    child_stream.push_back(elt::program_to_string(p));
                    return true;
                });
            }
            EXPECT_EQ(parent_stream, child_stream);
        }
    }
    EXPECT_GT(closed_parents_with_children, 0);
}

/// Recursively splitting every shard to the bottom of the decision tree
/// (children empty only once a prefix pins the complete slot structure)
/// must still concatenate, leaf by leaf, to the full enumeration stream —
/// the strongest form of the replay contract, exercising splits past a
/// closed thread at every level.
TEST(Skeleton, RecursiveSplitLeavesConcatenateToFullEnumeration)
{
    SkeletonOptions opt;
    opt.num_events = 4;
    std::vector<std::string> full;
    for_each_skeleton(opt, [&](const Program& p) {
        full.push_back(elt::program_to_string(p));
        return true;
    });
    std::vector<std::string> leaves;
    int max_depth = 0;
    const std::function<void(const SkeletonShard&)> descend =
        [&](const SkeletonShard& shard) {
            const auto children = split_shard(shard);
            if (children.empty()) {
                max_depth = std::max(
                    max_depth, static_cast<int>(shard.prefix.size()));
                for_each_skeleton(shard, [&](const Program& p) {
                    leaves.push_back(elt::program_to_string(p));
                    return true;
                });
                return;
            }
            for (const SkeletonShard& child : children) {
                descend(child);
            }
        };
    descend({opt, {}});
    EXPECT_EQ(full, leaves);
    // The tree bottoms out past thread 0 (pre-PR splitting stopped at the
    // first kCloseThread, never deeper than num_events + 1).
    EXPECT_GT(max_depth, opt.num_events + 1);
}

TEST(Skeleton, FixedDepthPartitionCoversFullEnumeration)
{
    SkeletonOptions opt;
    opt.num_events = 5;
    std::vector<std::string> full;
    for_each_skeleton(opt, [&](const Program& p) {
        full.push_back(elt::program_to_string(p));
        return true;
    });
    for (const int depth : {1, 2, 3, 4}) {
        std::vector<std::string> sharded;
        for (const SkeletonShard& shard :
             partition_skeletons_at_depth(opt, depth)) {
            EXPECT_LE(shard.prefix.size(), static_cast<std::size_t>(depth));
            for_each_skeleton(shard, [&](const Program& p) {
                sharded.push_back(elt::program_to_string(p));
                return true;
            });
        }
        EXPECT_EQ(full, sharded) << "depth=" << depth;
    }
}

TEST(Skeleton, ShardVisitStopsEarly)
{
    SkeletonOptions opt;
    opt.num_events = 4;
    const auto shards = partition_skeletons(opt, 8);
    ASSERT_FALSE(shards.empty());
    int count = 0;
    const bool completed = for_each_skeleton(shards[0], [&](const Program&) {
        ++count;
        return false;
    });
    EXPECT_FALSE(completed);
    EXPECT_EQ(count, 1);
}

TEST(Skeleton, ShardVisitStopsOnInterrupt)
{
    // The interrupt is polled every 1024 units of enumeration work; once it
    // fires, the pass unwinds like a visitor stop.
    SkeletonOptions opt;
    opt.num_events = 6;
    const SkeletonShard whole{opt, {}};
    std::size_t full = 0;
    for_each_skeleton(whole, [&](const Program&) {
        ++full;
        return true;
    });
    std::size_t seen = 0;
    const bool completed = for_each_skeleton(
        whole,
        [&](const Program&) {
            ++seen;
            return true;
        },
        [] { return true; });
    EXPECT_FALSE(completed);
    EXPECT_LT(seen, full);
    EXPECT_TRUE(for_each_skeleton(whole, [](const Program&) { return true; },
                                  [] { return false; }));
}

TEST(Skeleton, DirtyBitAsRmwAblationAddsRdb)
{
    SkeletonOptions opt;
    opt.num_events = 4;
    opt.dirty_bit_as_rmw = true;
    bool saw_write = false;
    for_each_skeleton(opt, [&](const Program& p) {
        for (int id = 0; id < p.num_events(); ++id) {
            if (p.event(id).kind == EventKind::kWrite) {
                saw_write = true;
                EXPECT_NE(p.rdb_of(id), elt::kNone);
                EXPECT_NE(p.wdb_of(id), elt::kNone);
            }
        }
        return true;
    });
    EXPECT_TRUE(saw_write);
}

}  // namespace
}  // namespace transform::synth
