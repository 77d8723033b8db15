/// \file
/// Chase-Lev lock-free work-stealing deque (Chase & Lev, SPAA 2005, with
/// the C11 memory orders of Lê et al., PPoPP 2013) — the per-worker queue
/// of the v2 synthesis scheduler (see docs/scheduler.md).
///
/// One thread — the *owner* — pushes and pops at the bottom (LIFO); any
/// number of *thieves* steal from the top (FIFO). The two ends only meet on
/// the last element, where a compare-exchange on `top` arbitrates. Under
/// the v1 mutex deques every owner pop paid a lock; here the owner's fast
/// path is three atomic operations with no contention, which is what lets
/// the engine cut the search into thousands of small shards without the
/// dispatch overhead dominating the search.
///
/// Deviation from the literature formulation: the published algorithm uses
/// standalone `atomic_thread_fence`s, which ThreadSanitizer does not model
/// (it would report false positives). This implementation folds the fences
/// into `seq_cst` operations on `top_`/`bottom_` at the racy points, so the
/// deque is verifiable under TSan (`sched_test` runs under TSan in CI).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/logging.h"

namespace transform::sched {

/// A lock-free single-owner, multi-thief deque.
///
/// \tparam T element type; must be trivially copyable and lock-free-atomic
///           sized (the scheduler instantiates it with a job pointer).
///
/// Thread-safety contract:
///  - push() and pop() may be called by ONE thread at a time (the owner;
///    ownership may migrate between batches, but never concurrently).
///  - steal() may be called by any thread concurrently with everything.
///  - The destructor must not run concurrently with any operation (the
///    pool joins its workers first).
template <typename T>
class ChaseLevDeque {
    static_assert(std::is_trivially_copyable_v<T>,
                  "elements are copied through std::atomic slots");

  public:
    /// Creates a deque whose ring initially holds \p initial_capacity
    /// elements (rounded up to a power of two); the ring grows on demand.
    explicit ChaseLevDeque(std::size_t initial_capacity = 256)
    {
        std::size_t cap = 1;
        while (cap < initial_capacity) {
            cap <<= 1;
        }
        ring_.store(new Ring(cap), std::memory_order_relaxed);
    }

    ~ChaseLevDeque()
    {
        delete ring_.load(std::memory_order_relaxed);
        // retired_ rings delete themselves via unique_ptr.
    }

    ChaseLevDeque(const ChaseLevDeque&) = delete;
    ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

    /// Owner only. Pushes \p item at the bottom; grows the ring when full
    /// (old rings are retired, not freed, so in-flight thieves can still
    /// read them — they are reclaimed by the destructor).
    void
    push(T item)
    {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        const std::int64_t t = top_.load(std::memory_order_acquire);
        Ring* a = ring_.load(std::memory_order_relaxed);
        if (b - t >= static_cast<std::int64_t>(a->capacity())) {
            a = grow(a, t, b);
        }
        a->put(b, item);
        // The release pairs with the acquire-or-stronger load of bottom_ in
        // steal(): a thief that observes index b occupied also observes the
        // slot write above.
        bottom_.store(b + 1, std::memory_order_release);
    }

    /// Owner only. Pops the most recently pushed element (LIFO). Returns
    /// false when the deque is empty or a thief won the last element.
    bool
    pop(T* out)
    {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        Ring* a = ring_.load(std::memory_order_relaxed);
        // seq_cst store + seq_cst load stand in for the SC fence between
        // reserving the bottom slot and reading top (Lê et al., fig. 1).
        bottom_.store(b, std::memory_order_seq_cst);
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        if (t < b) {
            *out = a->get(b);  // more than one element: no thief can reach b
            return true;
        }
        bool won = false;
        if (t == b) {
            // Last element: race the thieves for it via top.
            won = top_.compare_exchange_strong(t, t + 1,
                                               std::memory_order_seq_cst,
                                               std::memory_order_relaxed);
            if (won) {
                *out = a->get(b);
            }
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
    }

    /// Any thread. Steals the oldest element (FIFO). Returns false when the
    /// deque looked empty or another thief (or the owner, on the last
    /// element) raced us; callers treat false as "try elsewhere", not as a
    /// guarantee of emptiness.
    bool
    steal(T* out)
    {
        std::int64_t t = top_.load(std::memory_order_seq_cst);
        const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
        if (t >= b) {
            return false;
        }
        // Read the slot *before* claiming it: a successful CAS on top_
        // validates that the slot was not recycled underneath us (top_ is
        // monotonic, so there is no ABA), and the acquire pairing on
        // ring_/bottom_ makes both the slot value and, for pointer
        // elements, the pointee contents visible.
        Ring* a = ring_.load(std::memory_order_acquire);
        const T item = a->get(t);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
            return false;
        }
        *out = item;
        return true;
    }

    /// Approximate element count (relaxed reads; for victim selection and
    /// diagnostics only — never use it to prove emptiness).
    std::size_t
    size_estimate() const
    {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        const std::int64_t t = top_.load(std::memory_order_relaxed);
        return b > t ? static_cast<std::size_t>(b - t) : 0;
    }

    /// Current ring capacity (exposed for the growth tests).
    std::size_t
    capacity() const
    {
        return ring_.load(std::memory_order_relaxed)->capacity();
    }

  private:
    /// A power-of-two ring of atomic slots. Slots are atomic not for
    /// inter-thread ordering (top_/bottom_ carry that) but so that a
    /// thief's read racing with the owner recycling a slot is a benign
    /// stale value (discarded by the CAS) instead of a torn read.
    class Ring {
      public:
        explicit Ring(std::size_t capacity)
            : mask_(capacity - 1),
              slots_(std::make_unique<std::atomic<T>[]>(capacity))
        {
            TF_ASSERT((capacity & mask_) == 0);  // power of two
        }

        std::size_t capacity() const { return mask_ + 1; }

        T
        get(std::int64_t i) const
        {
            return slots_[static_cast<std::size_t>(i) & mask_].load(
                std::memory_order_relaxed);
        }

        void
        put(std::int64_t i, T item)
        {
            slots_[static_cast<std::size_t>(i) & mask_].store(
                item, std::memory_order_relaxed);
        }

      private:
        std::size_t mask_;
        std::unique_ptr<std::atomic<T>[]> slots_;
    };

    /// Owner only: doubles the ring, copying the live range [top, bottom).
    /// The old ring is retired (kept allocated) because a thief may hold a
    /// pointer to it; rings are small (pointers), so deferring reclamation
    /// to the destructor is cheaper than hazard pointers.
    Ring*
    grow(Ring* old, std::int64_t top, std::int64_t bottom)
    {
        Ring* bigger = new Ring(old->capacity() * 2);
        for (std::int64_t i = top; i < bottom; ++i) {
            bigger->put(i, old->get(i));
        }
        retired_.emplace_back(old);
        // Release: a thief that acquires the new ring pointer sees every
        // copied slot.
        ring_.store(bigger, std::memory_order_release);
        return bigger;
    }

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Ring*> ring_{nullptr};
    std::vector<std::unique_ptr<Ring>> retired_;  ///< owner-only
};

}  // namespace transform::sched
