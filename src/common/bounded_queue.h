/**
 * @file
 * Bounded admission queue for the inference serving runtime.
 *
 * The admission queue of a server under overload must *reject* work,
 * not grow: an unbounded queue converts a traffic spike into unbounded
 * memory growth and unbounded latency for everything behind the spike.
 * This queue has a hard capacity; producers that find it full either
 * fail fast (tryPush) or displace the least-valuable queued entry of
 * their own group (pushEvictingWithin — the serving layer's
 * shed-lowest-priority-first admission control). It is the storage
 * under TenantScheduler, which adds the lanes and the blocking pop.
 *
 * Not thread-safe: TenantScheduler guards it, together with its lane
 * counters, under its own mutex, so an admission takes one lock. Each
 * operation is a deque operation or one linear victim scan over at
 * most capacity entries, far below a request's service time (an exec
 * p50 of ~83 µs for the small serving CNN on the reference host).
 */

#ifndef MIXGEMM_COMMON_BOUNDED_QUEUE_H
#define MIXGEMM_COMMON_BOUNDED_QUEUE_H

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace mixgemm
{

/** Outcome of a pushEvictingWithin() admission attempt. */
enum class QueuePush
{
    kPushed,        ///< there was room
    kPushedEvicted, ///< full: a lower-value entry was displaced
    kRejected,      ///< full: nothing queued was worth displacing
    kClosed,        ///< queue is closed to producers
};

/** Bounded queue; externally synchronized. T must be movable. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : capacity_(capacity)
    {
        if (capacity == 0)
            fatal("BoundedQueue: capacity must be at least 1");
    }

    /** Enqueue; false when full or closed. */
    bool tryPush(T item)
    {
        if (closed_ || items_.size() >= capacity_)
            return false;
        items_.push_back(std::move(item));
        return true;
    }

    /**
     * Enqueue, displacing the least-valuable entry of the pusher's group
     * when full. @p retain_less orders entries by retention value
     * (`a < b` means a is less worth keeping); the victim search only
     * considers entries for which @p eligible returns true (the
     * pusher's own tenant lane), so one tenant's arrival can never
     * displace another tenant's queued work — the isolation invariant
     * the fairness layer depends on. Eviction is attempted when the
     * queue is globally full *or* when the caller reports the pusher's
     * group at its own bound (@p at_group_bound); in either case the
     * least-valuable eligible entry is moved into @p evicted and
     * replaced by @p item iff it is worth less than @p item, otherwise
     * the push is rejected and the queue is untouched. @p item is
     * consumed only on kPushed/kPushedEvicted; on kRejected/kClosed the
     * caller's object is left intact (so a rejected request can still
     * be answered through it).
     */
    template <typename Less, typename Eligible>
    QueuePush pushEvictingWithin(T &&item, Less retain_less,
                                 Eligible eligible, bool at_group_bound,
                                 std::optional<T> &evicted)
    {
        evicted.reset();
        if (closed_)
            return QueuePush::kClosed;
        if (!at_group_bound && items_.size() < capacity_) {
            items_.push_back(std::move(item));
            return QueuePush::kPushed;
        }
        auto victim = items_.end();
        for (auto it = items_.begin(); it != items_.end(); ++it) {
            if (!eligible(*it))
                continue;
            if (victim == items_.end() || retain_less(*it, *victim))
                victim = it;
        }
        if (victim == items_.end() || !retain_less(*victim, item))
            return QueuePush::kRejected;
        evicted = std::move(*victim);
        *victim = std::move(item);
        return QueuePush::kPushedEvicted;
    }

    /** Dequeue without blocking; nullopt when empty. */
    std::optional<T> tryPop()
    {
        if (items_.empty())
            return std::nullopt;
        std::optional<T> item(std::move(items_.front()));
        items_.pop_front();
        return item;
    }

    /**
     * Dequeue the *oldest* entry satisfying @p pred without blocking;
     * nullopt when no entry matches. FIFO order within the matching
     * subset is preserved — this is how a fair-share scheduler pops
     * the chosen tenant's head-of-line request out of the shared
     * storage.
     */
    template <typename Pred>
    std::optional<T> tryPopWhere(Pred pred)
    {
        for (auto it = items_.begin(); it != items_.end(); ++it) {
            if (pred(*it)) {
                std::optional<T> item(std::move(*it));
                items_.erase(it);
                return item;
            }
        }
        return std::nullopt;
    }

    /** Close the queue: subsequent pushes fail, already-queued items
     * remain poppable (drain-then-exit). */
    void close() { closed_ = true; }

    size_t size() const { return items_.size(); }

    size_t capacity() const { return capacity_; }

  private:
    const size_t capacity_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace mixgemm

#endif // MIXGEMM_COMMON_BOUNDED_QUEUE_H
