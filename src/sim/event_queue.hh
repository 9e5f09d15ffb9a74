/**
 * @file
 * A minimal discrete-event queue.
 *
 * The main simulation loop (SimKernel) advances core agents by local
 * clock; the one component that schedules deferred callbacks is the
 * Queued-timing memory pipeline, whose completions
 * (MemoryOrganization::submit) are delivered at their device completion
 * tick. EventQueue provides that: (tick, sequence)-ordered callbacks
 * with deterministic FIFO tie-breaking.
 *
 * The queue is allocation-free in steady state (DESIGN.md §8): heap
 * entries are 24-byte PODs that name a slot in a callback pool, freed
 * slots are reused, and runOne() moves the callback out of its slot
 * rather than copying it. A callback whose captures fit std::function's
 * inline buffer (16 bytes in libstdc++, e.g. `{this, slot}`) therefore
 * never touches the heap once the pool and the heap have grown to the
 * run's peak occupancy.
 */

#ifndef CAMEO_SIM_EVENT_QUEUE_HH
#define CAMEO_SIM_EVENT_QUEUE_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.hh"

namespace cameo
{

/** Ordered callback queue; ties broken by insertion order. */
class EventQueue
{
  public:
    using Callback = std::function<void(Tick)>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at @p when. Scheduling in the past (before
     * the last executed tick) is a caller bug and asserts.
     */
    void schedule(Tick when, Callback cb);

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Tick of the earliest pending event. Precondition: !empty(). */
    Tick
    nextTick() const
    {
        assert(!heap_.empty());
        return heap_.front().when;
    }

    /** Tick of the most recently executed event (0 before any). */
    Tick curTick() const { return curTick_; }

    /** Execute exactly the earliest event. Precondition: !empty(). */
    void runOne();

    /** Execute all events with tick <= @p limit. */
    void runUntil(Tick limit);

    /** Execute everything. Returns the tick of the last event run. */
    Tick runAll();

    std::size_t size() const { return heap_.size(); }

    /**
     * Rewind the clock to 0. The warmup→measured switch rebases every
     * requester's clock to 0, so the drained queue must follow or the
     * first measured completion would schedule "into the past".
     * Precondition: empty().
     */
    void rewind();

  private:
    /** Heap key plus the callback's pool slot. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Max-heap comparator that puts the earliest (when, seq) on top. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    std::vector<Entry> heap_;
    /** Callback pool indexed by Entry::slot. */
    std::vector<Callback> slots_;
    /** Pool slots whose callbacks have run (reused LIFO). */
    std::vector<std::uint32_t> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    Tick curTick_ = 0;
};

} // namespace cameo

#endif // CAMEO_SIM_EVENT_QUEUE_HH
