#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cameo
{

void
EventQueue::schedule(Tick when, Callback cb)
{
    assert(when >= curTick_ && "scheduling into the past");
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(cb));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(cb);
    }
    heap_.push_back(Entry{when, nextSeq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void
EventQueue::runOne()
{
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Entry e = heap_.back();
    heap_.pop_back();
    // Move the callback out and free its slot before running it: the
    // callback may schedule, which can reuse the slot or grow the pool.
    Callback cb = std::move(slots_[e.slot]);
    freeSlots_.push_back(e.slot);
    curTick_ = e.when;
    cb(e.when);
}

void
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty() && heap_.front().when <= limit)
        runOne();
}

void
EventQueue::rewind()
{
    assert(heap_.empty() && "rewind only a drained queue");
    curTick_ = 0;
}

Tick
EventQueue::runAll()
{
    while (!heap_.empty())
        runOne();
    return curTick_;
}

} // namespace cameo
