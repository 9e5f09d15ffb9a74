#include "sim/event_queue.hh"

#include <cassert>
#include <utility>

namespace cameo
{

void
EventQueue::schedule(Tick when, Callback cb)
{
    assert(when >= curTick_ && "scheduling into the past");
    heap_.push(Entry{when, nextSeq_++, std::move(cb)});
}

Tick
EventQueue::nextTick() const
{
    assert(!heap_.empty());
    return heap_.top().when;
}

void
EventQueue::runOne()
{
    assert(!heap_.empty());
    // priority_queue::top() is const; move out via const_cast is UB-free
    // here because we pop immediately, but copy instead for clarity.
    Entry e = heap_.top();
    heap_.pop();
    curTick_ = e.when;
    e.cb(e.when);
}

void
EventQueue::runUntil(Tick limit)
{
    while (!heap_.empty() && heap_.top().when <= limit)
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
