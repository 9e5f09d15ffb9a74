#include "sim/kernel.hh"

#include <algorithm>
#include <cassert>

namespace cameo
{

void
SimKernel::addAgent(Agent *agent)
{
    assert(agent != nullptr);
    agents_.push_back(agent);
}

namespace
{

/** One dispatch-heap entry: an agent's index and its key tick. */
struct DispatchKey
{
    Tick tick;
    std::size_t index;
};

/** (tick, index) order: true when @p a dispatches before @p b. */
bool
dispatchesBefore(const DispatchKey &a, const DispatchKey &b)
{
    if (a.tick != b.tick)
        return a.tick < b.tick;
    return a.index < b.index;
}

/** Max-heap comparator that puts the first key to dispatch on top. */
bool
dispatchesAfter(const DispatchKey &a, const DispatchKey &b)
{
    return dispatchesBefore(b, a);
}

} // namespace

Tick
SimKernel::run(std::uint64_t max_steps, const std::function<bool()> &stop)
{
    // Lazy-update binary heap keyed by (tick, agent index): after an
    // agent steps, push a fresh entry; stale entries are skipped when
    // their stored tick no longer matches the agent's current tick.
    // Every key is unique (an agent holds at most one entry), so the
    // dispatch order is a function of the keys alone.
    std::vector<DispatchKey> heap;
    heap.reserve(agents_.size());
    const auto push = [&heap](Tick tick, std::size_t idx) {
        heap.push_back(DispatchKey{tick, idx});
        std::push_heap(heap.begin(), heap.end(), dispatchesAfter);
    };

    // Agents parked on a deferred completion (blocked() == true). An
    // agent can already be blocked here when this run() continues a
    // checkpointed one — route it to `parked`, not the heap, or the
    // pop path would drop it without tracking it.
    std::vector<std::size_t> parked;

    for (std::size_t i = 0; i < agents_.size(); ++i) {
        if (agents_[i]->done())
            continue;
        if (agents_[i]->blocked())
            parked.push_back(i);
        else
            push(agents_[i]->nextReadyTick(), i);
    }

    stepsExecuted_ = 0;
    hitStepLimit_ = false;
    stoppedEarly_ = false;
#if CAMEO_AUDIT_ENABLED
    auditor_.reset();
#endif

    const auto unpark = [&] {
        for (std::size_t i = parked.size(); i-- > 0;) {
            const std::size_t idx = parked[i];
            if (!agents_[idx]->blocked()) {
                push(agents_[idx]->nextReadyTick(), idx);
                parked[i] = parked.back();
                parked.pop_back();
            }
        }
    };

    while (stepsExecuted_ < max_steps && !stoppedEarly_) {
        // Deliver completions due at or before the next dispatch so
        // deliveries and steps interleave in global-time order. With
        // no pending events (Blocking timing) this whole block is a
        // no-op and the loop reduces to the legacy dispatch loop.
        if (!events_.empty() &&
            (heap.empty() || events_.nextTick() <= heap.front().tick)) {
            events_.runOne();
            unpark();
            continue;
        }
        if (heap.empty()) {
            // No runnable agent and no pending event: parked agents
            // here mean a completion was lost — break (never spin).
            CAMEO_AUDIT(parked.empty(),
                        "kernel: agents parked with no pending event");
            break;
        }
        std::pop_heap(heap.begin(), heap.end(), dispatchesAfter);
        DispatchKey key = heap.back();
        heap.pop_back();
        Agent *agent = agents_[key.index];
        if (agent->done())
            continue;
        if (agent->blocked())
            continue; // stale entry; the agent is tracked in `parked`
        if (agent->nextReadyTick() != key.tick) {
            // Stale entry; reinsert with the current key.
            push(agent->nextReadyTick(), key.index);
            continue;
        }
        // Step the agent, then keep stepping it while its fresh key
        // would be popped straight back: first in (tick, index) order
        // and strictly before the next event (an event at the same
        // tick fires first). That is exactly the dispatch the heap
        // round trip would make, so the order is unchanged.
        for (;;) {
#if CAMEO_AUDIT_ENABLED
            auditor_.onDispatch(key.index, key.tick);
#endif
            agent->step();
            ++stepsExecuted_;
#if CAMEO_AUDIT_ENABLED
            auditor_.onStepped(key.index, key.tick, agent->nextReadyTick());
#endif
            bool runnable = false;
            if (!agent->done()) {
                if (agent->blocked()) {
                    parked.push_back(key.index);
                } else {
                    runnable = true;
                    key.tick = agent->nextReadyTick();
                }
            }
            if (stop && stop()) {
                // Checkpoint stop: leave pending events and agent state
                // exactly mid-flight; a snapshot (or a later run())
                // picks up from here.
                stoppedEarly_ = true;
                break;
            }
            if (!runnable)
                break;
            if (stepsExecuted_ < max_steps &&
                (heap.empty() || dispatchesBefore(key, heap.front())) &&
                (events_.empty() || key.tick < events_.nextTick())) {
                continue;
            }
            push(key.tick, key.index);
            break;
        }
    }

    if (!stoppedEarly_) {
        // Deliver completions still in flight (agents issue their last
        // misses and finish before the data returns) so finishTick()
        // and the in-flight bookkeeping settle.
        events_.runAll();
        for (const Agent *agent : agents_) {
            if (!agent->done())
                hitStepLimit_ = true;
        }
    }

    Tick finish = 0;
    for (const Agent *agent : agents_)
        finish = std::max(finish, agent->nextReadyTick());
    return finish;
}

} // namespace cameo
