/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and the
 * agent-interleaving SimKernel, including a property test that pins
 * SimKernel::run() to the plain lazy-heap dispatch loop it optimizes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/kernel.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreak)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&](Tick) { order.push_back(1); });
    q.schedule(5, [&](Tick) { order.push_back(2); });
    q.schedule(5, [&](Tick) { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&](Tick) { ++count; });
    q.schedule(20, [&](Tick) { ++count; });
    q.schedule(30, [&](Tick) { ++count; });
    q.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTick(), 30u);
}

TEST(EventQueueTest, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&](Tick now) {
        ++fired;
        q.schedule(now + 5, [&](Tick) { ++fired; });
    });
    const Tick last = q.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(last, 15u);
}

TEST(EventQueueTest, CurTickTracksExecution)
{
    EventQueue q;
    q.schedule(42, [](Tick) {});
    EXPECT_EQ(q.curTick(), 0u);
    q.runOne();
    EXPECT_EQ(q.curTick(), 42u);
}

TEST(EventQueueTest, FifoTieBreakSurvivesInterleavedExecution)
{
    // Same-tick FIFO must hold even when execution interleaves with
    // scheduling: an event submitted at the current tick (mid-drain)
    // still runs after earlier same-tick submissions and before any
    // later tick. This is the ordering queued-timing completions rely
    // on for jobs-independent determinism.
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&](Tick) { order.push_back(1); });
    q.schedule(7, [&](Tick) { order.push_back(4); });
    q.runOne(); // executes tick 5; curTick() == 5
    q.schedule(5, [&](Tick) { order.push_back(2); });
    q.schedule(5, [&](Tick) { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

/** Agent that advances its clock by a fixed stride per step. */
class StrideAgent : public Agent
{
  public:
    StrideAgent(Tick start, Tick stride, int steps,
                std::vector<std::pair<int, Tick>> *log, int id)
        : clock_(start), stride_(stride), remaining_(steps), log_(log),
          id_(id)
    {}

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override { return remaining_ == 0; }

    void
    step() override
    {
        log_->emplace_back(id_, clock_);
        clock_ += stride_;
        --remaining_;
    }

  private:
    Tick clock_;
    Tick stride_;
    int remaining_;
    std::vector<std::pair<int, Tick>> *log_;
    int id_;
};

TEST(SimKernelTest, StepsAgentsInGlobalTimeOrder)
{
    std::vector<std::pair<int, Tick>> log;
    StrideAgent fast(0, 3, 10, &log, 0);
    StrideAgent slow(1, 7, 5, &log, 1);
    SimKernel kernel;
    kernel.addAgent(&fast);
    kernel.addAgent(&slow);
    kernel.run();

    ASSERT_EQ(log.size(), 15u);
    // Steps must be globally ordered by the clock at step time.
    for (std::size_t i = 1; i < log.size(); ++i)
        EXPECT_LE(log[i - 1].second, log[i].second);
}

TEST(SimKernelTest, ReturnsSlowestFinishTime)
{
    std::vector<std::pair<int, Tick>> log;
    StrideAgent a(0, 10, 3, &log, 0);  // finishes at clock 30
    StrideAgent b(0, 100, 2, &log, 1); // finishes at clock 200
    SimKernel kernel;
    kernel.addAgent(&a);
    kernel.addAgent(&b);
    EXPECT_EQ(kernel.run(), 200u);
}

TEST(SimKernelTest, MaxStepsGuardStopsRunaway)
{
    std::vector<std::pair<int, Tick>> log;
    StrideAgent a(0, 1, 1000000, &log, 0);
    SimKernel kernel;
    kernel.addAgent(&a);
    kernel.run(100);
    EXPECT_EQ(log.size(), 100u);
}

TEST(SimKernelTest, EmptyKernelReturnsZero)
{
    SimKernel kernel;
    EXPECT_EQ(kernel.run(), 0u);
}

/** Agent whose clock can jump (models a fault stall + yield). */
class JumpingAgent : public Agent
{
  public:
    explicit JumpingAgent(std::vector<Tick> *log) : log_(log) {}

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override { return steps_ >= 4; }

    void
    step() override
    {
        log_->push_back(clock_);
        ++steps_;
        clock_ += (steps_ == 2) ? 1000 : 10; // big jump mid-run
    }

  private:
    Tick clock_ = 0;
    int steps_ = 0;
    std::vector<Tick> *log_;
};

TEST(SimKernelTest, EventsInterleaveWithAgentStepsInTimeOrder)
{
    // Events in the kernel's queue fire when their tick is at or
    // before the next agent dispatch: the combined step/delivery
    // sequence is globally time-ordered, with ties resolved
    // event-first. Queued-timing completions depend on this.
    std::vector<std::pair<int, Tick>> log;
    StrideAgent agent(0, 10, 5, &log, 0); // steps at 0,10,20,30,40
    SimKernel kernel;
    kernel.addAgent(&agent);
    // Each event records (its tick, agent steps taken so far).
    std::vector<std::pair<Tick, std::size_t>> fired;
    for (const Tick t : {Tick{25}, Tick{5}, Tick{20}})
        kernel.events().schedule(t, [&](Tick when) {
            fired.emplace_back(when, log.size());
        });
    kernel.run();

    ASSERT_EQ(fired.size(), 3u);
    // Tick 5: after the agent's tick-0 step only.
    EXPECT_EQ(fired[0], (std::pair<Tick, std::size_t>{5, 1}));
    // Tick 20 ties with an agent step at 20: the event fires first,
    // so only the tick-0 and tick-10 steps precede it.
    EXPECT_EQ(fired[1], (std::pair<Tick, std::size_t>{20, 2}));
    // Tick 25: after the agent's tick-20 step.
    EXPECT_EQ(fired[2], (std::pair<Tick, std::size_t>{25, 3}));
    ASSERT_EQ(log.size(), 5u);
}

/** Agent that issues one "miss", parks, and resumes on completion. */
class ParkingAgent : public Agent
{
  public:
    explicit ParkingAgent(EventQueue *events) : events_(events) {}

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override { return steps_ >= 2; }
    bool blocked() const override { return parked_; }

    void
    step() override
    {
        ++steps_;
        if (steps_ == 1) {
            // Miss: completion arrives at tick 500; park until then.
            parked_ = true;
            events_->schedule(500, [this](Tick when) {
                parked_ = false;
                clock_ = when;
            });
        }
    }

    int steps() const { return steps_; }

  private:
    EventQueue *events_;
    Tick clock_ = 0;
    int steps_ = 0;
    bool parked_ = false;
};

TEST(SimKernelTest, ParkedAgentResumesOnCompletionEvent)
{
    SimKernel kernel;
    ParkingAgent agent(&kernel.events());
    kernel.addAgent(&agent);
    const Tick finish = kernel.run();
    EXPECT_EQ(agent.steps(), 2);
    EXPECT_TRUE(agent.done());
    EXPECT_EQ(finish, 500u);
}

TEST(SimKernelTest, LeftoverEventsDrainBeforeReturn)
{
    // Agents can finish with completions still in flight; run() must
    // deliver them before returning so pipeline bookkeeping settles.
    std::vector<std::pair<int, Tick>> log;
    StrideAgent agent(0, 10, 2, &log, 0); // finishes at tick 20
    SimKernel kernel;
    kernel.addAgent(&agent);
    bool delivered = false;
    kernel.events().schedule(1000, [&](Tick) { delivered = true; });
    kernel.run();
    EXPECT_TRUE(delivered);
}

TEST(SimKernelTest, OtherAgentsRunDuringJumps)
{
    std::vector<Tick> jump_log;
    std::vector<std::pair<int, Tick>> stride_log;
    JumpingAgent jumper(&jump_log);
    StrideAgent strider(0, 50, 30, &stride_log, 0);
    SimKernel kernel;
    kernel.addAgent(&jumper);
    kernel.addAgent(&strider);
    kernel.run();
    // The strider must have stepped inside the jumper's 1000-cycle gap.
    bool inside = false;
    for (const auto &[id, t] : stride_log)
        inside |= (t > 20 && t < 1000);
    EXPECT_TRUE(inside);
}

/** One entry of a dispatch trace: a step or an event delivery. */
struct TraceEntry
{
    char kind;         ///< 'S' agent step, 'E' event delivery.
    std::uint64_t who; ///< Agent index (step) or event id (event).
    Tick tick;

    bool operator==(const TraceEntry &) const = default;
};

/** State shared by one randomized agent population. */
struct World
{
    EventQueue *events = nullptr;
    std::vector<TraceEntry> trace;
    std::vector<class RandomAgent *> agents;
    std::uint64_t nextEventId = 0;
    std::uint64_t parks = 0; ///< Steps that parked their agent.
    std::uint64_t bumps = 0; ///< Clock bumps of a heap-resident agent.
};

/**
 * Agent with randomized strides drawn from a small set (so ticks tie
 * across agents), which sometimes parks until an event unparks it,
 * schedules no-op events at the tick of its own next step, or bumps
 * another agent's clock from an event (a stale dispatch-heap entry).
 */
class RandomAgent : public Agent
{
  public:
    RandomAgent(World *world, std::size_t index, std::uint64_t seed)
        : world_(world), index_(index), rng_(seed),
          clock_(rng_.next(4)), remaining_(20 + rng_.next(60))
    {}

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override { return remaining_ == 0; }
    bool blocked() const override { return parked_; }

    void
    step() override
    {
        world_->trace.push_back({'S', index_, clock_});
        --remaining_;
        static constexpr Tick kStrides[] = {0, 1, 1, 2, 3, 7};
        const Tick stride = kStrides[rng_.next(std::size(kStrides))];
        switch (rng_.next(8)) {
          case 0: // Park until an event at or after the current tick.
            parked_ = true;
            ++world_->parks;
            schedule(clock_ + rng_.next(12), [this](Tick when) {
                parked_ = false;
                clock_ = std::max(clock_, when);
            });
            break;
          case 1: // An event at the tick of this agent's next step.
            schedule(clock_ + stride, [](Tick) {});
            break;
          case 2: { // Move another runnable agent's clock forward.
            RandomAgent *other =
                world_->agents[rng_.next(world_->agents.size())];
            const Tick bump = 1 + rng_.next(5);
            World *world = world_;
            schedule(clock_ + rng_.next(4), [world, other, bump](Tick) {
                if (!other->parked_ && !other->done()) {
                    other->clock_ += bump;
                    ++world->bumps;
                }
            });
            break;
          }
          default:
            break;
        }
        clock_ += stride;
    }

  private:
    /** Schedule @p fn, logging its delivery in the trace first. */
    void
    schedule(Tick when, std::function<void(Tick)> fn)
    {
        const std::uint64_t id = world_->nextEventId++;
        World *world = world_;
        world_->events->schedule(when, [world, id, fn](Tick at) {
            world->trace.push_back({'E', id, at});
            fn(at);
        });
    }

    World *world_;
    std::size_t index_;
    Rng rng_;
    Tick clock_;
    std::uint64_t remaining_;
    bool parked_ = false;
};

/** What one run() reports, for comparing kernels. */
struct RunOutcome
{
    Tick finish = 0;
    std::uint64_t steps = 0;
    bool hitStepLimit = false;
    bool stoppedEarly = false;

    bool operator==(const RunOutcome &) const = default;
};

/**
 * The reference dispatch loop: SimKernel::run() as it was before the
 * same-agent fast path — every step goes through a lazy-update
 * std::priority_queue keyed by (tick, agent index).
 */
RunOutcome
referenceRun(const std::vector<Agent *> &agents, EventQueue &events,
             std::uint64_t max_steps, const std::function<bool()> &stop)
{
    using HeapEntry = std::pair<Tick, std::size_t>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>> heap;
    std::vector<std::size_t> parked;
    for (std::size_t i = 0; i < agents.size(); ++i) {
        if (agents[i]->done())
            continue;
        if (agents[i]->blocked())
            parked.push_back(i);
        else
            heap.emplace(agents[i]->nextReadyTick(), i);
    }
    RunOutcome out;
    const auto unpark = [&] {
        for (std::size_t i = parked.size(); i-- > 0;) {
            const std::size_t idx = parked[i];
            if (!agents[idx]->blocked()) {
                heap.emplace(agents[idx]->nextReadyTick(), idx);
                parked[i] = parked.back();
                parked.pop_back();
            }
        }
    };
    while (out.steps < max_steps) {
        if (!events.empty() &&
            (heap.empty() || events.nextTick() <= heap.top().first)) {
            events.runOne();
            unpark();
            continue;
        }
        if (heap.empty())
            break;
        auto [tick, idx] = heap.top();
        heap.pop();
        Agent *agent = agents[idx];
        if (agent->done() || agent->blocked())
            continue;
        if (agent->nextReadyTick() != tick) {
            heap.emplace(agent->nextReadyTick(), idx);
            continue;
        }
        agent->step();
        ++out.steps;
        if (!agent->done()) {
            if (agent->blocked())
                parked.push_back(idx);
            else
                heap.emplace(agent->nextReadyTick(), idx);
        }
        if (stop && stop()) {
            out.stoppedEarly = true;
            break;
        }
    }
    if (!out.stoppedEarly) {
        events.runAll();
        for (const Agent *agent : agents)
            out.hitStepLimit |= !agent->done();
    }
    for (const Agent *agent : agents)
        out.finish = std::max(out.finish, agent->nextReadyTick());
    return out;
}

/** A randomized population bound to its own event queue. */
struct Population
{
    explicit Population(std::uint64_t seed, EventQueue *events)
    {
        world.events = events;
        Rng rng(seed);
        const std::size_t n = 1 + rng.next(6);
        for (std::size_t i = 0; i < n; ++i)
            owned.push_back(std::make_unique<RandomAgent>(&world, i, rng()));
        for (const auto &a : owned) {
            world.agents.push_back(a.get());
            agents.push_back(a.get());
        }
    }

    World world;
    std::vector<std::unique_ptr<RandomAgent>> owned;
    std::vector<Agent *> agents;
};

/**
 * Run one population through SimKernel and a twin through the
 * reference loop, in up to two legs (a stop predicate ends the first
 * leg; the second continues it), and require identical traces.
 */
void
expectSameDispatch(std::uint64_t seed, std::uint64_t max_steps,
                   std::size_t stop_after)
{
    SimKernel kernel;
    Population fast(seed, &kernel.events());
    for (Agent *a : fast.agents)
        kernel.addAgent(a);

    EventQueue ref_events;
    Population ref(seed, &ref_events);

    const auto stop_for = [stop_after](const World &w) {
        return std::function<bool()>([&w, stop_after] {
            return stop_after != 0 && w.trace.size() >= stop_after;
        });
    };
    for (int leg = 0; leg < 2; ++leg) {
        const std::function<bool()> fast_stop =
            leg == 0 ? stop_for(fast.world) : std::function<bool()>{};
        const std::function<bool()> ref_stop =
            leg == 0 ? stop_for(ref.world) : std::function<bool()>{};
        RunOutcome got;
        got.finish = kernel.run(max_steps, fast_stop);
        got.steps = kernel.stepsExecuted();
        got.hitStepLimit = kernel.hitStepLimit();
        got.stoppedEarly = kernel.stoppedEarly();
        const RunOutcome want =
            referenceRun(ref.agents, ref_events, max_steps, ref_stop);

        ASSERT_EQ(fast.world.trace, ref.world.trace)
            << "seed " << seed << " leg " << leg;
        ASSERT_EQ(got, want) << "seed " << seed << " leg " << leg;
        if (!got.stoppedEarly)
            break;
    }
}

TEST(SimKernelDispatchTest, MatchesLazyHeapReferenceLoop)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        expectSameDispatch(seed, ~std::uint64_t{0}, 0);
}

TEST(SimKernelDispatchTest, MatchesReferenceUnderStepLimit)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        expectSameDispatch(seed, 1 + seed % 97, 0);
}

TEST(SimKernelDispatchTest, MatchesReferenceAcrossStopAndContinue)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed)
        expectSameDispatch(seed, ~std::uint64_t{0}, 1 + seed % 53);
}

TEST(SimKernelDispatchTest, PopulationsExerciseTiesParksAndStaleEntries)
{
    // Guard the property tests above against a generator that never
    // produces the cases they exist for.
    std::size_t tied_steps = 0;
    std::size_t same_tick_events = 0;
    std::uint64_t parks = 0;
    std::uint64_t bumps = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        EventQueue events;
        Population pop(seed, &events);
        referenceRun(pop.agents, events, ~std::uint64_t{0}, {});
        parks += pop.world.parks;
        bumps += pop.world.bumps;
        const auto &t = pop.world.trace;
        for (std::size_t i = 1; i < t.size(); ++i) {
            if (t[i].tick != t[i - 1].tick)
                continue;
            if (t[i].kind == 'S' && t[i - 1].kind == 'S' &&
                t[i].who != t[i - 1].who)
                ++tied_steps;
            if (t[i].kind != t[i - 1].kind)
                ++same_tick_events;
        }
    }
    EXPECT_GT(tied_steps, 100u);
    EXPECT_GT(same_tick_events, 100u);
    EXPECT_GT(parks, 100u);
    EXPECT_GT(bumps, 100u);
}

} // namespace
} // namespace cameo
