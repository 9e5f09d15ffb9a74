/**
 * @file
 * Zero-allocation guard for the Queued-timing hot path (DESIGN.md §8).
 *
 * This binary replaces the global operator new with a counting one, so
 * the tests read an exact, host-independent allocation count. After a
 * warm-up that grows every pool to its steady-state size, 100K
 * iterations of each hot loop must allocate nothing:
 *
 *  - EventQueue schedule + runOne with a 16-byte capture;
 *  - a Queued DramModule read/write stream that crosses the write
 *    buffer's drain watermarks;
 *  - MemoryOrganization::submit plus event delivery on Queued Baseline
 *    and CAMEO organizations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "dram/dram_module.hh"
#include "orgs/memory_organization.hh"
#include "sim/event_queue.hh"
#include "sim/mem_request.hh"
#include "util/rng.hh"

namespace
{

std::atomic<std::uint64_t> gAllocations{0};

// Every replaced operator new/delete goes through this pair. Neither is
// inlined, so GCC cannot follow a pointer from a new expression into
// free() and misreport this matched malloc/free as
// -Wmismatched-new-delete.
[[gnu::noinline]] void *
countedAlloc(std::size_t n)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

namespace cameo
{
namespace
{

constexpr int kWarmup = 20'000;
constexpr int kIterations = 100'000;

std::uint64_t
allocations()
{
    return gAllocations.load(std::memory_order_relaxed);
}

TEST(ZeroAllocTest, CounterSeesHeapAllocations)
{
    // The guard is only as good as the counter: a real allocation must
    // register.
    const std::uint64_t before = allocations();
    void *p = ::operator new(24);
    const std::uint64_t allocated = allocations() - before;
    ::operator delete(p);
    EXPECT_EQ(allocated, 1u);
}

TEST(ZeroAllocTest, EventQueueScheduleAndRunWithSmallCapture)
{
    EventQueue q;
    std::uint64_t sum = 0;
    std::uint64_t *const sink = &sum;
    Tick now = 0;
    // A steady population of a few pending events, like in-flight
    // completions: each iteration schedules one and runs the earliest.
    const auto iterate = [&](int i) {
        const std::uint64_t v = static_cast<std::uint64_t>(i);
        static_assert(sizeof(sink) + sizeof(v) <= 16);
        q.schedule(now + 1 + static_cast<Tick>(i % 7),
                   [sink, v](Tick) { *sink += v; });
        if (q.size() > 4) {
            q.runOne();
            now = q.curTick();
        }
    };
    for (int i = 0; i < kWarmup; ++i)
        iterate(i);
    const std::uint64_t before = allocations();
    for (int i = 0; i < kIterations; ++i)
        iterate(i);
    const std::uint64_t allocated = allocations() - before;
    q.runAll();
    EXPECT_EQ(allocated, 0u);
    EXPECT_GT(sum, 0u);
}

TEST(ZeroAllocTest, QueuedDramStreamAcrossDrainWatermarks)
{
    const DramTimings timings = offchipTimings();
    const std::uint64_t capacity = std::uint64_t{64} << 20;
    DramModule dram("dram.test", timings, capacity);
    dram.setTimingMode(TimingMode::Queued, DramQueueConfig{});
    const std::uint64_t lines = capacity / kLineBytes;
    Rng rng(11);
    Tick now = 0;
    const auto iterate = [&] {
        now += rng.next(8);
        // Half writes: every channel's buffer reaches the high
        // watermark and forces FR-FCFS drains.
        dram.request(now, rng.next(lines), rng.chance(0.5));
    };
    for (int i = 0; i < kWarmup; ++i)
        iterate();
    const std::uint64_t drains_before = dram.writeDrains().value();
    const std::uint64_t stalls_before = dram.queueFullStalls().value();
    const std::uint64_t before = allocations();
    for (int i = 0; i < kIterations; ++i)
        iterate();
    EXPECT_EQ(allocations() - before, 0u);
    EXPECT_GT(dram.writeDrains().value(), drains_before);
    EXPECT_GT(dram.queueFullStalls().value(), stalls_before);
}

/** Counts completions; never allocates. */
class CountingClient : public MemClient
{
  public:
    void onMemComplete(const MemRequest &req, Tick done) override
    {
        static_cast<void>(req);
        ++completions;
        last = done;
    }

    std::uint64_t completions = 0;
    Tick last = 0;
};

void
expectSubmitPathAllocationFree(OrgKind kind)
{
    OrgConfig config;
    config.stackedBytes = 1 << 20;
    config.offchipBytes = 3 << 20;
    config.numCores = 2;
    config.timingMode = TimingMode::Queued;
    std::unique_ptr<MemoryOrganization> org = makeOrganization(kind, config);
    EventQueue events;
    org->bindEventQueue(&events);
    CountingClient client;
    const std::uint64_t lines = org->visibleBytes() / kLineBytes;
    Rng rng(5);
    Tick now = 0;
    std::uint64_t issued = 0;
    const auto iterate = [&] {
        now += rng.next(16);
        // A bounded miss window, like CpuCore's: a full window waits
        // for the oldest completion. Without it the pools could reach
        // a new peak (and grow) at any point of the run.
        if (issued - client.completions >= 16)
            now = std::max(now, events.nextTick());
        events.runUntil(now);
        const LineAddr line = rng.next(lines);
        const InstAddr pc = 0x400 + 4 * rng.next(64);
        if (rng.chance(0.25)) {
            // Posted writeback: fire-and-forget, like CpuCore's.
            org->submit(now, line, true, pc, 0);
        } else {
            org->submit(now, line, false, pc, 1, kNoTag, &client);
            ++issued;
        }
    };
    for (int i = 0; i < kWarmup; ++i)
        iterate();
    const std::uint64_t delivered_before = client.completions;
    const std::uint64_t before = allocations();
    for (int i = 0; i < kIterations; ++i)
        iterate();
    const std::uint64_t allocated = allocations() - before;
    events.runAll();
    org->bindEventQueue(nullptr);
    EXPECT_EQ(allocated, 0u) << orgKindName(kind);
    EXPECT_GT(client.completions - delivered_before, 50'000u);
    EXPECT_EQ(org->inflightCount(), 0u);
}

TEST(ZeroAllocTest, QueuedBaselineSubmitAndDelivery)
{
    expectSubmitPathAllocationFree(OrgKind::Baseline);
}

TEST(ZeroAllocTest, QueuedCameoSubmitAndDelivery)
{
    expectSubmitPathAllocationFree(OrgKind::Cameo);
}

} // namespace
} // namespace cameo
