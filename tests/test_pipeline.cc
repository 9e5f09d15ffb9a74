/**
 * @file
 * Transaction-pipeline tests (DESIGN.md §9): submit()/onMemComplete
 * plumbing, the QueueInvariantAuditor, and the Queued timing mode.
 *
 *  - Blocking equivalence: for every organization kind, driving one
 *    instance through the legacy access() calls and a twin instance
 *    through submit() yields identical completion ticks and identical
 *    synchronous callback deliveries — the pipeline wrapper adds no
 *    timing on the blocking path (the golden suite then pins the
 *    full-system numbers bit-for-bit).
 *  - QueueInvariantAuditor: lost, duplicated, time-regressing, and
 *    over-occupancy transactions are each reported.
 *  - Queued property test: a randomized request stream against every
 *    organization, completions delivered through a real EventQueue,
 *    must drain completely — no lost or duplicated completions, every
 *    delivery at or after its issue tick, delivery ticks monotone.
 *  - Queued System runs: every organization finishes its trace, the
 *    executed trace is identical to Blocking, and a sweep of Queued
 *    systems is bit-identical across worker counts.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/audit.hh"
#include "check/queue_auditor.hh"
#include "exp/sweep.hh"
#include "orgs/memory_organization.hh"
#include "sim/event_queue.hh"
#include "sim/mem_request.hh"
#include "snapshot/snapshot.hh"
#include "system/system.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

const std::vector<OrgKind> kAllOrgKinds{
    OrgKind::Baseline,   OrgKind::AlloyCache, OrgKind::TlmStatic,
    OrgKind::TlmDynamic, OrgKind::TlmFreq,    OrgKind::TlmOracle,
    OrgKind::DoubleUse,  OrgKind::Cameo,      OrgKind::CameoFreq,
    OrgKind::Banshee,
};

/** Small org config (capacity ratio as in the paper, 1:3). */
OrgConfig
smallOrgConfig(TimingMode mode)
{
    OrgConfig c;
    c.stackedBytes = 1 << 20;
    c.offchipBytes = 3 << 20;
    c.numCores = 2;
    c.seed = 42;
    c.freq.epochAccesses = 512;
    c.timingMode = mode;
    return c;
}

/** Records every completion it receives. */
class RecordingClient : public MemClient
{
  public:
    struct Delivery
    {
        MemRequest req;
        Tick done;
    };

    void onMemComplete(const MemRequest &req, Tick done) override
    {
        deliveries.push_back({req, done});
    }

    std::vector<Delivery> deliveries;
};

/** One pseudo-random request against @p visible_lines. */
struct TestReq
{
    Tick now;
    LineAddr line;
    bool isWrite;
    InstAddr pc;
    std::uint32_t core;
};

std::vector<TestReq>
makeRequestStream(std::uint64_t visible_lines, std::uint32_t cores,
                  std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TestReq> reqs;
    reqs.reserve(count);
    Tick now = 0;
    for (std::size_t i = 0; i < count; ++i) {
        now += rng.next(40);
        TestReq r;
        r.now = now;
        // Skew toward a hot region so row hits, conflicts, swaps, and
        // cache hits all occur; occasionally roam the whole space.
        const std::uint64_t span =
            rng.chance(0.25) ? visible_lines : visible_lines / 8 + 1;
        r.line = rng.next(span);
        r.isWrite = rng.chance(0.25);
        r.pc = rng.next(1024) * 4;
        r.core = static_cast<std::uint32_t>(rng.next(cores));
        reqs.push_back(r);
    }
    return reqs;
}

TEST(PipelineBlockingTest, SubmitMatchesLegacyAccessForEveryOrg)
{
    for (const OrgKind kind : kAllOrgKinds) {
        const OrgConfig oc = smallOrgConfig(TimingMode::Blocking);
        const auto legacy = makeOrganization(kind, oc);
        const auto piped = makeOrganization(kind, oc);
        ASSERT_NE(legacy, nullptr);
        ASSERT_NE(piped, nullptr);
        if (kind == OrgKind::TlmOracle) {
            legacy->setPageHeat({});
            piped->setPageHeat({});
        }
        EXPECT_EQ(piped->timingMode(), TimingMode::Blocking);

        const std::uint64_t lines = legacy->visibleBytes() / kLineBytes;
        const auto reqs =
            makeRequestStream(lines, oc.numCores, 4000,
                              7 + static_cast<std::uint64_t>(kind));
        RecordingClient client;
        std::size_t expected_deliveries = 0;
        for (const TestReq &r : reqs) {
            const Tick t_legacy =
                legacy->access(r.now, r.line, r.isWrite, r.pc, r.core);
            const Tick t_piped =
                piped->submit(r.now, r.line, r.isWrite, r.pc, r.core,
                              r.isWrite ? kNoTag : 1,
                              r.isWrite ? nullptr : &client);
            ASSERT_EQ(t_legacy, t_piped)
                << orgKindName(kind) << " diverged at now=" << r.now;
            if (!r.isWrite) {
                // Blocking submit delivers synchronously, inside the
                // call, with the same completion tick it returns.
                ++expected_deliveries;
                ASSERT_EQ(client.deliveries.size(), expected_deliveries);
                EXPECT_EQ(client.deliveries.back().done, t_piped);
                EXPECT_EQ(client.deliveries.back().req.line, r.line);
                EXPECT_EQ(client.deliveries.back().req.issueTick, r.now);
            }
        }
    }
}

/** Auditor tests report through AuditSink; keep it non-aborting. */
class QueueAuditorTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        AuditSink::global().reset();
        AuditSink::global().setAbortOnFailure(false);
    }

    void TearDown() override { AuditSink::global().reset(); }
};

TEST_F(QueueAuditorTest, CleanRunHasNoViolations)
{
    QueueInvariantAuditor audit;
    audit.onSubmit(1, 10);
    audit.onSubmit(2, 12);
    audit.onComplete(1, 20);
    audit.onComplete(2, 25);
    audit.checkDrained();
    EXPECT_EQ(audit.violations(), 0u);
    EXPECT_EQ(audit.submits(), 2u);
    EXPECT_EQ(audit.completions(), 2u);
    EXPECT_EQ(audit.outstanding(), 0u);
}

TEST_F(QueueAuditorTest, DetectsDuplicateSubmit)
{
    QueueInvariantAuditor audit;
    audit.onSubmit(7, 10);
    audit.onSubmit(7, 11);
    EXPECT_EQ(audit.violations(), 1u);
}

TEST_F(QueueAuditorTest, DetectsUnknownAndDoubleCompletion)
{
    QueueInvariantAuditor audit;
    audit.onComplete(9, 5);
    EXPECT_EQ(audit.violations(), 1u);
    audit.onSubmit(1, 10);
    audit.onComplete(1, 15);
    audit.onComplete(1, 16); // double completion: id no longer known
    EXPECT_EQ(audit.violations(), 2u);
}

TEST_F(QueueAuditorTest, DetectsCompletionBeforeSubmitTime)
{
    QueueInvariantAuditor audit;
    audit.onSubmit(1, 100);
    audit.onComplete(1, 99);
    EXPECT_EQ(audit.violations(), 1u);
}

TEST_F(QueueAuditorTest, DetectsLostRequestAtDrain)
{
    QueueInvariantAuditor audit;
    audit.onSubmit(1, 10);
    audit.onSubmit(2, 11);
    audit.onComplete(1, 20);
    audit.checkDrained();
    EXPECT_EQ(audit.violations(), 1u);
    EXPECT_EQ(audit.outstanding(), 1u);
}

TEST_F(QueueAuditorTest, MonotonicDeliveryAppliesOnlyToOrderedPath)
{
    QueueInvariantAuditor audit;
    audit.setMonotonicDelivery(true);
    audit.onSubmit(1, 10);
    audit.onSubmit(2, 10);
    audit.onSubmit(3, 10);
    audit.onComplete(1, 50);
    audit.onComplete(2, 40, /*ordered=*/false); // sync write: exempt
    EXPECT_EQ(audit.violations(), 0u);
    audit.onComplete(3, 45); // ordered regression: reported
    EXPECT_EQ(audit.violations(), 1u);
}

TEST_F(QueueAuditorTest, EnforcesOccupancyBound)
{
    QueueInvariantAuditor audit;
    audit.setOccupancyBound(2);
    audit.onSubmit(1, 1);
    audit.onSubmit(2, 2);
    EXPECT_EQ(audit.violations(), 0u);
    audit.onSubmit(3, 3);
    EXPECT_EQ(audit.violations(), 1u);
}

TEST(PipelineQueuedTest, RandomStreamDrainsCleanlyForEveryOrg)
{
    for (const OrgKind kind : kAllOrgKinds) {
        const OrgConfig oc = smallOrgConfig(TimingMode::Queued);
        const auto org = makeOrganization(kind, oc);
        ASSERT_NE(org, nullptr);
        if (kind == OrgKind::TlmOracle)
            org->setPageHeat({});
        EXPECT_EQ(org->timingMode(), TimingMode::Queued);

        EventQueue events;
        org->bindEventQueue(&events);
        RecordingClient client;

        const std::uint64_t lines = org->visibleBytes() / kLineBytes;
        const auto reqs =
            makeRequestStream(lines, oc.numCores, 4000,
                              31 + static_cast<std::uint64_t>(kind));
        std::size_t expected = 0;
        for (const TestReq &r : reqs) {
            // Deliver completions due before this request's issue time,
            // as the kernel would between agent steps.
            events.runUntil(r.now);
            const Tick done =
                org->submit(r.now, r.line, r.isWrite, r.pc, r.core,
                            r.isWrite ? kNoTag : 1,
                            r.isWrite ? nullptr : &client);
            EXPECT_GE(done, r.now);
            if (!r.isWrite)
                ++expected;
        }
        events.runAll();
        // Under CAMEO_AUDIT the organization's internal auditor now
        // checks that every submitted transaction completed.
        org->bindEventQueue(nullptr);

        // No lost or duplicated completions.
        ASSERT_EQ(client.deliveries.size(), expected)
            << orgKindName(kind) << ": lost or duplicated completions";
        std::set<std::uint64_t> ids;
        for (const auto &d : client.deliveries) {
            EXPECT_TRUE(ids.insert(d.req.id).second)
                << orgKindName(kind) << " delivered request " << d.req.id
                << " twice";
            EXPECT_GE(d.done, d.req.issueTick);
        }
        // The event queue fires in tick order, so deliveries are
        // monotone in completion time.
        for (std::size_t i = 1; i < client.deliveries.size(); ++i) {
            EXPECT_GE(client.deliveries[i].done,
                      client.deliveries[i - 1].done)
                << orgKindName(kind) << " delivery order regressed";
        }
    }
}

/** One request of the snapshot-order scenario, as submitted. */
struct Submitted
{
    MemRequest req;
    Tick done;
};

/** Snapshot @p org into one "org" section. */
std::vector<std::uint8_t>
snapshotOf(const MemoryOrganization &org)
{
    SnapshotWriter w;
    w.beginSection("org");
    org.save(w);
    w.endSection();
    return w.finish();
}

TEST(PipelineSnapshotTest, InflightRequestsSaveInIdOrderAndRefireFifo)
{
    // Completing requests out of submission order frees in-flight slots
    // that later submissions reuse, so slot order stops being id order.
    // The snapshot must not notice: it writes the requests in id order
    // (the byte image a submission-ordered registry wrote), and after
    // restore + rescheduleInflight same-tick completions still fire in
    // submission (FIFO) order.
    const OrgConfig config = smallOrgConfig(TimingMode::Queued);
    const auto org = makeOrganization(OrgKind::Baseline, config);
    EventQueue events;
    org->bindEventQueue(&events);
    RecordingClient client;

    // Baseline sends OS-physical line l to off-chip device line l. Pick
    // lines on distinct channels so equal-time reads finish together.
    const DramAddressMap &map = org->offchipModule().addressMap();
    std::vector<LineAddr> lines;
    std::set<std::uint32_t> channels;
    for (LineAddr l = 0; lines.size() < 4; ++l) {
        if (channels.insert(map.decode(l).channel).second)
            lines.push_back(l);
    }

    std::vector<Submitted> sent;
    const auto submit = [&](Tick now, LineAddr line, std::uint64_t tag) {
        Submitted s;
        s.req.id = sent.size() + 1;
        s.req.tag = tag;
        s.req.line = line;
        s.req.pc = 0x40 * tag;
        s.req.core = 1;
        s.req.issueTick = now;
        s.done = org->submit(now, line, false, s.req.pc, s.req.core, tag,
                             &client);
        sent.push_back(s);
    };
    constexpr Tick kLate = 10'000;
    submit(0, lines[0], 11);     // id 1, slot 0: completes first
    submit(kLate, lines[1], 12); // id 2, slot 1
    events.runOne();             // retires id 1, freeing slot 0
    ASSERT_EQ(client.deliveries.size(), 1u);
    ASSERT_EQ(client.deliveries[0].req.id, 1u);
    submit(kLate, lines[2], 13); // id 3 reuses slot 0
    submit(kLate, lines[3], 14); // id 4, slot 2
    ASSERT_EQ(org->inflightCount(), 3u);
    ASSERT_EQ(sent[2].done, sent[1].done);
    ASSERT_EQ(sent[3].done, sent[1].done);

    SnapshotWriter expected;
    expected.beginSection("org");
    expected.u64(4);
    expected.u64(3);
    for (const std::size_t i : {1, 2, 3}) {
        const Submitted &s = sent[i];
        expected.u64(s.req.id);
        expected.u64(s.req.tag);
        expected.u64(s.req.line);
        expected.b(s.req.isWrite);
        expected.u64(s.req.pc);
        expected.u32(s.req.core);
        expected.u64(s.req.issueTick);
        expected.u64(s.done);
    }
    org->offchipModule().save(expected);
    expected.endSection();
    const std::vector<std::uint8_t> bytes = snapshotOf(*org);
    EXPECT_EQ(bytes, expected.finish());

    const auto resumed = makeOrganization(OrgKind::Baseline, config);
    SnapshotReader r;
    ASSERT_TRUE(r.open(bytes)) << r.error();
    ASSERT_TRUE(r.enterSection("org"));
    resumed->restore(r);
    ASSERT_TRUE(r.leaveSection());
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(snapshotOf(*resumed), bytes);

    EventQueue resumed_events;
    resumed->bindEventQueue(&resumed_events);
    RecordingClient resumed_client;
    resumed->rescheduleInflight(
        [&](std::uint32_t) -> MemClient * { return &resumed_client; });
    resumed_events.runAll();
    resumed->bindEventQueue(nullptr);
    events.runAll();
    org->bindEventQueue(nullptr);

    ASSERT_EQ(resumed_client.deliveries.size(), 3u);
    ASSERT_EQ(client.deliveries.size(), 4u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(resumed_client.deliveries[i].req.id, i + 2);
        EXPECT_EQ(resumed_client.deliveries[i].req.tag, 12 + i);
        EXPECT_EQ(resumed_client.deliveries[i].done, sent[1].done);
        EXPECT_EQ(client.deliveries[i + 1].req.id, i + 2);
    }
}

TEST(PipelineQueuedTest, QueuedStatsRegisterOnlyInQueuedMode)
{
    for (const TimingMode mode :
         {TimingMode::Blocking, TimingMode::Queued}) {
        const auto org =
            makeOrganization(OrgKind::Baseline, smallOrgConfig(mode));
        StatRegistry registry;
        org->registerStats(registry);
        const bool queued = mode == TimingMode::Queued;
        EXPECT_EQ(registry.findCounter("dram.offchip.queueFullStalls") !=
                      nullptr,
                  queued)
            << timingModeName(mode);
        EXPECT_EQ(registry.findDistribution(
                      "dram.offchip.readQueueDepth") != nullptr,
                  queued)
            << timingModeName(mode);
    }
}

TEST(PipelineQueuedTest, EveryOrgFinishesAQueuedSystemRun)
{
    const WorkloadProfile *wl = findWorkload("mcf");
    ASSERT_NE(wl, nullptr);
    SystemConfig config = tinyConfig();
    config.accessesPerCore = 5'000;
    config.timingMode = TimingMode::Queued;
    for (const OrgKind kind : kAllOrgKinds) {
        const RunResult r = runWorkload(config, kind, *wl);
        EXPECT_FALSE(r.truncated) << orgKindName(kind);
        EXPECT_EQ(r.accesses,
                  std::uint64_t{config.numCores} * config.accessesPerCore)
            << orgKindName(kind);
        EXPECT_GT(r.execTime, 0u) << orgKindName(kind);
    }
}

TEST(PipelineQueuedTest, QueuedTimingChangesWhenNotWhatExecutes)
{
    // Same system, both modes: queued contention may move execution
    // time but must not change what was executed — access and
    // instruction totals are trace properties, not timing ones.
    const WorkloadProfile *wl = findWorkload("milc");
    ASSERT_NE(wl, nullptr);
    SystemConfig blocking = tinyConfig();
    blocking.accessesPerCore = 5'000;
    SystemConfig queued = blocking;
    queued.timingMode = TimingMode::Queued;
    const RunResult rb = runWorkload(blocking, OrgKind::Cameo, *wl);
    const RunResult rq = runWorkload(queued, OrgKind::Cameo, *wl);
    EXPECT_EQ(rb.accesses, rq.accesses);
    EXPECT_EQ(rb.instructions, rq.instructions);
    EXPECT_GT(rq.execTime, 0u);
}

TEST(PipelineQueuedTest, SweepIsBitIdenticalAcrossWorkerCounts)
{
    const WorkloadProfile *wl = findWorkload("mcf");
    ASSERT_NE(wl, nullptr);
    SystemConfig config = tinyConfig();
    config.accessesPerCore = 4'000;
    config.timingMode = TimingMode::Queued;

    const auto run_matrix = [&](unsigned jobs) {
        std::vector<SweepJob> sweep_jobs;
        std::vector<std::ostringstream> dumps(kAllOrgKinds.size());
        for (std::size_t i = 0; i < kAllOrgKinds.size(); ++i) {
            const OrgKind kind = kAllOrgKinds[i];
            sweep_jobs.push_back(
                {std::string(orgKindName(kind)), [&, i, kind] {
                     System system(config, kind, *wl);
                     const RunResult r = system.run();
                     system.stats().dumpJson(dumps[i]);
                     return r;
                 }});
        }
        SweepOptions options;
        options.jobs = jobs;
        SweepRunner(options).run(std::move(sweep_jobs));
        std::string all;
        for (const auto &d : dumps)
            all += d.str();
        return all;
    };

    const std::string serial = run_matrix(1);
    const std::string parallel = run_matrix(8);
    EXPECT_EQ(serial, parallel)
        << "queued-mode stats depend on sweep worker count";
}

} // namespace
} // namespace cameo
