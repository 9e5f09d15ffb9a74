/**
 * @file
 * Property-style tests: invariants that must hold under randomized
 * operation sequences, swept over parameter spaces with
 * INSTANTIATE_TEST_SUITE_P.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/cameo_controller.hh"
#include "core/congruence_group.hh"
#include "core/line_location_table.hh"
#include "orgs/composed_org.hh"
#include "system/config.hh"
#include "system/system.hh"
#include "util/rng.hh"
#include "vm/virtual_memory.hh"

namespace cameo
{
namespace
{

/** LLT permutation invariant across group sizes. */
class LltPropertyTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(LltPropertyTest, RandomSwapSequencesPreservePermutation)
{
    const std::uint32_t k = GetParam();
    LineLocationTable llt(128, k);
    Rng rng(k * 7 + 1);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t g = rng.next(128);
        llt.swapSlots(g, static_cast<std::uint32_t>(rng.next(k)),
                      static_cast<std::uint32_t>(rng.next(k)));
        if (i % 977 == 0) {
            for (std::uint64_t gg = 0; gg < 128; ++gg)
                ASSERT_TRUE(llt.verifyGroup(gg));
        }
    }
    // slotAt is the exact inverse of locationOf everywhere.
    for (std::uint64_t g = 0; g < 128; ++g) {
        for (std::uint32_t s = 0; s < k; ++s)
            ASSERT_EQ(llt.slotAt(g, llt.locationOf(g, s)), s);
    }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, LltPropertyTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

/** Congruence-group round trip across geometries. */
class CongruencePropertyTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint64_t>>
{
};

TEST_P(CongruencePropertyTest, RoundTripAndBounds)
{
    const auto [stacked, k] = GetParam();
    CongruenceGroups cg(stacked, stacked * k);
    Rng rng(stacked + k);
    for (int i = 0; i < 20000; ++i) {
        const LineAddr line = rng.next(cg.totalLines());
        const std::uint64_t g = cg.groupOf(line);
        const std::uint32_t s = cg.slotOf(line);
        ASSERT_LT(g, cg.numGroups());
        ASSERT_LT(s, cg.groupSize());
        ASSERT_EQ(cg.lineOf(g, s), line);
        if (s > 0) {
            const std::uint64_t off = cg.offchipLineOf(g, s);
            ASSERT_LT(off, (k - 1) * stacked);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CongruencePropertyTest,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{1 << 10, 2},
                      std::pair<std::uint64_t, std::uint64_t>{1 << 10, 4},
                      std::pair<std::uint64_t, std::uint64_t>{1 << 14, 4},
                      std::pair<std::uint64_t, std::uint64_t>{1 << 12,
                                                              8}));

TEST(VmPropertyTest, NoFrameEverDoubleMapped)
{
    VirtualMemory vm(32 * kPageBytes, 100000, 5);
    Rng rng(9);
    for (int i = 0; i < 50000; ++i) {
        vm.translate(i * 10,
                     static_cast<std::uint32_t>(rng.next(4)),
                     rng.next(256), rng.chance(0.3));
        if (i % 1000 == 0) {
            // Every resident (core, vpage) maps to a distinct frame
            // whose allocator owner matches.
            std::set<std::uint32_t> frames;
            for (std::uint32_t core = 0; core < 4; ++core) {
                for (PageAddr vp = 0; vp < 256; ++vp) {
                    const auto f = vm.pageTable().lookup(core, vp);
                    if (!f)
                        continue;
                    ASSERT_TRUE(frames.insert(*f).second)
                        << "frame " << *f << " double-mapped";
                    const auto owner = vm.allocator().ownerOf(*f);
                    ASSERT_TRUE(owner.has_value());
                    ASSERT_EQ(owner->core, core);
                    ASSERT_EQ(owner->vpage, vp);
                }
            }
        }
    }
}

TEST(VmPropertyTest, ResidentPagesNeverExceedFrames)
{
    VirtualMemory vm(16 * kPageBytes, 100000, 6);
    Rng rng(10);
    for (int i = 0; i < 20000; ++i) {
        vm.translate(i, 0, rng.next(1000), false);
        ASSERT_LE(vm.pageTable().residentPages(), 16u);
    }
}

TEST(TlmPropertyTest, RemapStaysBijective)
{
    OrgConfig c;
    c.stackedBytes = 256 << 10;
    c.offchipBytes = 768 << 10;
    c.migrate.migrateThreshold = 1;
    const auto built = makeOrganization(OrgKind::TlmDynamic, c);
    ComposedOrg &org = dynamic_cast<ComposedOrg &>(*built);
    Rng rng(11);
    const std::uint64_t lines = org.visibleBytes() / kLineBytes;
    Tick now = 0;
    for (int i = 0; i < 30000; ++i) {
        org.access(now, rng.next(lines), rng.chance(0.3), 0x400, 0);
        now += 20;
    }
    // phys -> device must be a bijection.
    std::set<std::uint64_t> devices;
    for (PageAddr p = 0; p < org.totalPages(); ++p)
        ASSERT_TRUE(devices.insert(org.devicePageOf(p)).second);
    EXPECT_EQ(devices.size(), org.totalPages());
    EXPECT_EQ(*devices.rbegin(), org.totalPages() - 1);
}

TEST(CameoPropertyTest, EveryLineRemainsReachable)
{
    // After heavy random traffic with swapping, every OS-physical line
    // must still resolve to exactly one device location (the LLT
    // permutation guarantees it; this exercises the full controller).
    DramTimings st = stackedTimings();
    st.linesPerRow = LeadLayout::kLeadsPerRow;
    DramModule stacked("p.stk", st, 256 << 10);
    DramModule offchip("p.off", offchipTimings(), 768 << 10);
    CameoController ctrl(
        CameoParams{LltKind::CoLocated, PredictorKind::Llp, 2}, stacked,
        offchip, (256 << 10) / 64, (1 << 20) / 64);
    Rng rng(12);
    Tick now = 0;
    for (int i = 0; i < 50000; ++i) {
        ctrl.access(now, rng.next((1 << 20) / 64), rng.chance(0.25),
                    0x400000 + 4 * rng.next(128),
                    static_cast<std::uint32_t>(rng.next(2)));
        now += 30;
    }
    const auto &groups = ctrl.groups();
    for (std::uint64_t g = 0; g < groups.numGroups(); g += 37) {
        ASSERT_TRUE(ctrl.llt().verifyGroup(g));
        // Locations of the group tile {0..K-1}.
        std::set<std::uint32_t> locs;
        for (std::uint32_t s = 0; s < groups.groupSize(); ++s)
            locs.insert(ctrl.llt().locationOf(g, s));
        ASSERT_EQ(locs.size(), groups.groupSize());
    }
}

/** Whole-system determinism across every organization kind. */
class OrgDeterminismTest : public ::testing::TestWithParam<OrgKind>
{
};

TEST_P(OrgDeterminismTest, ByteCountsReproducible)
{
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 8000;
    const WorkloadProfile &wl = *findWorkload("soplex");
    const RunResult a = runWorkload(c, GetParam(), wl);
    const RunResult b = runWorkload(c, GetParam(), wl);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.stackedBytes, b.stackedBytes);
    EXPECT_EQ(a.offchipBytes, b.offchipBytes);
    EXPECT_EQ(a.storageBytes, b.storageBytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, OrgDeterminismTest,
    ::testing::Values(OrgKind::Baseline, OrgKind::AlloyCache,
                      OrgKind::TlmStatic, OrgKind::TlmDynamic,
                      OrgKind::TlmFreq, OrgKind::TlmOracle,
                      OrgKind::DoubleUse, OrgKind::Cameo,
                      OrgKind::Banshee));

/** Stats conservation: counters that must add up for every org. */
class OrgConservationTest : public ::testing::TestWithParam<OrgKind>
{
};

TEST_P(OrgConservationTest, CountersConserveUnderRandomTraces)
{
    const OrgKind kind = GetParam();
    Rng rng(static_cast<std::uint64_t>(kind) * 131 + 5);
    const std::vector<std::string> workloads{"mcf", "milc", "soplex"};
    for (int round = 0; round < 2; ++round) {
        SystemConfig c = tinyConfig();
        c.accessesPerCore = 5000 + rng.next(5000);
        c.seed = rng.next(1 << 20);
        c.timingMode = rng.chance(0.5) ? TimingMode::Queued
                                       : TimingMode::Blocking;
        const WorkloadProfile &wl = *findWorkload(
            workloads[static_cast<std::size_t>(rng.next(3))]);
        const RunResult r = runWorkload(c, kind, wl);
        const std::string what = std::string(orgKindName(kind)) + "/" +
                                 wl.name + " seed " +
                                 std::to_string(c.seed);

        // Every measured access either hit or missed the shared L3.
        EXPECT_EQ(r.accesses, r.l3Hits + r.l3Misses) << what;
        // The untruncated run measured exactly the configured trace.
        EXPECT_FALSE(r.truncated) << what;
        EXPECT_EQ(r.accesses, c.accessesPerCore * c.numCores) << what;
        EXPECT_GT(r.instructions, 0u) << what;
        EXPECT_GT(r.kernelSteps, 0u) << what;
        // Memory beyond the L3 only ever sees misses: no module can
        // report service for traffic the cache absorbed.
        if (kind == OrgKind::Baseline) {
            EXPECT_EQ(r.stackedBytes, 0u) << what;
            EXPECT_EQ(r.servicedStacked, 0u) << what;
            EXPECT_EQ(r.swaps, 0u) << what;
        }
        if (kind == OrgKind::Cameo || kind == OrgKind::CameoFreq) {
            // Each L3 miss is serviced by exactly one of the two
            // memories (swap traffic only adds to the counts).
            EXPECT_GE(r.servicedStacked + r.servicedOffchip, r.l3Misses)
                << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, OrgConservationTest,
    ::testing::Values(OrgKind::Baseline, OrgKind::AlloyCache,
                      OrgKind::TlmStatic, OrgKind::TlmDynamic,
                      OrgKind::TlmFreq, OrgKind::TlmOracle,
                      OrgKind::DoubleUse, OrgKind::Cameo,
                      OrgKind::CameoFreq, OrgKind::Banshee));

/** CAMEO invariants across LLT designs and predictors. */
class CameoVariantTest
    : public ::testing::TestWithParam<std::pair<LltKind, PredictorKind>>
{
};

TEST_P(CameoVariantTest, ServiceCountsAddUp)
{
    const auto [llt, pred] = GetParam();
    SystemConfig c = tinyConfig();
    c.accessesPerCore = 8000;
    c.lltKind = llt;
    c.predictorKind = pred;
    const WorkloadProfile &wl = *findWorkload("milc");
    const RunResult r = runWorkload(c, OrgKind::Cameo, wl);
    // Every L3 miss (demand or writeback-induced) was serviced by one
    // of the two memories.
    EXPECT_EQ(r.servicedStacked + r.servicedOffchip > 0, true);
    EXPECT_GT(r.execTime, 0u);
    if (pred == PredictorKind::Perfect) {
        EXPECT_DOUBLE_EQ(r.llpAccuracy, 1.0);
    }
    // Table III cases are tracked on the Co-Located path only (the
    // Ideal and Embedded designs never consult the predictor).
    std::uint64_t total_cases = 0;
    for (const auto v : r.llpCases)
        total_cases += v;
    if (llt == LltKind::CoLocated)
        EXPECT_GT(total_cases, 0u);
    else
        EXPECT_EQ(total_cases, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CameoVariantTest,
    ::testing::Values(
        std::pair<LltKind, PredictorKind>{LltKind::Ideal,
                                          PredictorKind::Sam},
        std::pair<LltKind, PredictorKind>{LltKind::Embedded,
                                          PredictorKind::Sam},
        std::pair<LltKind, PredictorKind>{LltKind::CoLocated,
                                          PredictorKind::Sam},
        std::pair<LltKind, PredictorKind>{LltKind::CoLocated,
                                          PredictorKind::Llp},
        std::pair<LltKind, PredictorKind>{LltKind::CoLocated,
                                          PredictorKind::Perfect}));

} // namespace
} // namespace cameo
