/**
 * @file
 * Unit tests for the memory organizations: factory, visible-capacity
 * accounting (the crux of the capacity story), routing, the Alloy
 * cache, TLM migration variants, and the CAMEO wrapper.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "orgs/alloy_cache.hh"
#include "orgs/baseline.hh"
#include "orgs/cameo_org.hh"
#include "orgs/composed_org.hh"
#include "orgs/memory_organization.hh"
#include "orgs/policy/epoch_freq_placement.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

OrgConfig
smallConfig()
{
    OrgConfig c;
    c.stackedBytes = 1 << 20;
    c.offchipBytes = 3 << 20;
    c.numCores = 2;
    c.seed = 42;
    c.freq.epochAccesses = 512;
    return c;
}

/** The ComposedOrg driver behind a page-granular table row. */
ComposedOrg &
composedOf(const std::unique_ptr<MemoryOrganization> &org)
{
    return dynamic_cast<ComposedOrg &>(*org);
}

TEST(OrgFactoryTest, BuildsEveryKind)
{
    const OrgConfig c = smallConfig();
    for (OrgKind kind : allOrgKinds()) {
        const auto org = makeOrganization(kind, c);
        ASSERT_NE(org, nullptr) << orgKindName(kind);
        EXPECT_FALSE(org->name().empty());
        EXPECT_GT(org->visibleBytes(), 0u);
    }
}

/** One way to break a valid OrgConfig, named for failure messages. */
struct BrokenField
{
    const char *what;
    std::function<void(OrgConfig &)> apply;
};

/** Every field OrgConfig::validate() guards, each broken once. */
const std::vector<BrokenField> &
brokenFields()
{
    static const std::vector<BrokenField> fields = {
        {"stackedBytes = 0", [](OrgConfig &c) { c.stackedBytes = 0; }},
        {"stackedBytes not whole pages",
         [](OrgConfig &c) { c.stackedBytes += kLineBytes; }},
        {"offchipBytes not whole pages",
         [](OrgConfig &c) { c.offchipBytes += kLineBytes; }},
        {"numCores = 0", [](OrgConfig &c) { c.numCores = 0; }},
        {"llt.llpTableEntries = 0",
         [](OrgConfig &c) { c.llt.llpTableEntries = 0; }},
        {"freq.epochAccesses = 0",
         [](OrgConfig &c) { c.freq.epochAccesses = 0; }},
        {"migrate.victimProbes = 0",
         [](OrgConfig &c) { c.migrate.victimProbes = 0; }},
        {"migrate.migrateThreshold = 0",
         [](OrgConfig &c) { c.migrate.migrateThreshold = 0; }},
        {"banshee.sampleRate = 0",
         [](OrgConfig &c) { c.banshee.sampleRate = 0; }},
        {"banshee.victimProbes = 0",
         [](OrgConfig &c) { c.banshee.victimProbes = 0; }},
        {"banshee.pteCacheEntries = 48",
         [](OrgConfig &c) { c.banshee.pteCacheEntries = 48; }},
    };
    return fields;
}

/** makeOrganization throws std::invalid_argument carrying the reason. */
void
expectRejected(OrgKind kind, const OrgConfig &c, const std::string &what)
{
    const char *reason = orgConfigError(kind, c);
    ASSERT_NE(reason, nullptr) << orgKindName(kind) << " / " << what;
    try {
        (void)makeOrganization(kind, c);
        ADD_FAILURE() << orgKindName(kind) << " built with " << what;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
            << e.what();
    }
}

TEST(OrgFactoryTest, RejectsEveryInvalidFieldForEveryKind)
{
    for (const OrgKind kind : allOrgKinds()) {
        EXPECT_EQ(orgConfigError(kind, smallConfig()), nullptr)
            << orgKindName(kind);
        for (const BrokenField &field : brokenFields()) {
            OrgConfig c = smallConfig();
            field.apply(c);
            expectRejected(kind, c, field.what);
        }
    }
}

TEST(OrgFactoryTest, EnforcesPerKindPreconditions)
{
    const auto is_cameo = [](OrgKind kind) {
        return kind == OrgKind::Cameo || kind == OrgKind::CameoFreq;
    };
    // Geometries only the CAMEO family's congruence groups reject: a
    // non-power-of-two stacked line count, a fractional capacity
    // ratio, and more than 16 lines per group.
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> cameo_bad = {
        {3 << 20, 6 << 20},
        {1 << 20, (5 << 20) / 2},
        {64 << 10, 1 << 20},
    };
    for (const OrgKind kind : allOrgKinds()) {
        for (const auto &[stacked, offchip] : cameo_bad) {
            OrgConfig c = smallConfig();
            c.stackedBytes = stacked;
            c.offchipBytes = offchip;
            const std::string what = "stacked " + std::to_string(stacked) +
                                     " / off-chip " + std::to_string(offchip);
            if (is_cameo(kind))
                expectRejected(kind, c, what);
            else
                EXPECT_NE(makeOrganization(kind, c), nullptr) << what;
        }

        // Only DoubleUse, whose backing store includes the stacked
        // capacity, runs without off-chip memory.
        OrgConfig no_offchip = smallConfig();
        no_offchip.offchipBytes = 0;
        if (kind != OrgKind::DoubleUse) {
            expectRejected(kind, no_offchip, "offchipBytes = 0");
            continue;
        }
        const auto org = makeOrganization(kind, no_offchip);
        EXPECT_EQ(org->visibleBytes(), no_offchip.stackedBytes);
        org->access(0, 1, false, 0x400, 0);
        org->accessFunctional(2, true, 0x400, 1);
    }
}

TEST(OrgVisibilityTest, CapacityAccountingMatchesPaper)
{
    const OrgConfig c = smallConfig();
    // Cache and Baseline hide the stacked DRAM from the OS.
    EXPECT_EQ(makeOrganization(OrgKind::Baseline, c)->visibleBytes(),
              c.offchipBytes);
    EXPECT_EQ(makeOrganization(OrgKind::AlloyCache, c)->visibleBytes(),
              c.offchipBytes);
    // TLM exposes both.
    EXPECT_EQ(makeOrganization(OrgKind::TlmStatic, c)->visibleBytes(),
              c.stackedBytes + c.offchipBytes);
    // DoubleUse idealistically exposes both AND keeps the cache.
    EXPECT_EQ(makeOrganization(OrgKind::DoubleUse, c)->visibleBytes(),
              c.stackedBytes + c.offchipBytes);
    // CAMEO (Co-Located) loses 1/32 of stacked to LEAD entries.
    OrgConfig cam = c;
    cam.llt.kind = LltKind::CoLocated;
    const std::uint64_t visible =
        makeOrganization(OrgKind::Cameo, cam)->visibleBytes();
    EXPECT_EQ(visible, (c.stackedBytes + c.offchipBytes -
                        c.stackedBytes / 32) /
                           kPageBytes * kPageBytes);
    // Ideal LLT: no loss.
    cam.llt.kind = LltKind::Ideal;
    EXPECT_EQ(makeOrganization(OrgKind::Cameo, cam)->visibleBytes(),
              c.stackedBytes + c.offchipBytes);
    // Embedded: loses the LLT region (1 byte per 256B of memory).
    cam.llt.kind = LltKind::Embedded;
    const std::uint64_t embedded_visible =
        makeOrganization(OrgKind::Cameo, cam)->visibleBytes();
    EXPECT_LT(embedded_visible, c.stackedBytes + c.offchipBytes);
    EXPECT_GT(embedded_visible, visible); // smaller loss than LEAD
}

TEST(BaselineOrgTest, RoutesEverythingOffchip)
{
    BaselineOrg org(smallConfig());
    org.access(0, 100, false, 0x400, 0);
    org.access(10, 200, true, 0x400, 1);
    EXPECT_EQ(org.offchipModule().reads().value(), 1u);
    EXPECT_EQ(org.offchipModule().writes().value(), 1u);
    EXPECT_EQ(org.stackedModule(), nullptr);
}

TEST(AlloyCacheTest, MissFillHit)
{
    AlloyCacheOrg org(smallConfig(), smallConfig().offchipBytes);
    org.access(0, 1234, false, 0x400, 0);
    EXPECT_EQ(org.misses().value(), 1u);
    org.access(100000, 1234, false, 0x400, 0);
    EXPECT_EQ(org.hits().value(), 1u);
    EXPECT_DOUBLE_EQ(org.hitRate(), 0.5);
}

TEST(AlloyCacheTest, TadBurstBytes)
{
    AlloyCacheOrg org(smallConfig(), smallConfig().offchipBytes);
    org.access(0, 1, false, 0x400, 0);
    // One TAD read burst (80B) on the miss path.
    EXPECT_EQ(org.stackedModule()->readBytes().value(),
              AlloyCacheOrg::kTadBurstBytes);
}

TEST(AlloyCacheTest, SetCountUsesTadGeometry)
{
    const OrgConfig c = smallConfig();
    AlloyCacheOrg org(c, c.offchipBytes);
    // 28 TADs per 32-line row.
    EXPECT_EQ(org.numSets(), c.stackedBytes / 64 / 32 * 28);
}

TEST(AlloyCacheTest, ConflictEvictsPriorLine)
{
    const OrgConfig c = smallConfig();
    AlloyCacheOrg org(c, c.offchipBytes);
    const LineAddr a = 77;
    const LineAddr b = 77 + org.numSets(); // same set
    org.access(0, a, false, 0x400, 0);
    org.access(1000, b, false, 0x400, 0);
    org.access(2000, a, false, 0x400, 0); // must miss again
    EXPECT_EQ(org.misses().value(), 3u);
    EXPECT_EQ(org.hits().value(), 0u);
}

TEST(AlloyCacheTest, DirtyVictimWrittenBack)
{
    const OrgConfig c = smallConfig();
    AlloyCacheOrg org(c, c.offchipBytes);
    const LineAddr a = 77;
    const LineAddr b = 77 + org.numSets();
    org.access(0, a, false, 0x400, 0);
    org.access(1000, a, true, 0x400, 0); // writeback dirties the TAD
    const std::uint64_t writes = org.offchipModule().writes().value();
    org.access(2000, b, false, 0x400, 0); // evicts dirty a
    EXPECT_EQ(org.offchipModule().writes().value(), writes + 1);
}

TEST(TlmStaticTest, RoutesByDevicePage)
{
    const auto built = makeOrganization(OrgKind::TlmStatic, smallConfig());
    ComposedOrg &org = composedOf(built);
    // Device pages below stackedPages go to stacked DRAM.
    const LineAddr stacked_line = 3; // page 0
    const LineAddr offchip_line =
        (org.stackedPages() + 1) * kLinesPerPage + 3;
    org.access(0, stacked_line, false, 0x400, 0);
    EXPECT_EQ(org.stackedModule()->reads().value(), 1u);
    org.access(10, offchip_line, false, 0x400, 0);
    EXPECT_EQ(org.offchipModule().reads().value(), 1u);
    EXPECT_EQ(org.pageMigrations().value(), 0u);
}

TEST(TlmDynamicTest, MigratesPageAfterThresholdTouches)
{
    OrgConfig c = smallConfig();
    c.migrate.migrateThreshold = 2;
    const auto built = makeOrganization(OrgKind::TlmDynamic, c);
    ComposedOrg &org = composedOf(built);
    const PageAddr phys_page = org.stackedPages() + 5; // off-chip
    const LineAddr line = phys_page * kLinesPerPage;
    org.access(0, line, false, 0x400, 0);
    EXPECT_EQ(org.pageMigrations().value(), 0u); // first touch: no
    org.access(1000, line + 1, false, 0x400, 0);
    EXPECT_EQ(org.pageMigrations().value(), 1u); // second: migrate
    // The page is now in stacked memory.
    EXPECT_LT(org.devicePageOf(phys_page), org.stackedPages());
    // And some stacked page was displaced off-chip (remap stays a
    // bijection: exactly one page out).
    org.access(5000, line + 2, false, 0x400, 0);
    EXPECT_EQ(org.stackedModule()->reads().value() > 0, true);
}

TEST(TlmDynamicTest, SwapBillsSixteenKilobytes)
{
    OrgConfig c = smallConfig();
    c.migrate.migrateThreshold = 1;
    const auto built = makeOrganization(OrgKind::TlmDynamic, c);
    ComposedOrg &org = composedOf(built);
    const PageAddr phys_page = org.stackedPages() + 5;
    const LineAddr line = phys_page * kLinesPerPage;
    org.access(0, line, false, 0x400, 0);
    EXPECT_EQ(org.pageMigrations().value(), 1u);
    // Section II-C: both modules read and write 4KB each.
    EXPECT_EQ(org.stackedModule()->readBytes().value(), kPageBytes);
    EXPECT_EQ(org.stackedModule()->writeBytes().value(), kPageBytes);
    // Off-chip: the demand line read + 4KB page read + 4KB page write.
    EXPECT_EQ(org.offchipModule().readBytes().value(),
              kPageBytes + kLineBytes);
    EXPECT_EQ(org.offchipModule().writeBytes().value(), kPageBytes);
}

TEST(TlmFreqTest, EpochMovesHotPageIn)
{
    OrgConfig c = smallConfig();
    c.freq.epochAccesses = 64;
    const auto built = makeOrganization(OrgKind::TlmFreq, c);
    ComposedOrg &org = composedOf(built);
    const auto &freq =
        dynamic_cast<const EpochFrequencyPlacement &>(org.placementPolicy());
    const PageAddr hot = org.stackedPages() + 9; // starts off-chip
    for (int i = 0; i < 64; ++i)
        org.access(i * 100, hot * kLinesPerPage + (i % 8), false, 0x400,
                   0);
    EXPECT_EQ(freq.epochs().value(), 1u);
    EXPECT_LT(org.devicePageOf(hot), org.stackedPages());
    EXPECT_GT(org.pageMigrations().value(), 0u);
}

TEST(TlmOracleTest, HotPagePlacedInStackedAtMapTime)
{
    const auto built = makeOrganization(OrgKind::TlmOracle, smallConfig());
    ComposedOrg &org = composedOf(built);
    PageHeatMap heat;
    heat[pageHeatKey(0, 0x100)] = 1000; // hot virtual page
    heat[pageHeatKey(0, 0x200)] = 1;    // cold
    org.setPageHeat(std::move(heat));

    // Map the hot vpage to an off-chip physical frame: the oracle
    // should swap its mapping into stacked at no cost.
    const auto off_frame =
        static_cast<std::uint32_t>(org.stackedPages() + 3);
    org.onPageMapped(off_frame, 0, 0x100);
    EXPECT_LT(org.devicePageOf(off_frame), org.stackedPages());
    EXPECT_EQ(org.pageMigrations().value(), 0u); // oracular: free

    // A cold page maps off-chip and stays there (all stacked slots
    // currently hold zero-heat pages... the hot one included, so the
    // cold one cannot displace anything hotter than itself).
    const auto off_frame2 =
        static_cast<std::uint32_t>(org.stackedPages() + 4);
    org.onPageMapped(off_frame2, 0, 0x200);
    // 0x200 (heat 1) displaces a zero-heat identity page, not 0x100.
    EXPECT_LT(org.devicePageOf(off_frame), org.stackedPages());
}

TEST(CameoOrgTest, VariantNames)
{
    EXPECT_EQ(CameoOrg::variantName(LltKind::CoLocated,
                                    PredictorKind::Llp),
              "CAMEO");
    EXPECT_EQ(CameoOrg::variantName(LltKind::Ideal, PredictorKind::Sam),
              "CAMEO(Ideal-LLT+SAM)");
}

TEST(CameoOrgTest, ExposesController)
{
    OrgConfig c = smallConfig();
    const auto org = makeOrganization(OrgKind::Cameo, c);
    EXPECT_NE(org->cameo(), nullptr);
    EXPECT_EQ(org->cameo()->llt().groupSize(), 4u);
    // Non-CAMEO organizations expose no controller.
    EXPECT_EQ(makeOrganization(OrgKind::Baseline, c)->cameo(), nullptr);
}

TEST(CameoOrgTest, StatsRegistered)
{
    OrgConfig c = smallConfig();
    const auto org = makeOrganization(OrgKind::Cameo, c);
    StatRegistry reg;
    org->registerStats(reg);
    EXPECT_NE(reg.findCounter("cameo.swaps"), nullptr);
    EXPECT_NE(reg.findCounter("dram.stacked.readBytes"), nullptr);
    EXPECT_NE(reg.findCounter("llp.case1"), nullptr);
}

TEST(OrgStressTest, RandomTrafficOnEveryOrg)
{
    // Functional smoke: every organization survives random traffic and
    // keeps its device addressing in bounds (asserts inside fire on
    // violation).
    for (OrgKind kind : allOrgKinds()) {
        OrgConfig c = smallConfig();
        const auto org = makeOrganization(kind, c);
        if (kind == OrgKind::TlmOracle)
            org->setPageHeat({});
        const std::uint64_t lines = org->visibleBytes() / kLineBytes;
        Rng rng(static_cast<std::uint64_t>(kind) + 100);
        Tick now = 0;
        Tick last_read_done = 0;
        for (int i = 0; i < 20000; ++i) {
            const bool is_write = rng.chance(0.3);
            const Tick done = org->access(now, rng.next(lines), is_write,
                                          0x400000 + 4 * rng.next(64),
                                          static_cast<std::uint32_t>(
                                              rng.next(c.numCores)));
            EXPECT_GE(done, now);
            if (!is_write)
                last_read_done = done;
            now += 25;
        }
        EXPECT_GT(last_read_done, 0u) << orgKindName(kind);
    }
}

} // namespace
} // namespace cameo
