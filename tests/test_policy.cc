/**
 * @file
 * Unit tests for the composable mapping/placement policy layer
 * (src/orgs/policy/, DESIGN.md §14).
 *
 * Mapping policies are verified against reference permutation and
 * page-table models under random operation streams; placement policies
 * are verified differentially against the legacy org behaviour (the
 * composed TLM orgs driven through their full access path) via a mock
 * PlacementContext fed the same stream. Every policy's checkpoint is
 * exercised for save -> restore -> save byte identity.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.hh"
#include "dram/dram_module.hh"
#include "dram/timings.hh"
#include "orgs/composed_org.hh"
#include "orgs/memory_organization.hh"
#include "orgs/policy/epoch_freq_placement.hh"
#include "orgs/policy/freq_admission_placement.hh"
#include "orgs/policy/mapping_policy.hh"
#include "orgs/policy/nth_touch_placement.hh"
#include "orgs/policy/oracle_heat_placement.hh"
#include "orgs/policy/page_heat.hh"
#include "orgs/policy/page_remap_mapping.hh"
#include "orgs/policy/placement_policy.hh"
#include "orgs/policy/pte_cached_mapping.hh"
#include "orgs/policy/sampling_freq_placement.hh"
#include "orgs/policy/tad_tag_mapping.hh"
#include "snapshot/snapshot.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

/** Serialize one Checkpointable into a framed snapshot blob. */
std::vector<std::uint8_t>
saveBytes(const Checkpointable &c)
{
    SnapshotWriter w;
    w.beginSection("policy");
    c.save(w);
    w.endSection();
    return w.finish();
}

/** Restore @p c from @p bytes; returns the reader's final state. */
bool
restoreFromBytes(Checkpointable &c, std::vector<std::uint8_t> bytes)
{
    SnapshotReader r;
    if (!r.open(std::move(bytes)))
        return false;
    r.enterSection("policy");
    c.restore(r);
    r.leaveSection();
    return r.ok();
}

/** save -> restore into @p fresh -> save must be byte-identical. */
template <typename T>
void
expectRoundTripIdentical(const T &original, T &fresh)
{
    const std::vector<std::uint8_t> first = saveBytes(original);
    ASSERT_TRUE(restoreFromBytes(fresh, first));
    EXPECT_EQ(first, saveBytes(fresh));
}

/**
 * PlacementContext over a standalone PageRemapMapping: lets a placement
 * policy run (and be compared against the legacy org) without DRAM
 * modules — billPageSwap only counts.
 */
class MockContext : public PlacementContext
{
  public:
    MockContext(std::uint64_t stacked_pages, std::uint64_t total_pages)
        : mapping(total_pages), stacked_(stacked_pages),
          total_(total_pages)
    {
    }

    std::uint64_t stackedPages() const override { return stacked_; }
    std::uint64_t totalPages() const override { return total_; }

    std::uint64_t devicePageOf(PageAddr phys_page) const override
    {
        return mapping.devicePageOf(phys_page);
    }

    PageAddr physPageAt(std::uint64_t device_page) const override
    {
        return mapping.physPageAt(device_page);
    }

    void swapMapping(PageAddr phys_a, PageAddr phys_b) override
    {
        mapping.swapMapping(phys_a, phys_b);
    }

    void billPageSwap(Tick when, std::uint64_t offchip_dev_page,
                      std::uint64_t stacked_dev_page,
                      Fidelity fidelity) override
    {
        (void)when;
        (void)offchip_dev_page;
        (void)stacked_dev_page;
        (void)fidelity;
        ++swapsBilled;
    }

    PageRemapMapping mapping;
    std::uint64_t swapsBilled = 0;

  private:
    std::uint64_t stacked_;
    std::uint64_t total_;
};

/** The small 1:3 capacity config the org-level suites use. */
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

// ---------------------------------------------------------------------
// pageHeatKey (the satellite fix: no silent truncation)
// ---------------------------------------------------------------------

TEST(PageHeatKeyTest, PacksCoreAboveVpage)
{
    EXPECT_EQ(pageHeatKey(0, 0), 0u);
    EXPECT_EQ(pageHeatKey(0, 5), 5u);
    EXPECT_EQ(pageHeatKey(2, 5), (std::uint64_t{2} << 48) | 5u);
    EXPECT_EQ(pageHeatKey(7, (std::uint64_t{1} << 48) - 1),
              (std::uint64_t{7} << 48) | ((std::uint64_t{1} << 48) - 1));
    // Distinct cores never collide for in-range vpages.
    EXPECT_NE(pageHeatKey(0, 123), pageHeatKey(1, 123));
}

#if CAMEO_AUDIT_ENABLED
TEST(PageHeatKeyTest, AuditsVpageOverflowIntoCoreBits)
{
    // The violation is deliberate: record it even under
    // CAMEO_AUDIT_ABORT=1 (the sanitizer CI leg) instead of dying.
    const bool abort_on_failure = AuditSink::global().abortOnFailure();
    AuditSink::global().setAbortOnFailure(false);
    AuditSink::global().reset();
    (void)pageHeatKey(0, std::uint64_t{1} << 48);
    EXPECT_EQ(AuditSink::global().failures(), 1u);
    AuditSink::global().reset();
    (void)pageHeatKey(3, (std::uint64_t{1} << 48) - 1); // in range: clean
    EXPECT_EQ(AuditSink::global().failures(), 0u);
    AuditSink::global().setAbortOnFailure(abort_on_failure);
}
#endif

// ---------------------------------------------------------------------
// Mapping policies vs reference models
// ---------------------------------------------------------------------

TEST(IdentityMappingTest, MapsEveryPageToItself)
{
    IdentityMapping id;
    EXPECT_STREQ(id.policyName(), "identity");
    for (PageAddr p : {PageAddr{0}, PageAddr{17}, PageAddr{1u << 20}}) {
        EXPECT_EQ(id.devicePageOf(p), p);
        EXPECT_EQ(id.physPageAt(p), p);
    }
    IdentityMapping fresh;
    expectRoundTripIdentical(id, fresh);
}

TEST(PageRemapMappingTest, TracksReferencePermutationUnderRandomSwaps)
{
    constexpr std::uint64_t kPages = 512;
    PageRemapMapping map(kPages);
    std::vector<std::uint32_t> ref(kPages); // phys -> device
    for (std::uint32_t p = 0; p < kPages; ++p)
        ref[p] = p;

    Rng rng(2024);
    for (int i = 0; i < 4000; ++i) {
        const PageAddr a = rng.next(kPages);
        const PageAddr b = rng.next(kPages);
        map.swapMapping(a, b);
        std::swap(ref[a], ref[b]);
    }
    for (std::uint32_t p = 0; p < kPages; ++p) {
        EXPECT_EQ(map.devicePageOf(p), ref[p]);
        EXPECT_EQ(map.physPageAt(map.devicePageOf(p)), p); // bijection
    }
    PageRemapMapping fresh(kPages);
    expectRoundTripIdentical(map, fresh);
}

TEST(PageRemapMappingTest, RestoreRejectsSizeMismatch)
{
    PageRemapMapping big(64);
    PageRemapMapping small(32);
    EXPECT_FALSE(restoreFromBytes(small, saveBytes(big)));
}

TEST(TadTagMappingTest, TracksResidencyAndRoundTrips)
{
    TadTagMapping tags(128);
    EXPECT_FALSE(tags.hit(5));

    TadTagMapping::Entry &set = tags.setFor(5);
    set.tag = 5;
    set.valid = true;
    EXPECT_TRUE(tags.hit(5));
    EXPECT_FALSE(tags.hit(5 + 128)); // same set, different tag
    EXPECT_EQ(tags.setIndexOf(5 + 128), tags.setIndexOf(5));

    TadTagMapping fresh(128);
    expectRoundTripIdentical(tags, fresh);
    EXPECT_TRUE(fresh.hit(5));

    TadTagMapping wrong(64);
    EXPECT_FALSE(restoreFromBytes(wrong, saveBytes(tags)));
}

// ---------------------------------------------------------------------
// Banshee's PTE-cached mapping
// ---------------------------------------------------------------------

TEST(PteCachedMappingTest, MissInstallsThenHits)
{
    BansheePolicyConfig cfg;
    PteCachedPageMapping map(1024, 2, cfg);
    DramModule offchip("dram.offchip", offchipTimings(), 4ull << 20);

    const Tick t0 = map.beginAccess(0, 5, 0, offchip, Fidelity::Detailed);
    EXPECT_GT(t0, 0u); // the page walk costs a DRAM read
    EXPECT_EQ(map.pteMisses().value(), 1u);
    EXPECT_EQ(map.pteHits().value(), 0u);

    EXPECT_EQ(map.beginAccess(100, 5, 0, offchip, Fidelity::Detailed),
              100u); // cached: free
    EXPECT_EQ(map.pteHits().value(), 1u);

    // Another core has its own cache: same page misses there.
    map.beginAccess(200, 5, 1, offchip, Fidelity::Detailed);
    EXPECT_EQ(map.pteMisses().value(), 2u);

    // Direct-mapped conflict: page 5 + entries evicts page 5's slot.
    map.beginAccess(300, 5 + cfg.pteCacheEntries, 0, offchip,
                    Fidelity::Detailed);
    map.beginAccess(400, 5, 0, offchip, Fidelity::Detailed);
    EXPECT_EQ(map.pteMisses().value(), 4u);
}

TEST(PteCachedMappingTest, SwapShootsDownEveryCore)
{
    BansheePolicyConfig cfg;
    PteCachedPageMapping map(1024, 2, cfg);
    DramModule offchip("dram.offchip", offchipTimings(), 4ull << 20);

    map.beginAccess(0, 5, 0, offchip, Fidelity::Detailed);
    map.beginAccess(0, 5, 1, offchip, Fidelity::Detailed);
    map.beginAccess(0, 9, 0, offchip, Fidelity::Detailed);
    ASSERT_EQ(map.pteMisses().value(), 3u);

    map.swapMapping(5, 9);
    EXPECT_EQ(map.pteShootdowns().value(), 1u);
    EXPECT_EQ(map.devicePageOf(5), 9u);
    EXPECT_EQ(map.devicePageOf(9), 5u);

    // All cached copies of both pages were invalidated.
    map.beginAccess(100, 5, 0, offchip, Fidelity::Detailed);
    map.beginAccess(100, 5, 1, offchip, Fidelity::Detailed);
    map.beginAccess(100, 9, 0, offchip, Fidelity::Detailed);
    EXPECT_EQ(map.pteMisses().value(), 6u);
}

TEST(PteCachedMappingTest, FunctionalTwinMatchesDetailedState)
{
    BansheePolicyConfig cfg;
    PteCachedPageMapping detailed(1024, 2, cfg);
    PteCachedPageMapping functional(1024, 2, cfg);
    DramModule mod_d("dram.offchip", offchipTimings(), 4ull << 20);
    DramModule mod_f("dram.offchip", offchipTimings(), 4ull << 20);

    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        const PageAddr page = rng.next(1024);
        const std::uint32_t core =
            static_cast<std::uint32_t>(rng.next(2));
        detailed.beginAccess(i * 10, page, core, mod_d,
                             Fidelity::Detailed);
        // The functional twin must make the identical state updates at
        // tick 0 with no DRAM billing.
        functional.beginAccess(0, page, core, mod_f,
                               Fidelity::Functional);
        if (rng.chance(0.05)) {
            const PageAddr a = rng.next(1024);
            const PageAddr b = rng.next(1024);
            detailed.swapMapping(a, b);
            functional.swapMapping(a, b);
        }
    }
    EXPECT_EQ(detailed.pteHits().value(), functional.pteHits().value());
    EXPECT_EQ(detailed.pteMisses().value(),
              functional.pteMisses().value());
    EXPECT_EQ(detailed.pteShootdowns().value(),
              functional.pteShootdowns().value());
    EXPECT_GT(mod_d.reads().value(), 0u);
    EXPECT_EQ(mod_f.reads().value(), 0u); // functional bills nothing
    EXPECT_EQ(saveBytes(detailed), saveBytes(functional));

    PteCachedPageMapping fresh(1024, 2, cfg);
    expectRoundTripIdentical(detailed, fresh);
}

// ---------------------------------------------------------------------
// Placement policies vs the legacy org decisions
// ---------------------------------------------------------------------

TEST(NthTouchPlacementTest, MatchesTlmDynamicOrgOnSameStream)
{
    OrgConfig c = smallConfig();
    const auto built = makeOrganization(OrgKind::TlmDynamic, c);
    ComposedOrg &org = dynamic_cast<ComposedOrg &>(*built);

    const std::uint64_t stacked_pages = c.stackedBytes / kPageBytes;
    const std::uint64_t total_pages =
        (c.stackedBytes + c.offchipBytes) / kPageBytes;
    MockContext ctx(stacked_pages, total_pages);
    NthTouchMigratePlacement policy(stacked_pages, total_pages,
                                    c.migrate, c.seed);

    const std::uint64_t total_lines = total_pages * kLinesPerPage;
    Rng rng(555);
    Tick now = 0;
    for (int i = 0; i < 30000; ++i) {
        const LineAddr line = rng.next(total_lines);
        const bool is_write = rng.chance(0.3);
        org.access(now, line, is_write, 0x400, 0);

        const PageAddr phys = lineToPage(line);
        const std::uint64_t dev = ctx.devicePageOf(phys);
        policy.onAccess(ctx, now, phys, dev, is_write,
                        Fidelity::Functional);
        now += 25;
    }
    // Identical migration decisions -> identical mapping and counts.
    EXPECT_EQ(org.pageMigrations().value(), ctx.swapsBilled);
    EXPECT_GT(ctx.swapsBilled, 0u);
    for (PageAddr p = 0; p < total_pages; ++p)
        ASSERT_EQ(org.devicePageOf(p), ctx.devicePageOf(p))
            << "page " << p;

    NthTouchMigratePlacement fresh(stacked_pages, total_pages, c.migrate,
                                   c.seed);
    expectRoundTripIdentical(policy, fresh);
}

TEST(EpochFreqPlacementTest, MatchesTlmFreqOrgOnSameStream)
{
    OrgConfig c = smallConfig();
    const auto built = makeOrganization(OrgKind::TlmFreq, c);
    ComposedOrg &org = dynamic_cast<ComposedOrg &>(*built);
    const auto &org_freq =
        dynamic_cast<const EpochFrequencyPlacement &>(org.placementPolicy());

    const std::uint64_t stacked_pages = c.stackedBytes / kPageBytes;
    const std::uint64_t total_pages =
        (c.stackedBytes + c.offchipBytes) / kPageBytes;
    MockContext ctx(stacked_pages, total_pages);
    EpochFrequencyPlacement policy(stacked_pages, total_pages,
                                   c.freq.epochAccesses);

    const std::uint64_t total_lines = total_pages * kLinesPerPage;
    Rng rng(777);
    Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
        // Skewed stream so the epochs have hot pages to promote.
        const PageAddr page = rng.chance(0.7) ? rng.next(32)
                                              : rng.next(total_pages);
        const LineAddr line =
            page * kLinesPerPage + rng.next(kLinesPerPage);
        ASSERT_LT(line, total_lines);
        const bool is_write = rng.chance(0.3);
        org.access(now, line, is_write, 0x400, 0);

        const std::uint64_t dev = ctx.devicePageOf(page);
        policy.onAccess(ctx, now, page, dev, is_write,
                        Fidelity::Functional);
        now += 25;
    }
    EXPECT_EQ(org_freq.epochs().value(), policy.epochs().value());
    EXPECT_GT(policy.epochs().value(), 0u);
    EXPECT_EQ(org.pageMigrations().value(), ctx.swapsBilled);
    for (PageAddr p = 0; p < total_pages; ++p)
        ASSERT_EQ(org.devicePageOf(p), ctx.devicePageOf(p))
            << "page " << p;

    EpochFrequencyPlacement fresh(stacked_pages, total_pages,
                                  c.freq.epochAccesses);
    expectRoundTripIdentical(policy, fresh);
}

TEST(OracleHeatPlacementTest, ConsumesOracleAndPlacesHotPages)
{
    constexpr std::uint64_t kStacked = 4;
    constexpr std::uint64_t kTotal = 16;
    MockContext ctx(kStacked, kTotal);
    OracleHeatPlacement policy(kStacked, kTotal);

    PageHeatMap heat;
    heat[pageHeatKey(0, 100)] = 1000; // very hot vpage
    heat[pageHeatKey(0, 101)] = 1;    // cold vpage
    EXPECT_TRUE(policy.setPageHeat(std::move(heat)));

    // Map the hot vpage to an off-chip frame: the oracle displaces the
    // (zero-heat) coldest stacked resident at no cost.
    const std::uint32_t frame = 9; // device frame >= kStacked
    ASSERT_GE(std::uint64_t{frame}, kStacked);
    policy.onPageMapped(ctx, frame, 0, 100);
    EXPECT_LT(ctx.devicePageOf(frame), kStacked);
    EXPECT_EQ(ctx.swapsBilled, 0u); // oracle placement is free

    OracleHeatPlacement fresh(kStacked, kTotal);
    expectRoundTripIdentical(policy, fresh);
}

TEST(PlacementOracleContractTest, OnlyOracleHeatTakesPageHeat)
{
    OracleHeatPlacement oracle(4, 16);
    EXPECT_TRUE(oracle.setPageHeat({}));

    StaticPlacement stat;
    EXPECT_FALSE(stat.setPageHeat({}));

    NthTouchMigratePlacement nth(4, 16, MigratePolicyConfig{}, 1);
    EXPECT_FALSE(nth.setPageHeat({}));

    BansheePolicyConfig bcfg;
    SamplingFrequencyPlacement samp(4, 16, bcfg, 512, 1);
    EXPECT_FALSE(samp.setPageHeat({}));
}

// ---------------------------------------------------------------------
// Banshee's sampling-frequency placement
// ---------------------------------------------------------------------

TEST(SamplingFreqPlacementTest, AdmitsHotPageAndIgnoresColdTraffic)
{
    constexpr std::uint64_t kStacked = 64;
    constexpr std::uint64_t kTotal = 256;
    BansheePolicyConfig cfg;
    cfg.sampleRate = 1; // sample every access
    cfg.hotThreshold = 0;
    cfg.victimProbes = 4;
    MockContext ctx(kStacked, kTotal);
    SamplingFrequencyPlacement policy(kStacked, kTotal, cfg, 1 << 20, 42);

    const PageAddr hot = kStacked + 7; // starts off-chip
    ASSERT_GE(ctx.devicePageOf(hot), kStacked);
    for (int i = 0; i < 8; ++i)
        policy.onAccess(ctx, i * 10, hot, ctx.devicePageOf(hot), false,
                        Fidelity::Functional);
    // Sampled count beats the untouched victims: the page migrated.
    EXPECT_LT(ctx.devicePageOf(hot), kStacked);
    EXPECT_EQ(ctx.swapsBilled, 1u);
    EXPECT_GT(policy.counterUpdates().value(), 0u);

    // Stacked-resident traffic never swaps.
    const std::uint64_t swaps_before = ctx.swapsBilled;
    for (int i = 0; i < 100; ++i)
        policy.onAccess(ctx, 1000 + i, hot, ctx.devicePageOf(hot), false,
                        Fidelity::Functional);
    EXPECT_EQ(ctx.swapsBilled, swaps_before);
}

TEST(SamplingFreqPlacementTest, DeterministicAcrossFidelities)
{
    constexpr std::uint64_t kStacked = 64;
    constexpr std::uint64_t kTotal = 256;
    BansheePolicyConfig cfg; // stock sampling (1 in 32)
    MockContext ctx_d(kStacked, kTotal);
    MockContext ctx_f(kStacked, kTotal);
    SamplingFrequencyPlacement detailed(kStacked, kTotal, cfg, 512, 42);
    SamplingFrequencyPlacement functional(kStacked, kTotal, cfg, 512, 42);

    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        const PageAddr page = rng.chance(0.6) ? rng.next(16)
                                              : rng.next(kTotal);
        detailed.onAccess(ctx_d, i * 10, page, ctx_d.devicePageOf(page),
                          false, Fidelity::Detailed);
        functional.onAccess(ctx_f, 0, page, ctx_f.devicePageOf(page),
                            false, Fidelity::Functional);
    }
    // Identical RNG draws and counter updates at both fidelities.
    EXPECT_EQ(ctx_d.swapsBilled, ctx_f.swapsBilled);
    EXPECT_EQ(detailed.counterUpdates().value(),
              functional.counterUpdates().value());
    EXPECT_EQ(saveBytes(detailed), saveBytes(functional));
    for (PageAddr p = 0; p < kTotal; ++p)
        ASSERT_EQ(ctx_d.devicePageOf(p), ctx_f.devicePageOf(p));

    SamplingFrequencyPlacement fresh(kStacked, kTotal, cfg, 512, 42);
    expectRoundTripIdentical(detailed, fresh);
}

// ---------------------------------------------------------------------
// Stateless policy identities + the freq-admission filter
// ---------------------------------------------------------------------

TEST(StatelessPolicyTest, NamesAndEmptyCheckpoints)
{
    StaticPlacement stat;
    EXPECT_STREQ(stat.policyName(), "static");
    StaticPlacement stat2;
    expectRoundTripIdentical(stat, stat2);
}

TEST(FreqAdmissionPlacementTest, AdmitsOnlyProvenHotPages)
{
    FreqAdmissionPlacement filter(64, 1 << 20);
    const LineAddr line = 5 * kLinesPerPage;
    EXPECT_FALSE(filter.shouldAdmit(line)); // cold page: no swap
    for (std::uint32_t i = 0;
         i < FreqAdmissionPlacement::kHotThreshold; ++i)
        filter.noteAccess(line);
    EXPECT_TRUE(filter.shouldAdmit(line));
    EXPECT_EQ(filter.hotPages().value(), 1u);

    FreqAdmissionPlacement fresh(64, 1 << 20);
    expectRoundTripIdentical(filter, fresh);
}

// ---------------------------------------------------------------------
// orgKindFromName / orgComposition / OrgConfig::validate
// ---------------------------------------------------------------------

TEST(OrgKindNameTest, RoundTripsEveryKind)
{
    for (const OrgKind kind : allOrgKinds()) {
        const auto parsed = orgKindFromName(orgKindName(kind));
        ASSERT_TRUE(parsed.has_value()) << orgKindName(kind);
        EXPECT_EQ(*parsed, kind);
    }
}

TEST(OrgKindNameTest, ParsesCliSpellingsCaseInsensitively)
{
    // The historical lowercase CLI tokens must keep working.
    EXPECT_EQ(orgKindFromName("baseline"), OrgKind::Baseline);
    EXPECT_EQ(orgKindFromName("cache"), OrgKind::AlloyCache);
    EXPECT_EQ(orgKindFromName("tlm-static"), OrgKind::TlmStatic);
    EXPECT_EQ(orgKindFromName("tlm-dynamic"), OrgKind::TlmDynamic);
    EXPECT_EQ(orgKindFromName("tlm-freq"), OrgKind::TlmFreq);
    EXPECT_EQ(orgKindFromName("tlm-oracle"), OrgKind::TlmOracle);
    EXPECT_EQ(orgKindFromName("doubleuse"), OrgKind::DoubleUse);
    EXPECT_EQ(orgKindFromName("cameo"), OrgKind::Cameo);
    EXPECT_EQ(orgKindFromName("cameo-freq"), OrgKind::CameoFreq);
    EXPECT_EQ(orgKindFromName("banshee"), OrgKind::Banshee);
    EXPECT_EQ(orgKindFromName("BANSHEE"), OrgKind::Banshee);
    EXPECT_FALSE(orgKindFromName("").has_value());
    EXPECT_FALSE(orgKindFromName("alloy?").has_value());
    EXPECT_FALSE(orgKindFromName("cameo ").has_value());
}

TEST(OrgCompositionTest, TableMatchesLivePolicyNames)
{
    const OrgConfig c = smallConfig();
    for (const OrgKind kind : allOrgKinds()) {
        const OrgComposition comp = orgComposition(kind);
        ASSERT_NE(comp.mapping, nullptr);
        ASSERT_NE(comp.placement, nullptr);
        const auto org = makeOrganization(kind, c);
        const auto *composed = dynamic_cast<ComposedOrg *>(org.get());
        if (composed == nullptr)
            continue; // monolith-hosted kinds: table is documentary
        EXPECT_STREQ(comp.mapping,
                     composed->mappingPolicy().policyName())
            << orgKindName(kind);
        EXPECT_STREQ(comp.placement,
                     composed->placementPolicy().policyName())
            << orgKindName(kind);
    }
}

TEST(OrgConfigValidateTest, AcceptsDefaultsRejectsBrokenPoints)
{
    OrgConfig c = smallConfig();
    EXPECT_EQ(c.validate(), nullptr);

    OrgConfig bad = c;
    bad.stackedBytes = 0;
    EXPECT_STRNE(bad.validate(), nullptr);

    bad = c;
    bad.offchipBytes = kPageBytes + 1;
    EXPECT_STRNE(bad.validate(), nullptr);

    bad = c;
    bad.numCores = 0;
    EXPECT_STRNE(bad.validate(), nullptr);

    bad = c;
    bad.llt.llpTableEntries = 0;
    EXPECT_STRNE(bad.validate(), nullptr);

    bad = c;
    bad.freq.epochAccesses = 0;
    EXPECT_STRNE(bad.validate(), nullptr);

    bad = c;
    bad.migrate.migrateThreshold = 0;
    EXPECT_STRNE(bad.validate(), nullptr);

    bad = c;
    bad.banshee.pteCacheEntries = 48; // not a power of two
    EXPECT_STRNE(bad.validate(), nullptr);
}

TEST(OrgSetPageHeatTest, NonOracleOrgsReportNotAnError)
{
    const OrgConfig c = smallConfig();
    // The old contract asserted; the new one reports. Only TLM-Oracle
    // consumes the oracle.
    for (const OrgKind kind : allOrgKinds()) {
        const auto org = makeOrganization(kind, c);
        const bool consumed = org->setPageHeat({});
        EXPECT_EQ(consumed, kind == OrgKind::TlmOracle)
            << orgKindName(kind);
    }
}

} // namespace
} // namespace cameo
