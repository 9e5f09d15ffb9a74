/**
 * @file
 * Unit tests for the CameoController: swap mechanics, the latency
 * ordering of the LLT designs (Figure 8's analysis), prediction
 * plumbing, and writeback handling.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/cameo_controller.hh"
#include "dram/dram_module.hh"
#include "util/rng.hh"

namespace cameo
{
namespace
{

/** Small CAMEO fixture: 1MB stacked + 3MB off-chip (16K groups). */
class ControllerFixture
{
  public:
    explicit ControllerFixture(LltKind llt,
                               PredictorKind pred = PredictorKind::Sam)
    {
        DramTimings st = stackedTimings();
        std::uint64_t stacked_bytes = 1 << 20;
        if (llt == LltKind::CoLocated)
            st.linesPerRow = LeadLayout::kLeadsPerRow;
        std::uint64_t module_bytes = stacked_bytes;
        if (llt == LltKind::Embedded) {
            module_bytes += CameoController::lltReserveLines(
                                stacked_bytes / 64, 4) *
                            64;
        }
        stacked = std::make_unique<DramModule>("t.stk", st, module_bytes);
        offchip = std::make_unique<DramModule>("t.off", offchipTimings(),
                                               3 << 20);
        ctrl = std::make_unique<CameoController>(
            CameoParams{llt, pred, 2}, *stacked, *offchip,
            stacked_bytes / 64, (4ull << 20) / 64);
    }

    std::unique_ptr<DramModule> stacked;
    std::unique_ptr<DramModule> offchip;
    std::unique_ptr<CameoController> ctrl;
};

TEST(CameoControllerTest, StackedResidentLineServedFromStacked)
{
    ControllerFixture f(LltKind::Ideal);
    // Slot 0 lines start in stacked memory.
    f.ctrl->access(0, 42, false, 0x400, 0);
    EXPECT_EQ(f.ctrl->servicedStacked().value(), 1u);
    EXPECT_EQ(f.ctrl->servicedOffchip().value(), 0u);
    EXPECT_EQ(f.ctrl->swaps().value(), 0u);
}

TEST(CameoControllerTest, OffchipAccessSwapsLineIn)
{
    ControllerFixture f(LltKind::Ideal);
    const std::uint64_t groups = f.ctrl->groups().numGroups();
    const LineAddr line = groups + 42; // slot 1 of group 42: off-chip
    f.ctrl->access(0, line, false, 0x400, 0);
    EXPECT_EQ(f.ctrl->servicedOffchip().value(), 1u);
    EXPECT_EQ(f.ctrl->swaps().value(), 1u);
    // The line is now stacked-resident: second access hits stacked.
    f.ctrl->access(10000, line, false, 0x400, 0);
    EXPECT_EQ(f.ctrl->servicedStacked().value(), 1u);
    // And the displaced slot-0 line is now off-chip.
    f.ctrl->access(20000, 42, false, 0x400, 0);
    EXPECT_EQ(f.ctrl->servicedOffchip().value(), 2u);
}

TEST(CameoControllerTest, SwapIsExclusiveWithinGroup)
{
    ControllerFixture f(LltKind::Ideal);
    const std::uint64_t groups = f.ctrl->groups().numGroups();
    // Touch all four members of group 7 in turn; the LLT entry must
    // remain a permutation and exactly one member must be stacked.
    for (std::uint32_t slot = 0; slot < 4; ++slot)
        f.ctrl->access(slot * 10000, slot * groups + 7, false, 0x400, 0);
    EXPECT_TRUE(f.ctrl->llt().verifyGroup(7));
    int in_stacked = 0;
    for (std::uint32_t slot = 0; slot < 4; ++slot)
        in_stacked += (f.ctrl->llt().locationOf(7, slot) == 0);
    EXPECT_EQ(in_stacked, 1);
    // The most recently accessed member (slot 3) holds the slot.
    EXPECT_EQ(f.ctrl->llt().locationOf(7, 3), 0u);
}

TEST(CameoControllerTest, EmbeddedSlowerThanCoLocatedOnStackedHit)
{
    // Figure 8: Embedded pays the serial LLT lookup on hits (2 units);
    // Co-Located gets LLT+data in one access (1 unit).
    ControllerFixture emb(LltKind::Embedded);
    ControllerFixture col(LltKind::CoLocated);
    const Tick t_emb = emb.ctrl->access(0, 42, false, 0x400, 0);
    const Tick t_col = col.ctrl->access(0, 42, false, 0x400, 0);
    EXPECT_GT(t_emb, t_col);
    EXPECT_EQ(emb.stacked->reads().value(), 2u); // LLT + data
    EXPECT_EQ(col.stacked->reads().value(), 1u); // one LEAD
}

TEST(CameoControllerTest, IdealFastestOnMiss)
{
    // Figure 8, case M: Ideal 2 units; Embedded and Co-Located 3.
    ControllerFixture ideal(LltKind::Ideal);
    ControllerFixture emb(LltKind::Embedded);
    ControllerFixture col(LltKind::CoLocated);
    const std::uint64_t groups = ideal.ctrl->groups().numGroups();
    const LineAddr line = groups + 7;
    const Tick t_ideal = ideal.ctrl->access(0, line, false, 0x400, 0);
    const Tick t_emb = emb.ctrl->access(0, line, false, 0x400, 0);
    const Tick t_col = col.ctrl->access(0, line, false, 0x400, 0);
    EXPECT_LT(t_ideal, t_emb);
    EXPECT_LT(t_ideal, t_col);
}

TEST(CameoControllerTest, CorrectPredictionParallelizesOffchipFetch)
{
    // A correctly predicted off-chip access must be faster than a SAM
    // (serialized) one.
    ControllerFixture sam(LltKind::CoLocated, PredictorKind::Sam);
    ControllerFixture perfect(LltKind::CoLocated, PredictorKind::Perfect);
    const std::uint64_t groups = sam.ctrl->groups().numGroups();
    const LineAddr line = groups + 3;
    const Tick t_sam = sam.ctrl->access(0, line, false, 0x400, 0);
    const Tick t_perfect = perfect.ctrl->access(0, line, false, 0x400, 0);
    EXPECT_LT(t_perfect, t_sam);
    // Neither wasted a fetch.
    EXPECT_EQ(sam.ctrl->wastedFetches().value(), 0u);
    EXPECT_EQ(perfect.ctrl->wastedFetches().value(), 0u);
}

TEST(CameoControllerTest, WrongPredictionWastesBandwidth)
{
    ControllerFixture f(LltKind::CoLocated, PredictorKind::Llp);
    const std::uint64_t groups = f.ctrl->groups().numGroups();
    const InstAddr pc = 0x400;
    // Train the PC to location 1 via group 9, then access a line of a
    // different group whose location is 2: predicted 1, actual 2.
    f.ctrl->access(0, groups * 1 + 9, false, pc, 0); // loc 1 trains
    const std::uint64_t off_reads = f.offchip->reads().value();
    f.ctrl->access(50000, groups * 2 + 10, false, pc, 0);
    EXPECT_EQ(f.ctrl->wastedFetches().value(), 1u);
    // Two off-chip reads: the wasted one and the correct one.
    EXPECT_EQ(f.offchip->reads().value(), off_reads + 2);
}

TEST(CameoControllerTest, WritebackUpdatesInPlaceWithoutSwap)
{
    ControllerFixture f(LltKind::CoLocated);
    const std::uint64_t groups = f.ctrl->groups().numGroups();
    const LineAddr offchip_line = groups + 5;
    f.ctrl->access(0, offchip_line, true, 0x400, 0); // writeback
    EXPECT_EQ(f.ctrl->swaps().value(), 0u);
    EXPECT_EQ(f.ctrl->llt().locationOf(5, 1), 1u); // still off-chip
    EXPECT_GT(f.offchip->writes().value(), 0u);
}

TEST(CameoControllerTest, WritebackToStackedResidentLine)
{
    ControllerFixture f(LltKind::CoLocated);
    f.ctrl->access(0, 5, true, 0x400, 0); // slot 0: stacked
    EXPECT_EQ(f.ctrl->swaps().value(), 0u);
    EXPECT_GT(f.stacked->writes().value(), 0u);
    EXPECT_EQ(f.offchip->writes().value(), 0u);
}

TEST(CameoControllerTest, SwapTrafficBilled)
{
    // One off-chip miss (co-located): LEAD read, off-chip demand read,
    // off-chip victim write, LEAD fill write.
    ControllerFixture f(LltKind::CoLocated);
    const std::uint64_t groups = f.ctrl->groups().numGroups();
    f.ctrl->access(0, groups + 1, false, 0x400, 0);
    EXPECT_EQ(f.stacked->reads().value(), 1u);
    EXPECT_EQ(f.stacked->writes().value(), 1u);
    EXPECT_EQ(f.offchip->reads().value(), 1u);
    EXPECT_EQ(f.offchip->writes().value(), 1u);
    // LEAD bursts move 80 bytes.
    EXPECT_EQ(f.stacked->readBytes().value(),
              LeadLayout::kLeadBurstBytes);
}

TEST(CameoControllerTest, MispredictionsEitherBilledOrSquashed)
{
    // Under load, a mispredicted speculative fetch is squashed once
    // the LEAD read verifies it; when the off-chip memory is idle it
    // issues (and is counted as waste). Either way, every case-2/5
    // prediction is accounted exactly once.
    ControllerFixture f(LltKind::CoLocated, PredictorKind::Llp);
    Rng rng(77);
    const std::uint64_t total = f.ctrl->groups().totalLines();
    Tick now = 0;
    for (int i = 0; i < 30000; ++i) {
        f.ctrl->access(now, rng.next(total), false,
                       0x400000 + 4 * rng.next(16),
                       static_cast<std::uint32_t>(rng.next(2)));
        now += 10; // aggressive rate: some fetches must squash
    }
    const auto &pred = f.ctrl->predictor();
    const std::uint64_t mispredicted_offchip =
        pred.caseCount(PredictionCase::StackedPredOffchip) +
        pred.caseCount(PredictionCase::OffchipPredWrong);
    EXPECT_EQ(f.ctrl->wastedFetches().value() +
                  f.ctrl->squashedFetches().value(),
              mispredicted_offchip);
    EXPECT_GT(mispredicted_offchip, 0u);
}

TEST(CameoControllerTest, IdleMispredictionIsBilled)
{
    // With a completely idle off-chip memory, a wrong speculative
    // fetch cannot be squashed (it would have issued immediately).
    ControllerFixture f(LltKind::CoLocated, PredictorKind::Llp);
    const std::uint64_t groups = f.ctrl->groups().numGroups();
    const InstAddr pc = 0x400;
    f.ctrl->access(0, groups * 1 + 9, false, pc, 0); // train loc 1
    f.ctrl->access(1'000'000, groups * 2 + 10, false, pc, 0); // idle
    EXPECT_EQ(f.ctrl->wastedFetches().value(), 1u);
    EXPECT_EQ(f.ctrl->squashedFetches().value(), 0u);
}

TEST(CameoControllerTest, EmbeddedLltReserveSizing)
{
    // 4 lines per group, 2-bit entries: 1 byte per group, 64 groups
    // per reserved line.
    EXPECT_EQ(CameoController::lltReserveLines(64, 4), 1u);
    EXPECT_EQ(CameoController::lltReserveLines(65, 4), 2u);
    EXPECT_EQ(CameoController::lltReserveLines(1 << 20, 4),
              (1u << 20) / 64);
}

TEST(CameoControllerTest, EmbeddedLltLookupsCounted)
{
    ControllerFixture f(LltKind::Embedded);
    f.ctrl->access(0, 3, false, 0x400, 0);
    f.ctrl->access(1000, 4, false, 0x400, 0);
    EXPECT_EQ(f.ctrl->llt().numGroups(),
              f.ctrl->groups().numGroups());
    // Each demand access consulted the embedded table once.
    EXPECT_EQ(f.stacked->reads().value(), 4u); // 2 LLT + 2 data
}

TEST(CameoControllerTest, LltMatchesReferencePermutationModel)
{
    // A random read/write stream over a few congruence groups, checked
    // against a shadow permutation: per group, the location of each
    // slot (slot s starts at location s; location 0 is stacked).
    ControllerFixture f(LltKind::Ideal);
    const CongruenceGroups &groups = f.ctrl->groups();
    const std::uint32_t k = groups.groupSize();
    ASSERT_EQ(k, 4u);
    constexpr std::uint64_t kHotGroups = 64;
    std::vector<std::vector<std::uint32_t>> loc(
        kHotGroups, std::vector<std::uint32_t>(k));
    for (auto &g : loc)
        for (std::uint32_t s = 0; s < k; ++s)
            g[s] = s;

    Rng rng(99);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t group = rng.next(kHotGroups);
        const auto slot = static_cast<std::uint32_t>(rng.next(k));
        const bool is_write = rng.chance(0.3);
        f.ctrl->access(0, groups.lineOf(group, slot), is_write, 0x400, 0,
                       Fidelity::Functional);
        if (!is_write) {
            // A read of an off-chip line swaps it into location 0 and
            // the previous stacked resident into its old location.
            for (std::uint32_t s = 0; s < k; ++s) {
                if (loc[group][s] == 0) {
                    std::swap(loc[group][s], loc[group][slot]);
                    break;
                }
            }
            ASSERT_EQ(f.ctrl->llt().locationOf(group, slot), 0u);
        }
        // Writebacks update in place: the permutation is unchanged.
        const std::uint64_t pg = rng.next(kHotGroups);
        const auto ps = static_cast<std::uint32_t>(rng.next(k));
        ASSERT_EQ(f.ctrl->llt().locationOf(pg, ps), loc[pg][ps])
            << "group " << pg << " slot " << ps << " after access " << i;
    }
    for (std::uint64_t g = 0; g < kHotGroups; ++g)
        for (std::uint32_t s = 0; s < k; ++s)
            EXPECT_EQ(f.ctrl->llt().locationOf(g, s), loc[g][s]);
    EXPECT_GT(f.ctrl->swaps().value(), 0u);
    EXPECT_EQ(f.stacked->reads().value() + f.offchip->reads().value(), 0u);
}

TEST(CameoControllerTest, ManyRandomAccessesKeepInvariants)
{
    ControllerFixture f(LltKind::CoLocated, PredictorKind::Llp);
    Rng rng(31);
    const std::uint64_t total = f.ctrl->groups().totalLines();
    Tick now = 0;
    for (int i = 0; i < 20000; ++i) {
        const LineAddr line = rng.next(total);
        f.ctrl->access(now, line, rng.chance(0.3),
                       0x400000 + 4 * rng.next(64),
                       static_cast<std::uint32_t>(rng.next(2)));
        now += 30;
    }
    // Spot-check permutations.
    for (std::uint64_t g = 0; g < 64; ++g)
        EXPECT_TRUE(f.ctrl->llt().verifyGroup(g));
    // Reads+writes conserved: every off-chip-serviced demand read
    // produced exactly one swap.
    EXPECT_GT(f.ctrl->swaps().value(), 0u);
}

} // namespace
} // namespace cameo
