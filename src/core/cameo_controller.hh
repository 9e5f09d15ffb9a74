/**
 * @file
 * CameoController: the hardware mechanism of the paper (Sections IV-V).
 *
 * Responsibilities per L3 miss / writeback:
 *  1. locate the line via the Line Location Table (with the latency
 *     behaviour of the configured LLT design: Ideal, Embedded, or
 *     Co-Located, Figures 6-8);
 *  2. service the access from stacked or off-chip DRAM, using the Line
 *     Location Predictor to overlap off-chip fetches with the LEAD read
 *     when configured (Figure 10);
 *  3. on an off-chip-resident access, swap the line with the group's
 *     stacked resident (writeback + fill through the existing queues)
 *     and update the LLT.
 *
 * Modelling notes (see DESIGN.md section 3):
 *  - The Embedded LLT's reserved region is modelled as extra stacked
 *    device lines above the data region, so LLT reads/writes contend
 *    for real banks and buses; its capacity cost is charged by the
 *    organization as a reduction of OS-visible bytes.
 *  - The Co-Located design reads/writes 80-byte LEAD bursts and uses a
 *    31-lines-per-row stacked address map; its 1/32 capacity cost is
 *    likewise charged by the organization.
 */

#ifndef CAMEO_CORE_CAMEO_CONTROLLER_HH
#define CAMEO_CORE_CAMEO_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "core/congruence_group.hh"
#include "core/lead_layout.hh"
#include "core/line_location_predictor.hh"
#include "core/line_location_table.hh"
#include "dram/dram_module.hh"
#include "sim/fidelity.hh"
#include "snapshot/snapshot.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"
#include "util/types.hh"

namespace cameo
{

/** Which LLT design the controller models (Figure 6 / Section IV). */
enum class LltKind
{
    Ideal,     ///< Zero-latency, zero-storage oracle LLT.
    Embedded,  ///< LLT in a reserved stacked region; serial lookup.
    CoLocated, ///< LLT entry co-located with data (LEAD, Figure 7).
};

/** Printable name of an LLT design. */
const char *lltKindName(LltKind kind);

/** Static configuration of a CameoController. */
struct CameoParams
{
    LltKind llt = LltKind::CoLocated;
    PredictorKind predictor = PredictorKind::Llp;
    std::uint32_t numCores = 8;

    /** LLR entries per core (paper: 256; exposed for ablations). */
    std::uint32_t llpTableEntries = LineLocationPredictor::kTableEntries;
};

/** The CAMEO line-swapping memory controller. */
class CameoController
{
  public:
    /**
     * @param params       LLT design and predictor choice.
     * @param stacked      Stacked DRAM module. For the Embedded design
     *                     its capacity must include lltReserveLines()
     *                     extra lines above @p stacked_data_lines.
     * @param offchip      Off-chip DRAM module.
     * @param stacked_data_lines Stacked data capacity in lines
     *                     (= number of congruence groups; power of 2).
     * @param total_lines  OS-visible line span covered by group math
     *                     (stacked_data_lines * K).
     */
    CameoController(const CameoParams &params, DramModule &stacked,
                    DramModule &offchip, std::uint64_t stacked_data_lines,
                    std::uint64_t total_lines);

    CameoController(const CameoController &) = delete;
    CameoController &operator=(const CameoController &) = delete;

    /**
     * Service one OS-physical line access — the controller's one
     * access path for both fidelities (DESIGN.md §13). Every DRAM
     * command goes through charge(), so a Functional access makes
     * exactly the LLT swap, predictor and counter updates of a
     * Detailed one and bills nothing; the wasted/squashed split of
     * mispredicted fetches depends on queue occupancy and is only
     * counted at Detailed fidelity.
     *
     * @param now      Request time (ignored at Functional fidelity).
     * @param line     OS-physical line address (the "Requested
     *                 Address" of the paper).
     * @param is_write L3 writeback (true) or demand fill (false).
     * @param pc       Missing instruction's address (feeds the LLP).
     * @param core     Requesting core (selects the LLR table).
     * @param fidelity Detailed bills DRAM; Functional does not.
     * @return Data-arrival time for reads; acceptance time for writes
     *         (@p now at Functional fidelity).
     */
    Tick access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core, Fidelity fidelity = Fidelity::Detailed);

    /**
     * Stacked device lines an Embedded LLT reserves for @p data_lines
     * data lines with group size @p group_size.
     */
    static std::uint64_t lltReserveLines(std::uint64_t data_lines,
                                         std::uint32_t group_size);

    /**
     * Optional swap admission filter (Section VI-D's closing remark:
     * "if page frequency information is available, CAMEO can retain
     * lines from only heavily used pages in stacked DRAM"). When set
     * and it returns false for an off-chip-serviced line, the line is
     * serviced in place — no swap, no victim writeback.
     */
    using SwapFilter = std::function<bool(LineAddr line)>;
    void setSwapFilter(SwapFilter filter) { swapFilter_ = std::move(filter); }

    /** Off-chip services that skipped the swap (filter said no). */
    const Counter &swapsFiltered() const { return swapsFiltered_; }

    /**
     * Exhaustively audit the LLT permutation invariant (Section IV-B:
     * every group's entry is a permutation of its K locations).
     * Violations are reported to the global AuditSink.
     *
     * @return Number of groups violating the invariant (0 = sound).
     */
    std::uint64_t auditLlt() const;

    const LineLocationTable &llt() const { return llt_; }
    const LineLocationPredictor &predictor() const { return predictor_; }
    const CongruenceGroups &groups() const { return groups_; }
    LltKind lltKind() const { return params_.llt; }

    void registerStats(StatRegistry &registry);

    /**
     * Checkpoint the LLT and predictor tables. Counters are registered
     * stats (stats section); the swap filter is a configuration-derived
     * callback the owning organization re-installs at construction.
     */
    void save(SnapshotWriter &w) const
    {
        llt_.save(w);
        predictor_.save(w);
    }
    void restore(SnapshotReader &r)
    {
        llt_.restore(r);
        predictor_.restore(r);
    }

    const Counter &servicedStacked() const { return servicedStacked_; }
    const Counter &servicedOffchip() const { return servicedOffchip_; }
    const Counter &swaps() const { return swaps_; }
    const Counter &wastedFetches() const { return wastedFetches_; }
    const Counter &squashedFetches() const { return squashedFetches_; }

  private:
    /** Stacked device line holding @p group's data. */
    std::uint64_t stackedDataLine(std::uint64_t group) const { return group; }

    /** Stacked device line holding @p group's LLT entry (Embedded). */
    std::uint64_t lltLine(std::uint64_t group) const;

    /** Data burst size for stacked accesses (80B LEAD if co-located). */
    std::uint32_t stackedBurst() const
    {
        return params_.llt == LltKind::CoLocated ? LeadLayout::kLeadBurstBytes
                                                 : kLineBytes;
    }

    /**
     * Move the line at (group, slot, loc != 0) into stacked memory,
     * moving the current stacked resident out to @p loc. Bills the
     * writeback/fill traffic at @p when, updates the LLT and counts
     * the swap.
     *
     * @param victim_in_hand True when the stacked resident's data was
     *        already read (Co-Located LEAD read), so no extra stacked
     *        read is needed.
     */
    void swapIn(Tick when, std::uint64_t group, std::uint32_t slot,
                std::uint32_t loc, bool victim_in_hand, Fidelity fidelity);

    /** Update a written-back line in place (no swap). */
    Tick writeback(Tick now, std::uint64_t group, std::uint32_t loc,
                   Fidelity fidelity);

    /** Consult the swap admission filter (counts rejections). */
    bool shouldSwap(std::uint64_t group, std::uint32_t slot);

    /** Demand reads, per LLT design. */
    Tick accessIdeal(Tick now, std::uint64_t group, std::uint32_t slot,
                     std::uint32_t loc, Fidelity fidelity);
    Tick accessEmbedded(Tick now, std::uint64_t group, std::uint32_t slot,
                        std::uint32_t loc, Fidelity fidelity);
    Tick accessCoLocated(Tick now, std::uint64_t group, std::uint32_t slot,
                         std::uint32_t loc, InstAddr pc, std::uint32_t core,
                         Fidelity fidelity);

    CameoParams params_;
    DramModule &stacked_;
    DramModule &offchip_;
    CongruenceGroups groups_;
    LineLocationTable llt_;
    LineLocationPredictor predictor_;
    std::uint64_t lltRegionBase_;   ///< First LLT line (Embedded).
    std::uint32_t lltEntriesPerLine_;

    Counter servicedStacked_;
    Counter servicedOffchip_;
    Counter swaps_;
    Counter lltLookups_;
    Counter wastedFetches_;
    Counter squashedFetches_;
    Counter swapsFiltered_;
    SwapFilter swapFilter_;
};

} // namespace cameo

#endif // CAMEO_CORE_CAMEO_CONTROLLER_HH
