#include "core/cameo_controller.hh"

#include <algorithm>
#include <cassert>

#include "check/llt_auditor.hh"
#include "util/bitops.hh"

namespace cameo
{

const char *
lltKindName(LltKind kind)
{
    switch (kind) {
      case LltKind::Ideal:
        return "Ideal-LLT";
      case LltKind::Embedded:
        return "Embedded-LLT";
      case LltKind::CoLocated:
        return "CoLocated-LLT";
    }
    return "Unknown";
}

namespace
{

/** Bytes of one LLT entry for a group of size K. */
std::uint32_t
entryBytes(std::uint32_t group_size)
{
    const unsigned bits_per_loc = isPowerOfTwo(group_size)
                                      ? exactLog2(group_size)
                                      : floorLog2(group_size) + 1;
    return static_cast<std::uint32_t>(
        divCeil(std::uint64_t{group_size} * bits_per_loc, 8));
}

} // namespace

std::uint64_t
CameoController::lltReserveLines(std::uint64_t data_lines,
                                 std::uint32_t group_size)
{
    const std::uint32_t per_line = kLineBytes / entryBytes(group_size);
    return divCeil(data_lines, per_line);
}

CameoController::CameoController(const CameoParams &params,
                                 DramModule &stacked, DramModule &offchip,
                                 std::uint64_t stacked_data_lines,
                                 std::uint64_t total_lines)
    : params_(params), stacked_(stacked), offchip_(offchip),
      groups_(stacked_data_lines, total_lines),
      llt_(stacked_data_lines, groups_.groupSize()),
      predictor_(params.predictor, params.numCores, groups_.groupSize(),
                 params.llpTableEntries),
      lltRegionBase_(stacked_data_lines),
      lltEntriesPerLine_(kLineBytes / entryBytes(groups_.groupSize())),
      servicedStacked_("cameo.servicedStacked",
                       "accesses whose line was in stacked DRAM"),
      servicedOffchip_("cameo.servicedOffchip",
                       "accesses whose line was in off-chip DRAM"),
      swaps_("cameo.swaps", "line swaps performed"),
      lltLookups_("cameo.lltLookups",
                  "separate LLT reads (Embedded design)"),
      wastedFetches_("cameo.wastedFetches",
                     "mispredicted off-chip fetches (bandwidth waste)"),
      squashedFetches_("cameo.squashedFetches",
                       "mispredicted fetches squashed before issue"),
      swapsFiltered_("cameo.swapsFiltered",
                     "off-chip services that skipped the swap (cold page)")
{
    // Off-chip must hold the K-1 non-stacked members of every group.
    assert(offchip_.capacityLines() >=
           (groups_.groupSize() - 1) * groups_.numGroups());
    if (params_.llt == LltKind::Embedded) {
        assert(stacked_.capacityLines() >=
               stacked_data_lines +
                   lltReserveLines(stacked_data_lines,
                                   groups_.groupSize()));
    } else {
        assert(stacked_.capacityLines() >= stacked_data_lines);
    }
}

std::uint64_t
CameoController::lltLine(std::uint64_t group) const
{
    return lltRegionBase_ + group / lltEntriesPerLine_;
}

bool
CameoController::shouldSwap(std::uint64_t group, std::uint32_t slot)
{
    if (!swapFilter_ || swapFilter_(groups_.lineOf(group, slot)))
        return true;
    swapsFiltered_.inc();
    return false;
}

Tick
CameoController::access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                        std::uint32_t core, Fidelity fidelity)
{
    assert(line < groups_.totalLines());
    const std::uint64_t group = groups_.groupOf(line);
    const std::uint32_t slot = groups_.slotOf(line);
    const std::uint32_t loc = llt_.locationOf(group, slot);

    if (loc == 0)
        servicedStacked_.inc();
    else
        servicedOffchip_.inc();

    if (is_write)
        return writeback(now, group, loc, fidelity);

    switch (params_.llt) {
      case LltKind::Ideal:
        return accessIdeal(now, group, slot, loc, fidelity);
      case LltKind::Embedded:
        return accessEmbedded(now, group, slot, loc, fidelity);
      case LltKind::CoLocated:
      default:
        return accessCoLocated(now, group, slot, loc, pc, core, fidelity);
    }
}

Tick
CameoController::writeback(Tick now, std::uint64_t group, std::uint32_t loc,
                           Fidelity fidelity)
{
    // L3 writebacks carry data for a line that was fetched earlier and
    // has since left the L3 — it is not "recently used", so CAMEO
    // updates it in place rather than swapping it in. The location
    // check and the data write both drain through the memory
    // controller's write queue (billed as write/bus traffic):
    //  - Ideal: location is free; write data at its current location.
    //  - Embedded / Co-Located: the LLT consultation is one stacked
    //    access folded into the write drain (for Co-Located it is the
    //    read half of the LEAD read-modify-write).
    if (params_.llt != LltKind::Ideal)
        charge(stacked_, fidelity, now, stackedDataLine(group), true,
               stackedBurst());

    if (loc == 0)
        return charge(stacked_, fidelity, now, stackedDataLine(group), true,
                      stackedBurst());
    return charge(offchip_, fidelity, now, groups_.offchipLineOf(group, loc),
                  true, kLineBytes);
}

void
CameoController::swapIn(Tick when, std::uint64_t group, std::uint32_t slot,
                        std::uint32_t loc, bool victim_in_hand,
                        Fidelity fidelity)
{
    assert(loc != 0);
    const std::uint64_t off_line = groups_.offchipLineOf(group, loc);

    // Read the outgoing stacked resident unless the caller already has
    // it (Co-Located: the LEAD read returned it).
    if (!victim_in_hand)
        charge(stacked_, fidelity, when, stackedDataLine(group), false,
               stackedBurst());
    // Victim takes the incoming line's old off-chip location.
    charge(offchip_, fidelity, when, off_line, true, kLineBytes);
    // Incoming line is installed in the group's stacked slot (the LEAD
    // write also refreshes the co-located location entry).
    charge(stacked_, fidelity, when, stackedDataLine(group), true,
           stackedBurst());

    const std::uint32_t victim_slot = llt_.slotAt(group, 0);
    llt_.swapSlots(group, slot, victim_slot);
    swaps_.inc();
}

Tick
CameoController::accessIdeal(Tick now, std::uint64_t group,
                             std::uint32_t slot, std::uint32_t loc,
                             Fidelity fidelity)
{
    if (loc == 0) {
        return charge(stacked_, fidelity, now, stackedDataLine(group),
                      false, kLineBytes);
    }
    const Tick done = charge(offchip_, fidelity, now,
                             groups_.offchipLineOf(group, loc), false,
                             kLineBytes);
    // Swap traffic goes through the writeback/fill queues; bill it at
    // request time (off the demand critical path).
    if (shouldSwap(group, slot))
        swapIn(now, group, slot, loc, /*victim_in_hand=*/false, fidelity);
    return done;
}

Tick
CameoController::accessEmbedded(Tick now, std::uint64_t group,
                                std::uint32_t slot, std::uint32_t loc,
                                Fidelity fidelity)
{
    // Serial LLT lookup from the reserved stacked region.
    const Tick t_llt = charge(stacked_, fidelity, now, lltLine(group),
                              false, kLineBytes);
    lltLookups_.inc();

    if (loc == 0) {
        return charge(stacked_, fidelity, t_llt, stackedDataLine(group),
                      false, kLineBytes);
    }
    const Tick done = charge(offchip_, fidelity, t_llt,
                             groups_.offchipLineOf(group, loc), false,
                             kLineBytes);
    if (shouldSwap(group, slot)) {
        swapIn(t_llt, group, slot, loc, /*victim_in_hand=*/false, fidelity);
        // The swap moved lines, so the LLT entry must be rewritten.
        charge(stacked_, fidelity, t_llt, lltLine(group), true, kLineBytes);
    }
    return done;
}

Tick
CameoController::accessCoLocated(Tick now, std::uint64_t group,
                                 std::uint32_t slot, std::uint32_t loc,
                                 InstAddr pc, std::uint32_t core,
                                 Fidelity fidelity)
{
    // The LEAD read is the LLT lookup; it also returns the data of
    // whatever line currently occupies the group's stacked slot.
    const Tick t_lead = charge(stacked_, fidelity, now,
                               stackedDataLine(group), false, stackedBurst());

    const std::uint32_t pred = predictor_.predict(core, pc, loc);
    if (pred != 0 && pred != loc && fidelity == Fidelity::Detailed) {
        // Wrong off-chip guess (case 2 if the line is stacked, case 5
        // if elsewhere off-chip). The LEAD read verifies the
        // prediction at t_lead; a speculative fetch still queued at
        // that point is squashed before it touches the bus, so it only
        // wastes bandwidth when the off-chip memory could have
        // serviced it immediately. The split depends on queue
        // occupancy, so it is only defined at Detailed fidelity.
        const std::uint64_t spec = groups_.offchipLineOf(group, pred);
        if (offchip_.earliestServiceStart(spec) <= t_lead) {
            charge(offchip_, fidelity, now, spec, false, kLineBytes);
            wastedFetches_.inc();
        } else {
            squashedFetches_.inc();
        }
    }

    Tick done = t_lead; // loc == 0: the data came with the LEAD
    if (loc != 0) {
        const std::uint64_t off_line = groups_.offchipLineOf(group, loc);
        if (pred == loc) {
            // Correct prediction: off-chip fetch ran in parallel with
            // the LEAD read; completion still waits for the LLT
            // verification (the LEAD read).
            const Tick t_off = charge(offchip_, fidelity, now, off_line,
                                      false, kLineBytes);
            done = std::max(t_lead, t_off);
        } else {
            // Serialized: correct location only known after the LEAD.
            done = charge(offchip_, fidelity, t_lead, off_line, false,
                          kLineBytes);
        }
        if (shouldSwap(group, slot))
            swapIn(now, group, slot, loc, /*victim_in_hand=*/true,
                   fidelity);
    }

    predictor_.update(core, pc, pred, loc);
    return done;
}

std::uint64_t
CameoController::auditLlt() const
{
    LltAuditor auditor;
    return auditor.auditAll(llt_);
}

void
CameoController::registerStats(StatRegistry &registry)
{
    registry.add(servicedStacked_);
    registry.add(servicedOffchip_);
    registry.add(swaps_);
    registry.add(lltLookups_);
    registry.add(wastedFetches_);
    registry.add(squashedFetches_);
    registry.add(swapsFiltered_);
    predictor_.registerStats(registry, "cameo");
}

} // namespace cameo
