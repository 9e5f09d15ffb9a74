/**
 * @file
 * Banshee PTE-cached page mapping implementation.
 */

#include "orgs/policy/pte_cached_mapping.hh"

#include <cassert>

namespace cameo
{

PteCachedPageMapping::PteCachedPageMapping(std::uint64_t total_pages,
                                           std::uint32_t num_cores,
                                           const BansheePolicyConfig &config)
    : table_(total_pages), numCores_(num_cores),
      entries_(config.pteCacheEntries),
      slots_(std::uint64_t{num_cores} * config.pteCacheEntries, 0),
      pteHits_("banshee.pteHits", "accesses translated by a cached PTE"),
      pteMisses_("banshee.pteMisses",
                 "accesses that walked the page table for a mapping"),
      pteShootdowns_("banshee.pteShootdowns",
                     "page moves that invalidated cached PTEs")
{
    assert(entries_ != 0 && (entries_ & (entries_ - 1)) == 0);
    assert(numCores_ != 0);
}

Tick
PteCachedPageMapping::beginAccess(Tick now, PageAddr phys_page,
                                  std::uint32_t core, DramModule &offchip,
                                  Fidelity fidelity)
{
    std::uint64_t &slot = slots_[slotOf(core, phys_page)];
    if (slot == phys_page + 1) {
        pteHits_.inc();
        return now;
    }
    pteMisses_.inc();
    slot = phys_page + 1;
    // The mapping lives in the off-chip page tables: bill the walk as
    // one metadata line read and serialize the data access behind it.
    const std::uint64_t walk_line = phys_page % offchip.capacityLines();
    return charge(offchip, fidelity, now, walk_line, false, kLineBytes);
}

void
PteCachedPageMapping::swapMapping(PageAddr phys_a, PageAddr phys_b)
{
    table_.swapMapping(phys_a, phys_b);
    invalidate(phys_a);
    invalidate(phys_b);
    pteShootdowns_.inc();
}

void
PteCachedPageMapping::invalidate(PageAddr phys_page)
{
    for (std::uint32_t c = 0; c < numCores_; ++c) {
        std::uint64_t &slot = slots_[slotOf(c, phys_page)];
        if (slot == phys_page + 1)
            slot = 0;
    }
}

void
PteCachedPageMapping::registerStats(StatRegistry &registry)
{
    registry.add(pteHits_);
    registry.add(pteMisses_);
    registry.add(pteShootdowns_);
}

void
PteCachedPageMapping::save(SnapshotWriter &w) const
{
    table_.save(w);
    w.vecU64(slots_);
}

void
PteCachedPageMapping::restore(SnapshotReader &r)
{
    table_.restore(r);
    std::vector<std::uint64_t> slots;
    r.vecU64(slots);
    if (!r.ok())
        return;
    if (slots.size() != slots_.size()) {
        r.fail("banshee: PTE cache size mismatch");
        return;
    }
    slots_ = std::move(slots);
}

} // namespace cameo
