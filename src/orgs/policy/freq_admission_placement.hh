/**
 * @file
 * Frequency-directed swap admission, extracted from CameoFreqOrg (the
 * Section VI-D extension): an epoch-decayed page-access counter table
 * whose verdict gates CAMEO's line swaps.
 *
 * Lines of pages that have not yet proven hot are serviced from
 * off-chip memory in place — no swap, no victim write — so streaming
 * or single-touch pages stop churning the stacked slots. This policy
 * is a line-level admission filter, not a page mover, so it plugs into
 * CameoController::setSwapFilter rather than the ComposedOrg page
 * path, and is a plain Checkpointable part of its host org.
 */

#ifndef CAMEO_ORGS_POLICY_FREQ_ADMISSION_PLACEMENT_HH
#define CAMEO_ORGS_POLICY_FREQ_ADMISSION_PLACEMENT_HH

#include <cstdint>
#include <vector>

#include "snapshot/snapshot.hh"
#include "stats/counter.hh"
#include "stats/registry.hh"
#include "util/types.hh"

namespace cameo
{

/** Epoch-decayed hot-page filter for CAMEO swap admission. */
class FreqAdmissionPlacement final : public Checkpointable
{
  public:
    /** Page touches within the decay window required to admit swaps. */
    static constexpr std::uint32_t kHotThreshold = 4;

    FreqAdmissionPlacement(std::uint64_t total_pages,
                           std::uint64_t epoch_accesses);

    void registerStats(StatRegistry &registry);

    const Counter &hotPages() const { return hotPages_; }

    /** Heat bookkeeping shared by both fidelities: bump the page's
     *  saturating counter and decay at epoch boundaries. */
    void noteAccess(LineAddr line);

    /** Swap-admission verdict for @p line (counts hot admissions). */
    bool shouldAdmit(LineAddr line);

    /** Checkpointable: page counters and epoch progress. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  private:
    /** Halve all counters (called every epoch of demand accesses). */
    void decay();

    std::vector<std::uint8_t> pageCount_; ///< Saturating, per OS page.
    std::uint64_t epochLength_;
    std::uint64_t accessesThisEpoch_ = 0;

    Counter hotPages_;
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_FREQ_ADMISSION_PLACEMENT_HH
