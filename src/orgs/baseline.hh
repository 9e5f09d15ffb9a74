/**
 * @file
 * Baseline organization: commodity off-chip DRAM only, no stacked
 * memory. All speedups in the paper are reported relative to this
 * system's execution time.
 */

#ifndef CAMEO_ORGS_BASELINE_HH
#define CAMEO_ORGS_BASELINE_HH

#include "orgs/memory_organization.hh"

namespace cameo
{

/** Off-chip-only memory system. */
class BaselineOrg : public MemoryOrganization
{
  public:
    explicit BaselineOrg(const OrgConfig &config);

    std::uint64_t visibleBytes() const override
    {
        return offchip_.capacityBytes();
    }

  protected:
    Tick serve(Tick now, LineAddr line, bool is_write, InstAddr pc,
               std::uint32_t core, Fidelity fidelity) override;
};

} // namespace cameo

#endif // CAMEO_ORGS_BASELINE_HH
