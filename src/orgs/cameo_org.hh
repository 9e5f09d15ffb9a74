/**
 * @file
 * CameoOrg: wires the CameoController into the organization interface.
 *
 * Capacity accounting per LLT design (charged against OS-visible
 * bytes, rounded down to whole pages):
 *  - Ideal:     none (theoretical design point);
 *  - Embedded:  the LLT region — one location-table entry per
 *               congruence group, stored in a reserved slice of the
 *               stacked DRAM (64MB for the paper's 16GB system);
 *  - CoLocated: 1/32 of the stacked capacity (one line per 2KB row
 *               funds the 31 location entries, Figure 7), and the
 *               stacked timing map uses 31 lines per row.
 */

#ifndef CAMEO_ORGS_CAMEO_ORG_HH
#define CAMEO_ORGS_CAMEO_ORG_HH

#include "core/cameo_controller.hh"
#include "orgs/memory_organization.hh"

namespace cameo
{

/** The paper's proposal as a memory organization. */
class CameoOrg : public MemoryOrganization
{
  public:
    /**
     * @param config Organization configuration.
     * @param name   Display-name override for derived variants; empty
     *               selects the standard variant name.
     */
    explicit CameoOrg(const OrgConfig &config, std::string name = "");

    std::uint64_t visibleBytes() const override { return visibleBytes_; }

    const CameoController *cameo() const override { return &controller_; }
    CameoController &controller() { return controller_; }

    /** Display name for a CAMEO design point, e.g. "CAMEO(CoLocated+LLP)". */
    static std::string variantName(LltKind llt, PredictorKind pred);

    /** Checkpointable: base state + the controller's LLT/LLP tables. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

  protected:
    Tick serve(Tick now, LineAddr line, bool is_write, InstAddr pc,
               std::uint32_t core, Fidelity fidelity) override;
    void registerOwnStats(StatRegistry &registry) override;

  private:
    CameoController controller_;
    std::uint64_t visibleBytes_;
};

} // namespace cameo

#endif // CAMEO_ORGS_CAMEO_ORG_HH
