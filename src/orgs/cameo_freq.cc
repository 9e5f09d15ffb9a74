#include "orgs/cameo_freq.hh"

namespace cameo
{

CameoFreqOrg::CameoFreqOrg(const OrgConfig &config)
    : CameoOrg(config, "CAMEO-Freq"),
      filter_((config.stackedBytes + config.offchipBytes) / kPageBytes,
              config.freq.epochAccesses)
{
    controller().setSwapFilter(
        [this](LineAddr line) { return filter_.shouldAdmit(line); });
}

Tick
CameoFreqOrg::serve(Tick now, LineAddr line, bool is_write, InstAddr pc,
                    std::uint32_t core, Fidelity fidelity)
{
    filter_.noteAccess(line);
    return CameoOrg::serve(now, line, is_write, pc, core, fidelity);
}

void
CameoFreqOrg::registerOwnStats(StatRegistry &registry)
{
    CameoOrg::registerOwnStats(registry);
    filter_.registerStats(registry);
}

void
CameoFreqOrg::save(SnapshotWriter &w) const
{
    CameoOrg::save(w);
    filter_.save(w);
}

void
CameoFreqOrg::restore(SnapshotReader &r)
{
    CameoOrg::restore(r);
    filter_.restore(r);
}

} // namespace cameo
