#include "orgs/cameo_org.hh"

#include <cassert>

#include "core/lead_layout.hh"
#include "util/bitops.hh"

namespace cameo
{

namespace
{

/**
 * Bytes the LLT design costs (see cameo_org.hh): none for Ideal, the
 * reserved LLT region for Embedded, 1/32 of the stacked capacity for
 * CoLocated.
 */
std::uint64_t
lltReserveBytes(const OrgConfig &config)
{
    switch (config.llt.kind) {
      case LltKind::Ideal:
        return 0;
      case LltKind::Embedded: {
        const std::uint64_t k =
            (config.stackedBytes + config.offchipBytes) / config.stackedBytes;
        return CameoController::lltReserveLines(
                   config.stackedBytes / kLineBytes,
                   static_cast<std::uint32_t>(k)) *
               kLineBytes;
      }
      case LltKind::CoLocated:
        return config.stackedBytes / 32;
    }
    return 0;
}

/** CAMEO's modules: the stacked one is shaped by the LLT design. */
DramLayout
cameoDram(const OrgConfig &config)
{
    DramLayout dram{config.stacked, config.stackedBytes,
                    config.offchipBytes};
    if (config.llt.kind == LltKind::CoLocated) {
        // 31 LEADs per 2KB row (Figure 7).
        dram.stacked.linesPerRow = LeadLayout::kLeadsPerRow;
    } else if (config.llt.kind == LltKind::Embedded) {
        // Model the reserved LLT region as additional device lines so
        // LLT lookups contend for real banks and buses; the capacity
        // cost is charged against visible bytes instead.
        dram.stackedBytes += lltReserveBytes(config);
    }
    return dram;
}

} // namespace

CameoOrg::CameoOrg(const OrgConfig &config, std::string name)
    : MemoryOrganization(name.empty() ? variantName(config.llt.kind,
                                                    config.llt.predictor)
                                      : std::move(name),
                         config, cameoDram(config)),
      controller_(
          CameoParams{config.llt.kind, config.llt.predictor,
                      config.numCores, config.llt.llpTableEntries},
          *stacked_, offchip_, config.stackedBytes / kLineBytes,
          (config.stackedBytes + config.offchipBytes) / kLineBytes),
      visibleBytes_((config.stackedBytes + config.offchipBytes -
                     lltReserveBytes(config)) /
                    kPageBytes * kPageBytes)
{
    assert(isPowerOfTwo(config.stackedBytes / kLineBytes));
    assert((config.stackedBytes + config.offchipBytes) %
               config.stackedBytes ==
           0);
}

Tick
CameoOrg::serve(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core, Fidelity fidelity)
{
    return controller_.access(now, line, is_write, pc, core, fidelity);
}

void
CameoOrg::registerOwnStats(StatRegistry &registry)
{
    controller_.registerStats(registry);
}

std::string
CameoOrg::variantName(LltKind llt, PredictorKind pred)
{
    std::string name = "CAMEO";
    if (llt != LltKind::CoLocated || pred != PredictorKind::Llp) {
        name += std::string("(") + lltKindName(llt) + "+" +
                predictorKindName(pred) + ")";
    }
    return name;
}

void
CameoOrg::save(SnapshotWriter &w) const
{
    MemoryOrganization::save(w);
    controller_.save(w);
}

void
CameoOrg::restore(SnapshotReader &r)
{
    MemoryOrganization::restore(r);
    controller_.restore(r);
}

} // namespace cameo
