#include "orgs/baseline.hh"

#include <cassert>

namespace cameo
{

BaselineOrg::BaselineOrg(const OrgConfig &config)
    : MemoryOrganization("Baseline", config,
                         {.stacked = {},
                          .stackedBytes = 0,
                          .offchipBytes = config.offchipBytes})
{
}

Tick
BaselineOrg::serve(Tick now, LineAddr line, bool is_write, InstAddr pc,
                   std::uint32_t core, Fidelity fidelity)
{
    (void)pc;
    (void)core;
    assert(line < offchip_.capacityLines());
    return charge(offchip_, fidelity, now, line, is_write, kLineBytes);
}

} // namespace cameo
