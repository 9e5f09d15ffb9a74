#include "system/config.hh"

#include <algorithm>
#include <cmath>

namespace cameo
{

GeneratorParams
SystemConfig::generatorParamsFor(const WorkloadProfile &profile) const
{
    GeneratorParams params;

    // Table II footprints are aggregate over all rate-mode copies;
    // scale to this system and split across cores.
    const double paper_bytes = profile.paperFootprintGb * (1ull << 30);
    const double scaled = paper_bytes / scaleFactor / numCores;
    params.footprintBytes = std::max<std::uint64_t>(
        2 * kPageBytes, static_cast<std::uint64_t>(scaled));

    // The hot set models the cache-resident fraction: size it to this
    // core's fair share of the L3 (half, to survive conflict).
    params.hotSetBytes = std::max<std::uint64_t>(
        kPageBytes,
        std::min<std::uint64_t>(l3Bytes / numCores / 2,
                                params.footprintBytes / 2));

    // Target MPKI: misses come from the non-hot fraction of accesses,
    // so gap = 1000 * (1 - hotFrac) / MPKI instructions per access.
    const double miss_frac =
        std::clamp(1.0 - profile.hotFrac, 0.05, 1.0);
    params.gapMeanInstructions =
        std::max(1.0, 1000.0 * miss_frac / profile.paperMpki);
    return params;
}

OrgConfig
SystemConfig::orgConfig() const
{
    OrgConfig oc;
    oc.stackedBytes = stackedBytes;
    oc.offchipBytes = offchipBytes;
    oc.stacked = stacked;
    oc.offchip = offchip;
    oc.numCores = numCores;
    oc.seed = seed;
    oc.llt.kind = lltKind;
    oc.llt.predictor = predictorKind;
    oc.llt.llpTableEntries = llpTableEntries;
    oc.freq.epochAccesses = freqEpochAccesses;
    oc.migrate.victimProbes = tlmVictimProbes;
    oc.migrate.migrateThreshold = tlmMigrateThreshold;
    oc.banshee.sampleRate = bansheeSampleRate;
    oc.banshee.hotThreshold = bansheeHotThreshold;
    oc.banshee.pteCacheEntries = bansheePteCacheEntries;
    oc.timingMode = timingMode;
    oc.queues = dramQueues;
    return oc;
}

SystemConfig
defaultConfig()
{
    SystemConfig c;
    c.numCores = 8;
    c.scaleFactor = 512.0;
    c.stackedBytes = 4ull << 30 >> 9;  // 4GB / 512 = 8MB
    c.offchipBytes = 12ull << 30 >> 9; // 12GB / 512 = 24MB
    c.l3Bytes = 32ull << 20 >> 9;      // 32MB / 512 = 64KB
    c.l3Ways = 16;
    c.l3HitLatency = 24;
    c.accessesPerCore = 200'000;
    // The paper runs 32 cores against 16 stacked / 8 off-chip channels
    // (4 cores per off-chip channel — a bandwidth-saturated baseline,
    // which is what makes the 8x-bandwidth stacked DRAM matter). At 8
    // cores we scale the channel counts by the same factor to keep the
    // cores-per-channel ratio, and with it the saturation regime. Bank
    // parallelism per channel does not shrink with the machine (ranks
    // multiply the per-channel bank count), so we raise banksPerChannel
    // to keep the bus — not bank conflicts — the off-chip bottleneck,
    // as in the paper's premise.
    c.stacked.channels = 4;
    c.stacked.banksPerChannel = 32;
    c.offchip.channels = 2;
    c.offchip.banksPerChannel = 64;
    return c;
}

SystemConfig
paperConfig()
{
    SystemConfig c;
    c.numCores = 32;
    c.scaleFactor = 1.0;
    c.stackedBytes = 4ull << 30;
    c.offchipBytes = 12ull << 30;
    c.l3Bytes = 32ull << 20;
    c.l3Ways = 16;
    c.l3HitLatency = 24;
    c.accessesPerCore = 20'000'000'000ull / 32; // 20B instructions
    return c;
}

SystemConfig
tinyConfig()
{
    SystemConfig c;
    c.numCores = 2;
    c.scaleFactor = 16384.0;
    c.stackedBytes = 256 << 10; // 256KB
    c.offchipBytes = 768 << 10; // 768KB
    c.l3Bytes = 16 << 10;       // 16KB
    c.l3Ways = 8;
    c.l3HitLatency = 24;
    c.accessesPerCore = 20'000;
    c.freqEpochAccesses = 4096;
    // 2 cores: keep the paper's 4-cores-per-off-chip-channel ratio as
    // closely as the minimum of one channel allows.
    c.stacked.channels = 2;
    c.stacked.banksPerChannel = 32;
    c.offchip.channels = 1;
    c.offchip.banksPerChannel = 32;
    return c;
}

} // namespace cameo
