/**
 * @file
 * SystemConfig: every knob of a simulated system, with presets.
 *
 * The paper's system (Table I) is 32 cores, 4GB stacked + 12GB off-chip
 * DRAM, and a 32MB L3. Simulating 20 billion instructions against
 * gigabytes of memory is a cluster job; CAMEO's trade-offs, however,
 * are set by *ratios* (stacked : total capacity, footprint : capacity,
 * line : page granularity), so the default preset scales every capacity
 * down by kDefaultScale while preserving all ratios and using the exact
 * Table I timing parameters. paperConfig() builds the full-size
 * configuration for capacity-math tests; tinyConfig() is for unit
 * tests.
 */

#ifndef CAMEO_SYSTEM_CONFIG_HH
#define CAMEO_SYSTEM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "dram/timings.hh"
#include "orgs/memory_organization.hh"
#include "sim/fidelity.hh"
#include "trace/access_source.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"
#include "util/types.hh"

namespace cameo
{

/** Full description of one simulated system. */
struct SystemConfig
{
    // --- Processor ---------------------------------------------------
    std::uint32_t numCores = 8;

    /** Cycles per non-memory instruction (2-wide core: 0.5). */
    double cyclesPerInstruction = 0.5;

    /** Cap on outstanding L3 misses per core (profile.mlp also caps). */
    std::uint32_t maxMlp = 8;

    // --- Last-level cache (Table I, scaled) --------------------------
    std::uint64_t l3Bytes = 64 << 10;
    std::uint32_t l3Ways = 16;

    /** L3 load-to-use latency; misses leave for memory after this. */
    Tick l3HitLatency = 24;

    /**
     * Effective core stall per L3 *hit*: an out-of-order core hides
     * most of the pipelined 24-cycle L3 latency, so hits charge only
     * this residue. Misses still pay the full lookup before memory.
     */
    Tick l3HitStall = 6;

    // --- Memories (Table I, scaled) ----------------------------------
    std::uint64_t stackedBytes = 8ull << 20;
    std::uint64_t offchipBytes = 24ull << 20;
    DramTimings stacked = stackedTimings();
    DramTimings offchip = offchipTimings();

    // --- Storage -----------------------------------------------------
    Tick pageFaultLatency = 100'000;

    // --- Memory pipeline ---------------------------------------------
    /**
     * Timing mode for the memory pipeline (DESIGN.md §9): Blocking is
     * the original synchronous model (bit-identical statistics);
     * Queued models DRAM controller queues and event-delivered miss
     * completions, i.e. real queuing contention.
     */
    TimingMode timingMode = TimingMode::Blocking;

    /** DRAM controller queue geometry (Queued timing only). */
    DramQueueConfig dramQueues;

    // --- CAMEO / TLM design points -----------------------------------
    LltKind lltKind = LltKind::CoLocated;
    PredictorKind predictorKind = PredictorKind::Llp;
    std::uint32_t llpTableEntries = 256;
    std::uint64_t freqEpochAccesses = 64 * 1024;
    std::uint32_t tlmVictimProbes = 8;
    std::uint32_t tlmMigrateThreshold = 2;
    std::uint32_t bansheeSampleRate = 32;
    std::uint32_t bansheeHotThreshold = 2;
    std::uint32_t bansheePteCacheEntries = 128;

    // --- Workload ------------------------------------------------------
    /** Capacity scale factor versus the paper's 16GB system. */
    double scaleFactor = 512.0;

    /** Trace length per core (L3-level accesses). */
    std::uint64_t accessesPerCore = 200'000;

    /**
     * Accesses per core consumed before measurement starts: each
     * core's source is fast-forwarded this far (AccessSource::skip)
     * before simulation, so caches and predictors see a stream that
     * is already past its cold start. 0 (the default, and the golden
     * configuration) measures from the first record.
     */
    std::uint64_t warmupAccessesPerCore = 0;

    /**
     * What the warmup prefix does (DESIGN.md §13). Skip fast-forwards
     * the trace cursor only (state stays cold; the golden
     * configuration). Functional replays the warmup records through
     * the functional access path — exact architectural state, no
     * timing — then switches to detailed mode for the measured region.
     * Detailed runs the warmup through the full timing model and
     * resets timing state at the switch; it is the (slow) reference
     * the functional path is differentially tested against. Ignored
     * when warmupAccessesPerCore is 0.
     */
    WarmupPolicy warmupPolicy = WarmupPolicy::Skip;

    /**
     * Records fetched per core per refill in the functional warmup
     * loop (clamped to [1, 4096]). Purely a host-efficiency knob: the
     * warmup interleaves cores record-by-record regardless, so results
     * are invariant to the batch size (proven in test_fidelity.cc).
     */
    std::uint32_t functionalRefillBatch = 1024;

    /**
     * Route access streams through the process-wide TraceArenaCache
     * (trace/trace_arena.hh): the first run for a (profile, params,
     * seed) records the stream once into a packed arena, every later
     * run replays it. Replay is bit-identical to fresh generation, so
     * results do not change — only redundant generator work goes away.
     * Ignored when sourceFactory is set or the cache is disabled
     * (CAMEO_TRACE_ARENA_MB=0). Off by default so single-run tools and
     * tests pay no cache residency; sweeps turn it on (SweepOptions).
     */
    bool useTraceArena = false;

    /**
     * Runaway guard for the simulation kernel: maximum agent steps per
     * run (0 = unlimited). A run that hits the limit is reported as
     * truncated in RunResult — its execution time understates reality.
     */
    std::uint64_t maxKernelSteps = 0;

    std::uint64_t seed = 42;

    /**
     * Optional access-source factory. When set, System builds each
     * core's stream from it (e.g. TraceReader replay of recorded or
     * externally produced traces) instead of the synthetic generator.
     * Called once per core with (core id, profile, scaled params,
     * per-core seed); must also be usable for TLM-Oracle's profiling
     * pre-pass, i.e. repeated calls with the same arguments must yield
     * streams with identical page-visit statistics.
     */
    using SourceFactory = std::function<std::unique_ptr<AccessSource>(
        std::uint32_t core, const WorkloadProfile &profile,
        const GeneratorParams &params, std::uint64_t seed)>;
    SourceFactory sourceFactory;

    /** Derive per-core generator knobs for @p profile. */
    GeneratorParams generatorParamsFor(const WorkloadProfile &profile) const;

    /**
     * Organization-construction view of this config. Not validated
     * here: makeOrganization() rejects a bad design point, and front
     * ends check orgConfigError() before running.
     */
    OrgConfig orgConfig() const;

    /** Total OS-visible capacity when stacked DRAM counts (TLM/CAMEO). */
    std::uint64_t totalMemoryBytes() const
    {
        return stackedBytes + offchipBytes;
    }
};

/** Default scaled configuration (1/512 of Table I capacities). */
SystemConfig defaultConfig();

/** Full-size Table I configuration (capacity math / documentation). */
SystemConfig paperConfig();

/** Very small configuration for fast unit tests. */
SystemConfig tinyConfig();

} // namespace cameo

#endif // CAMEO_SYSTEM_CONFIG_HH
