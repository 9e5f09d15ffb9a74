/**
 * @file
 * Shared declarations of the repository benchmark (perfbench/).
 *
 * The benchmark measures host time per simulated access. It defines
 * two workloads (detailed-mix, functional-warmup), a timed job loop
 * for the end-to-end metrics, and a traced staged replay plus one
 * shard-fleet launch for the per-layer metrics. perfbench/METRICS.md
 * documents every metric, its unit and the end-to-end metric it moves.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "system/system.hh"
#include "util/bitops.hh"

namespace perfbench
{

/** Job sizes: Full for measurement, Tiny for the benchmark's test. */
enum class Size
{
    Full,
    Tiny,
};

/** One simulation a workload runs: an org on one trace. */
struct JobSpec
{
    std::string label; ///< "<trace>/<org>/<mode>"; shard-plan key too.
    cameo::OrgKind kind = cameo::OrgKind::Baseline;
    cameo::WorkloadProfile profile;
    cameo::SystemConfig config;
};

/** A benchmark workload, a pure function of (name, seed, size). */
struct Workload
{
    std::string name;

    /** The 10 orgs x {Blocking, Queued} jobs, in submission order. */
    std::vector<JobSpec> jobs;
};

/** The workload called @p name, or nullopt for an unknown name. */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed, Size size);

/** Worker shards for the traced run's fleet: min(4, nproc). */
unsigned fleetShards();

/** One finished (or failed) job. */
struct JobOutcome
{
    cameo::RunResult result;

    /** Host seconds of System construction plus run(). */
    double seconds = 0.0;

    /** Host seconds of System construction alone. */
    double constructSeconds = 0.0;

    /** Empty when the job ran and met its invariants. */
    std::string error;

    /** Accesses consumed: measured plus warmup. */
    std::uint64_t consumed() const
    {
        return result.accesses + result.warmupAccesses;
    }
};

/** Called with a finished job's System and result, outside the timing. */
using JobInspector =
    std::function<void(cameo::System &, const cameo::RunResult &)>;

/**
 * Build a System for @p job, run it, time construction plus run(), and
 * check the invariants.
 */
JobOutcome runJob(const JobSpec &job, const JobInspector &inspect = {});

/**
 * The per-job invariants: not truncated, every configured access
 * consumed, and the configured warmup credited. Empty when they hold.
 */
std::string checkInvariants(const JobSpec &job, const cameo::RunResult &r);

/** The deterministic CSV row of @p r (writeShardResultsCsv format). */
std::string resultRow(const cameo::RunResult &r);

/**
 * Record every stream @p jobs need into the process-wide trace arena
 * (and the TLM-Oracle page-heat profiles), after dropping whatever was
 * resident. Returns host seconds. @p record_seconds and @p records,
 * when given, receive the time spent in TraceArenaCache::acquire and
 * the number of records it recorded.
 */
double setupStreams(const std::vector<JobSpec> &jobs,
                    double *record_seconds = nullptr,
                    std::uint64_t *records = nullptr);

/** One reported metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/**
 * System's per-core stream seed (src/system/system.cc). The benchmark
 * must acquire exactly the streams System will ask for; the timed loop
 * verifies that it then records nothing.
 */
inline std::uint64_t
systemCoreSeed(std::uint64_t base, std::uint32_t core)
{
    return cameo::mix64(base + 0x517cc1b727220a95ULL * (core + 1));
}

/** System's footprint hint for TLM-Oracle's page-heat profile. */
inline std::size_t
pageHeatHint(const cameo::GeneratorParams &gp)
{
    return static_cast<std::size_t>(
        (gp.footprintBytes + gp.hotSetBytes) / cameo::kPageBytes + 2);
}

/** Host context printed with every result. */
std::string hostContext(unsigned shards);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
