/**
 * @file
 * Workload definitions, job execution and the per-job invariants.
 */

#include <algorithm>
#include <chrono>
#include <exception>
#include <set>
#include <sstream>
#include <thread>

#include "perfbench.hh"
#include "shard/fleet.hh"
#include "trace/trace_arena.hh"

namespace perfbench
{

using namespace cameo;

namespace
{

/** Per-core accesses of each workload at each size. */
struct Sizing
{
    std::uint64_t accessesPerCore;
    std::uint64_t warmupPerCore;
};

Sizing
sizingOf(const std::string &workload, Size size)
{
    const bool tiny = size == Size::Tiny;
    if (workload == "functional-warmup") {
        // Nine tenths of each stream is functional warmup.
        return tiny ? Sizing{500, 4'500} : Sizing{5'000, 45'000};
    }
    return tiny ? Sizing{2'000, 0} : Sizing{50'000, 0};
}

const WorkloadProfile &
profileNamed(const char *name)
{
    const WorkloadProfile *p = findWorkload(name);
    if (p == nullptr)
        throw std::logic_error(std::string("unknown trace ") + name);
    return *p;
}

std::string
labelOf(const WorkloadProfile &p, OrgKind kind, TimingMode mode)
{
    return p.name + "/" + orgKindName(kind) + "/" + timingModeName(mode);
}

/**
 * Every org x {Blocking, Queued} on each trace, trace-major: the job
 * list of both workloads.
 */
std::vector<JobSpec>
orgMatrix(const std::vector<const char *> &traces,
          const SystemConfig &base)
{
    std::vector<JobSpec> jobs;
    for (const char *trace : traces) {
        const WorkloadProfile &p = profileNamed(trace);
        for (const OrgKind kind : allOrgKinds()) {
            for (const TimingMode mode :
                 {TimingMode::Blocking, TimingMode::Queued}) {
                JobSpec job{labelOf(p, kind, mode), kind, p, base};
                job.config.timingMode = mode;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

} // namespace

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Size size)
{
    if (name != "detailed-mix" && name != "functional-warmup")
        return std::nullopt;

    const Sizing sizing = sizingOf(name, size);
    SystemConfig base = defaultConfig();
    base.seed = seed;
    base.accessesPerCore = sizing.accessesPerCore;
    base.warmupAccessesPerCore = sizing.warmupPerCore;
    if (sizing.warmupPerCore > 0)
        base.warmupPolicy = WarmupPolicy::Functional;
    base.useTraceArena = true;
    return Workload{name, orgMatrix({"mcf", "lbm"}, base)};
}

unsigned
fleetShards()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::string
checkInvariants(const JobSpec &job, const RunResult &r)
{
    const SystemConfig &c = job.config;
    const std::uint64_t expected = c.numCores * c.accessesPerCore;
    const std::uint64_t expected_warmup =
        c.warmupPolicy == WarmupPolicy::Skip
            ? 0
            : c.numCores * c.warmupAccessesPerCore;
    std::ostringstream err;
    if (r.truncated)
        err << "truncated run; ";
    if (r.accesses != expected)
        err << "consumed " << r.accesses << " accesses, expected "
            << expected << "; ";
    if (r.warmupAccesses != expected_warmup)
        err << "warmed " << r.warmupAccesses << " accesses, expected "
            << expected_warmup << "; ";
    return err.str();
}

JobOutcome
runJob(const JobSpec &job, const JobInspector &inspect)
{
    JobOutcome out;
    const auto start = std::chrono::steady_clock::now();
    try {
        System system(job.config, job.kind, job.profile);
        out.constructSeconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        out.result = system.run();
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        if (inspect)
            inspect(system, out.result);
    } catch (const std::exception &e) {
        out.error = std::string("threw: ") + e.what();
        return out;
    }
    out.error = checkInvariants(job, out.result);
    return out;
}

std::string
resultRow(const RunResult &r)
{
    std::ostringstream csv;
    writeShardResultsCsv(csv, {r});
    const std::string text = csv.str();
    // Drop the header line; the row is what differs between results.
    return text.substr(text.find('\n') + 1);
}

double
setupStreams(const std::vector<JobSpec> &jobs, double *record_seconds,
             std::uint64_t *records)
{
    using clock = std::chrono::steady_clock;
    TraceArenaCache &cache = TraceArenaCache::instance();
    const auto start = clock::now();
    cache.clear();

    double acquire_s = 0.0;
    std::uint64_t recorded = 0;
    std::set<std::string> streams;
    std::set<std::string> heats;
    for (const JobSpec &job : jobs) {
        const SystemConfig &c = job.config;
        const GeneratorParams gp = c.generatorParamsFor(job.profile);
        const std::uint64_t count =
            c.warmupAccessesPerCore + c.accessesPerCore;
        for (std::uint32_t core = 0; core < c.numCores; ++core) {
            const std::uint64_t seed = systemCoreSeed(c.seed, core);
            const std::string key =
                TraceArenaCache::keyOf(job.profile, gp, seed, count);
            if (streams.insert(key).second) {
                const auto t0 = clock::now();
                cache.acquire(job.profile, gp, seed, count);
                acquire_s += std::chrono::duration<double>(
                                 clock::now() - t0)
                                 .count();
                recorded += count;
            }
            // TLM-Oracle's page-heat pre-pass, with System's hint.
            if (job.kind == OrgKind::TlmOracle &&
                heats.insert(key + "/" +
                             std::to_string(c.accessesPerCore))
                    .second) {
                cache.pageHeat(job.profile, gp, seed, count,
                               c.warmupAccessesPerCore,
                               c.accessesPerCore, pageHeatHint(gp));
            }
        }
    }
    if (record_seconds != nullptr)
        *record_seconds = acquire_s;
    if (records != nullptr)
        *records = recorded;
    return std::chrono::duration<double>(clock::now() - start).count();
}

std::string
hostContext(unsigned shards)
{
    std::ostringstream os;
    os << "nproc=" << std::thread::hardware_concurrency()
       << " compiler=" << PERFBENCH_COMPILER
       << " build_type=" << PERFBENCH_BUILD_TYPE << " shards=" << shards;
    return os.str();
}

} // namespace perfbench
