/**
 * @file
 * Switchable-fidelity warmup bench: wall-clock speedup of functional
 * fast-forward warmup over detailed warmup on a warmup-heavy sweep.
 *
 * Like perfbench, this bench measures the *simulator*, not the
 * simulated machine. Each run spends warmupAccessesPerCore warming
 * architectural state (10x the measured region by default) and then
 * simulates the measured region in detailed mode. The only variable is
 * the warmup policy: WarmupPolicy::Functional takes the no-timing fast
 * path, WarmupPolicy::Detailed runs the full timing model. Both end
 * the warmup in byte-identical architectural state (test_fidelity.cc
 * proves this per organization via snapshot identity), so the measured
 * region's statistics are equal and the wall-clock ratio is a pure
 * simulator speedup. A full-registry equality check on a small 1-core
 * run is repeated here so the committed JSON carries its own evidence.
 *
 * The default sweep is deliberately warmup-heavy and contention-heavy:
 * queued timing with 24 cores makes detailed warmup pay for queue
 * occupancy, bank conflicts, and kernel events that the functional
 * path skips, while streaming workloads keep the functional path's own
 * obligatory work (LLT swaps, LLP training, paging) honest.
 *
 * Environment:
 *   CAMEO_BENCH_ACCESSES     measured accesses per core (default 100K)
 *   CAMEO_BENCH_WARMUP       warmup accesses per core (default 1M)
 *   CAMEO_BENCH_CORES        simulated cores (default 24)
 *   CAMEO_BENCH_REPS         timed repetitions per policy; best rep
 *                            is reported (default 1)
 *   CAMEO_BENCH_WORKLOADS    comma-separated override; default
 *                            libquantum,leslie3d,lbm
 *   CAMEO_BENCH_WARMUP_OUT   output JSON path
 *                            (default BENCH_warmup.json)
 *
 * Output: a stdout table plus a JSON file with one record per
 * workload and the aggregate speedup, consumed by CI's perf-smoke
 * artifact upload and EXPERIMENTS.md's warmup section.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "exp/stopwatch.hh"
#include "system/system.hh"

namespace
{

using namespace cameo;

/** One workload's functional-vs-detailed warmup comparison. */
struct WarmupResult
{
    std::string workload;
    double functionalSeconds = 0.0;
    double detailedSeconds = 0.0;
    std::uint64_t warmupAccesses = 0;   ///< aggregate, all cores
    std::uint64_t measuredAccesses = 0; ///< aggregate, all cores

    double speedup() const
    {
        return functionalSeconds > 0.0
                   ? detailedSeconds / functionalSeconds
                   : 0.0;
    }
};

/** Best-of-reps wall-clock for one (config, workload) run. */
double
timeRuns(const SystemConfig &config, const WorkloadProfile &workload,
         std::uint64_t reps, RunResult *last)
{
    double best = 0.0;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        Stopwatch watch;
        const RunResult run = runWorkload(config, OrgKind::Cameo, workload);
        const double secs = watch.seconds();
        if (rep == 0 || secs < best)
            best = secs;
        if (last != nullptr)
            *last = run;
    }
    return best;
}

/**
 * Differential evidence for the committed JSON: a small 1-core run
 * must produce an identical stats registry (every counter and
 * distribution, timing included — the switch drains in-flight
 * transactions and resets timing in both policies) under functional
 * and detailed warmup.
 */
bool
statsEqualCheck(const SystemConfig &base, const WorkloadProfile &workload)
{
    SystemConfig small = base;
    small.numCores = 1;
    small.accessesPerCore = 3'000;
    small.warmupAccessesPerCore = 30'000;

    std::string dumps[2];
    const WarmupPolicy policies[2] = {WarmupPolicy::Functional,
                                      WarmupPolicy::Detailed};
    for (int i = 0; i < 2; ++i) {
        SystemConfig config = small;
        config.warmupPolicy = policies[i];
        System system(config, OrgKind::Cameo, workload);
        system.run();
        std::ostringstream os;
        system.stats().dumpJson(os);
        dumps[i] = os.str();
    }
    return !dumps[0].empty() && dumps[0] == dumps[1];
}

} // namespace

int
main()
{
    using namespace cameo::bench;

    SystemConfig config = benchConfig();
    config.timingMode = TimingMode::Queued;
    // Warmup-heavy defaults (10:1 warmup:measure) unless the shared
    // env overrides were given.
    if (std::getenv("CAMEO_BENCH_ACCESSES") == nullptr)
        config.accessesPerCore = 100'000;
    if (std::getenv("CAMEO_BENCH_WARMUP") == nullptr)
        config.warmupAccessesPerCore = 1'000'000;
    std::string error;
    config.numCores = 24;
    if (const auto cores = envUint("CAMEO_BENCH_CORES", &error))
        config.numCores = static_cast<std::uint32_t>(*cores);
    if (!error.empty())
        std::cerr << "warning: " << error << " (using default "
                  << config.numCores << ")\n";

    error.clear();
    std::uint64_t reps = 1;
    if (const auto v = envUint("CAMEO_BENCH_REPS", &error))
        reps = *v;
    if (!error.empty())
        std::cerr << "warning: " << error << " (using default " << reps
                  << ")\n";
    if (reps == 0)
        reps = 1;

    const char *out_env = std::getenv("CAMEO_BENCH_WARMUP_OUT");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_warmup.json";

    // Streaming, bandwidth-heavy Table-IV workloads: detailed warmup
    // pays full queued-timing freight while the functional path still
    // performs every LLT swap and page fault they generate.
    std::vector<WorkloadProfile> workloads;
    if (std::getenv("CAMEO_BENCH_WORKLOADS") != nullptr) {
        workloads = benchWorkloads();
    } else {
        for (const char *name : {"libquantum", "leslie3d", "lbm"})
            workloads.push_back(*findWorkload(name));
    }

    SystemConfig functional = config;
    functional.warmupPolicy = WarmupPolicy::Functional;
    SystemConfig detailed = config;
    detailed.warmupPolicy = WarmupPolicy::Detailed;

    std::cout << "Switchable-fidelity warmup: functional vs detailed "
                 "warmup wall-clock\n"
              << "(" << config.warmupAccessesPerCore << " warmup + "
              << config.accessesPerCore << " measured accesses x "
              << config.numCores << " cores, queued timing, CAMEO, "
              << "best of " << reps << " rep(s))\n\n";

    std::vector<WarmupResult> results;
    for (const WorkloadProfile &workload : workloads) {
        WarmupResult r;
        r.workload = workload.name;
        // Record the trace arena once (untimed) so both timed policies
        // replay the identical packed stream.
        runWorkload(functional, OrgKind::Cameo, workload);

        RunResult run;
        r.functionalSeconds = timeRuns(functional, workload, reps, &run);
        r.warmupAccesses = run.warmupAccesses;
        r.measuredAccesses = run.accesses;
        r.detailedSeconds = timeRuns(detailed, workload, reps, nullptr);

        std::printf("  %-12s functional %7.3f s  detailed %7.3f s  "
                    "speedup %5.2fx\n",
                    r.workload.c_str(), r.functionalSeconds,
                    r.detailedSeconds, r.speedup());
        std::fflush(stdout);
        results.push_back(std::move(r));
    }

    double funcTotal = 0.0;
    double detTotal = 0.0;
    for (const WarmupResult &r : results) {
        funcTotal += r.functionalSeconds;
        detTotal += r.detailedSeconds;
    }
    const double aggregate = funcTotal > 0.0 ? detTotal / funcTotal : 0.0;
    std::printf("  %-12s functional %7.3f s  detailed %7.3f s  "
                "speedup %5.2fx\n",
                "AGGREGATE", funcTotal, detTotal, aggregate);

    const bool stats_equal = statsEqualCheck(config, workloads.front());
    std::printf("\n  1-core stats identity (functional == detailed "
                "warmup): %s\n",
                stats_equal ? "PASS" : "FAIL");

    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"perf_warmup\",\n"
        << "  \"org\": \"CAMEO\",\n"
        << "  \"timing\": \"queued\",\n"
        << "  \"num_cores\": " << config.numCores << ",\n"
        << "  \"warmup_accesses_per_core\": "
        << config.warmupAccessesPerCore << ",\n"
        << "  \"measured_accesses_per_core\": " << config.accessesPerCore
        << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"stats_equal\": " << (stats_equal ? "true" : "false")
        << ",\n"
        << "  \"aggregate_speedup\": ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", aggregate);
    out << buf << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WarmupResult &r = results[i];
        char line[384];
        std::snprintf(
            line, sizeof(line),
            "    {\"workload\": \"%s\", "
            "\"warmup_accesses\": %llu, \"measured_accesses\": %llu, "
            "\"functional_seconds\": %.6f, \"detailed_seconds\": %.6f, "
            "\"speedup\": %.4f}%s\n",
            r.workload.c_str(),
            static_cast<unsigned long long>(r.warmupAccesses),
            static_cast<unsigned long long>(r.measuredAccesses),
            r.functionalSeconds, r.detailedSeconds, r.speedup(),
            i + 1 < results.size() ? "," : "");
        out << line;
    }
    out << "  ]\n}\n";
    out.close();
    std::cout << "\nwrote " << out_path << "\n";
    return out.good() && stats_equal ? 0 : 1;
}
