/**
 * @file
 * cameo_sim: the command-line entry point for one-off simulations —
 * the tool a downstream user reaches for first.
 *
 *   cameo_sim --org=cameo --workload=milc
 *   cameo_sim --org=cache --workload=mcf --accesses=100000 --json
 *   cameo_sim --org=cameo --llt=embedded --predictor=sam --dump-stats
 *   cameo_sim --list
 *
 * Flags:
 *   --org         any name from --list-orgs, matched case-
 *                 insensitively: baseline|cache|tlm-static|
 *                 tlm-dynamic|tlm-freq|tlm-oracle|doubleuse|cameo|
 *                 cameo-freq|banshee                      (default cameo)
 *   --workload    Table II benchmark name                  (default milc)
 *   --accesses    L3-level accesses per core               (default 200000)
 *   --max-steps   kernel step limit, 0 = unlimited         (default 0)
 *   --cores       number of cores                          (default 8)
 *   --stacked-mb  stacked DRAM capacity in MB              (default 8)
 *   --offchip-mb  off-chip DRAM capacity in MB             (default 24)
 *   --seed        RNG seed                                 (default 42)
 *   --llt         ideal|embedded|colocated                 (default colocated)
 *   --predictor   sam|llp|perfect                          (default llp)
 *   --llp-entries LLR entries per core                     (default 256)
 *   --timing      blocking|queued memory pipeline           (default blocking)
 *   --warmup      accesses per core consumed before measurement, in
 *                 addition to --accesses; what they do is set by
 *                 --fidelity. Must be < --accesses           (default 0)
 *   --fidelity    what the warmup prefix does (DESIGN.md §13):
 *                 skip       fast-forward the trace cursor only
 *                 functional replay through the functional access path
 *                            (exact architectural state, no timing),
 *                            then switch to detailed measurement
 *                 detailed   full-timing warmup, timing reset at the
 *                            switch (the slow reference)
 *                                                           (default skip)
 *   --switch-at   carve the first N accesses per core out of --accesses
 *                 as warmup (so the total trace length is unchanged) and
 *                 switch fidelity there; implies --fidelity=functional
 *                 unless --fidelity says otherwise. Mutually exclusive
 *                 with --warmup; must leave at least one measured
 *                 access                                     (default 0 = off)
 *   --checkpoint-at  pause after this many aggregate accesses (summed
 *                 over cores), snapshot the full simulation state to
 *                 --checkpoint-out, then continue to completion
 *                                                           (default 0 = off)
 *   --checkpoint-out snapshot path for --checkpoint-at (default cameo.snap)
 *   --restore     restore a snapshot before running: the run resumes
 *                 where the checkpoint paused and finishes bit-identical
 *                 to the uninterrupted run. The configuration must match
 *                 the snapshot's (--accesses may be larger, enabling
 *                 warm-started extensions; --warmup must be the value
 *                 the snapshotted run used — the restored trace cursor
 *                 already sits past warmup + processed records)
 *   --refresh     model DRAM refresh (tREFI 7.8us, tRFC 350ns)
 *   --baseline    also run the baseline and report speedup
 *   --jobs        sweep-engine worker threads (0 = auto; also
 *                 CAMEO_BENCH_JOBS). With --baseline the two runs
 *                 execute concurrently.
 *   --trace-cache-dir  persist recorded access streams as packed trace
 *                 files in this directory and mmap them back on later
 *                 runs (also CAMEO_TRACE_CACHE_DIR). Implies the trace
 *                 arena. Stale files are detected by an embedded key
 *                 and re-recorded, never silently replayed.
 *   --no-arena    never route streams through the trace-arena cache
 *                 (it is used automatically when this invocation would
 *                 generate the same stream twice, i.e. --baseline)
 *   --dump-stats  print the full statistics registry
 *   --json        machine-readable stats (implies --dump-stats)
 *   --csv         CSV stats with percentiles (implies --dump-stats)
 *   --list        list workloads and exit
 *   --list-orgs   list organizations with their composed mapping and
 *                 placement policies (DESIGN.md §14) and exit
 */

#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep.hh"
#include "system/system.hh"
#include "trace/trace_arena.hh"
#include "trace/workloads.hh"
#include "util/cli.hh"

namespace
{

using namespace cameo;

} // namespace

int
main(int argc, char **argv)
{
    const CliParser cli(argc, argv);

    if (cli.getBool("list")) {
        for (const auto &wl : allWorkloads()) {
            std::cout << wl.name << " (" << categoryName(wl.category)
                      << ", " << wl.paperFootprintGb << " GB, MPKI "
                      << wl.paperMpki << ")\n";
        }
        return EXIT_SUCCESS;
    }

    if (cli.getBool("list-orgs")) {
        for (const OrgKind k : allOrgKinds()) {
            const OrgComposition comp = orgComposition(k);
            std::cout << orgKindName(k) << " (mapping: " << comp.mapping
                      << ", placement: " << comp.placement << ")\n";
        }
        return EXIT_SUCCESS;
    }

    const std::string org_name = cli.getString("org", "cameo");
    const std::optional<OrgKind> parsed = orgKindFromName(org_name);
    if (!parsed) {
        std::cerr << "unknown --org \"" << org_name << "\"; valid names:";
        for (const OrgKind k : allOrgKinds())
            std::cerr << ' ' << orgKindName(k);
        std::cerr << " (see --list-orgs)\n";
        return EXIT_FAILURE;
    }
    const OrgKind kind = *parsed;
    const WorkloadProfile *profile =
        findWorkload(cli.getString("workload", "milc"));
    if (profile == nullptr) {
        std::cerr << "unknown --workload (try --list)\n";
        return EXIT_FAILURE;
    }

    SystemConfig config = defaultConfig();
    config.accessesPerCore = cli.getUint("accesses", 200'000);
    config.maxKernelSteps = cli.getUint("max-steps", 0);
    config.numCores =
        static_cast<std::uint32_t>(cli.getUint("cores", config.numCores));
    config.stackedBytes = cli.getUint("stacked-mb", 8) << 20;
    config.offchipBytes = cli.getUint("offchip-mb", 24) << 20;
    config.seed = cli.getUint("seed", config.seed);
    config.llpTableEntries = static_cast<std::uint32_t>(
        cli.getUint("llp-entries", config.llpTableEntries));

    const std::string llt = cli.getString("llt", "colocated");
    if (llt == "ideal")
        config.lltKind = LltKind::Ideal;
    else if (llt == "embedded")
        config.lltKind = LltKind::Embedded;
    else if (llt == "colocated")
        config.lltKind = LltKind::CoLocated;
    else {
        std::cerr << "unknown --llt\n";
        return EXIT_FAILURE;
    }

    const std::string pred = cli.getString("predictor", "llp");
    if (pred == "sam")
        config.predictorKind = PredictorKind::Sam;
    else if (pred == "llp")
        config.predictorKind = PredictorKind::Llp;
    else if (pred == "perfect")
        config.predictorKind = PredictorKind::Perfect;
    else {
        std::cerr << "unknown --predictor\n";
        return EXIT_FAILURE;
    }

    const std::string timing = cli.getString("timing", "blocking");
    if (timing == "blocking")
        config.timingMode = TimingMode::Blocking;
    else if (timing == "queued")
        config.timingMode = TimingMode::Queued;
    else {
        std::cerr << "unknown --timing (blocking|queued)\n";
        return EXIT_FAILURE;
    }

    if (cli.getBool("refresh")) {
        // DDR3-class refresh: tREFI 7.8us, tRFC ~350ns in bus cycles.
        config.offchip.tRefi = 6240; // 7.8us @ 800MHz
        config.offchip.tRfc = 280;   // 350ns @ 800MHz
        config.stacked.tRefi = 12480; // 7.8us @ 1.6GHz
        config.stacked.tRfc = 560;
    }

    config.warmupAccessesPerCore = cli.getUint("warmup", 0);
    if (config.warmupAccessesPerCore != 0 &&
        config.warmupAccessesPerCore >= config.accessesPerCore) {
        std::cerr << "error: --warmup=" << config.warmupAccessesPerCore
                  << " must be smaller than --accesses="
                  << config.accessesPerCore
                  << " (warmup may not swallow the measured region)\n";
        return EXIT_FAILURE;
    }

    const std::string fidelity = cli.getString("fidelity", "");
    if (!fidelity.empty()) {
        if (fidelity == "skip")
            config.warmupPolicy = WarmupPolicy::Skip;
        else if (fidelity == "functional")
            config.warmupPolicy = WarmupPolicy::Functional;
        else if (fidelity == "detailed")
            config.warmupPolicy = WarmupPolicy::Detailed;
        else {
            std::cerr << "error: unknown --fidelity '" << fidelity
                      << "' (skip|functional|detailed)\n";
            return EXIT_FAILURE;
        }
    }

    const std::uint64_t switch_at = cli.getUint("switch-at", 0);
    if (switch_at != 0) {
        if (config.warmupAccessesPerCore != 0) {
            std::cerr << "error: --switch-at and --warmup are mutually "
                         "exclusive (--switch-at carves the warmup out "
                         "of --accesses, --warmup prepends records)\n";
            return EXIT_FAILURE;
        }
        if (switch_at >= config.accessesPerCore) {
            std::cerr << "error: --switch-at=" << switch_at
                      << " is past the end of the run (--accesses="
                      << config.accessesPerCore
                      << "); it must leave at least one measured "
                         "access\n";
            return EXIT_FAILURE;
        }
        config.warmupAccessesPerCore = switch_at;
        config.accessesPerCore -= switch_at;
        if (fidelity.empty())
            config.warmupPolicy = WarmupPolicy::Functional;
    }

    const std::uint64_t checkpoint_at = cli.getUint("checkpoint-at", 0);
    const std::string checkpoint_out =
        cli.getString("checkpoint-out", "cameo.snap");
    const std::string restore_path = cli.getString("restore", "");

    const bool want_baseline = cli.getBool("baseline");

    // Arena policy: replaying from the arena only pays off when the
    // same stream is consumed more than once — a --baseline comparison
    // does, and a persistent cache directory makes every later
    // invocation a consumer too.
    const std::string cache_dir = cli.getString("trace-cache-dir", "");
    if (!cache_dir.empty())
        TraceArenaCache::instance().setCacheDir(cache_dir);
    config.useTraceArena =
        (want_baseline || !cache_dir.empty()) && !cli.getBool("no-arena");

    const bool json = cli.getBool("json");
    const bool csv = cli.getBool("csv");
    const bool dump = cli.getBool("dump-stats") || json || csv;
    const unsigned jobs =
        static_cast<unsigned>(cli.getUint("jobs", want_baseline ? 0 : 1));

    for (const std::string &flag : cli.unknownFlags())
        std::cerr << "warning: unknown flag --" << flag << "\n";
    for (const std::string &err : cli.errors())
        std::cerr << "error: " << err << "\n";
    if (!cli.errors().empty())
        return EXIT_FAILURE;

    // Reject a design point no organization can be built from before
    // anything runs.
    std::vector<OrgKind> to_build = {kind};
    if (want_baseline)
        to_build.push_back(OrgKind::Baseline);
    for (const OrgKind k : to_build) {
        if (const char *err = orgConfigError(k, config.orgConfig())) {
            std::cerr << "error: " << orgKindName(k) << ": " << err << "\n";
            return EXIT_FAILURE;
        }
    }

    // Both runs go through the sweep engine; with --baseline and
    // --jobs >= 2 (or auto) they execute concurrently. The System of
    // the main run outlives the sweep so --dump-stats can read its
    // registry.
    std::unique_ptr<System> main_system;
    std::vector<SweepJob> sweep_jobs;
    if (want_baseline) {
        sweep_jobs.push_back({"baseline", [&config, profile] {
                                  return runWorkload(
                                      config, OrgKind::Baseline, *profile);
                              }});
    }
    sweep_jobs.push_back(
        {cli.getString("org", "cameo"), [&] {
             main_system = std::make_unique<System>(config, kind, *profile);
             if (!restore_path.empty()) {
                 std::string err;
                 if (!main_system->restoreSnapshot(restore_path, &err))
                     throw std::runtime_error("--restore failed: " + err);
             }
             if (checkpoint_at != 0) {
                 main_system->runUntil(checkpoint_at);
                 std::string err;
                 if (!main_system->saveSnapshot(checkpoint_out, &err))
                     throw std::runtime_error("--checkpoint-out failed: " +
                                              err);
                 std::cerr << "checkpoint written to " << checkpoint_out
                           << " at " << main_system->totalAccesses()
                           << " accesses\n";
             }
             return main_system->run();
         }});

    SweepOptions sweep_options;
    sweep_options.jobs = jobs;
    const std::vector<RunResult> sweep_results =
        SweepRunner(sweep_options).run(std::move(sweep_jobs));

    const RunResult base =
        want_baseline ? sweep_results.front() : RunResult{};
    const RunResult r = sweep_results.back();
    System &system = *main_system;

    if (r.truncated) {
        std::cerr << "warning: run truncated at --max-steps="
                  << config.maxKernelSteps << " (" << r.kernelSteps
                  << " steps executed); execTime and all statistics "
                     "understate the full run\n";
    }

    if (json) {
        system.stats().dumpJson(std::cout);
    } else if (csv) {
        system.stats().dumpCsv(std::cout);
    } else {
        std::cout << r.orgName << " / " << r.workload << ": execTime="
                  << r.execTime << " cycles, MPKI=" << r.mpki()
                  << ", majorFaults=" << r.majorFaults;
        if (r.servicedStacked + r.servicedOffchip > 0) {
            std::cout << ", stackedService="
                      << 100.0 * r.stackedServiceFraction()
                      << "%, llpAccuracy=" << 100.0 * r.llpAccuracy
                      << "%";
        }
        if (want_baseline) {
            std::cout << ", speedup="
                      << static_cast<double>(base.execTime) /
                             static_cast<double>(r.execTime);
        }
        std::cout << "\n";
        if (dump)
            system.stats().dump(std::cout);
    }
    return EXIT_SUCCESS;
}
