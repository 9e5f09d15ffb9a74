/**
 * @file
 * perfbench: the repository benchmark's binary.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--size full|tiny]
 *
 * --trace 0 runs the timed job loop and prints the end-to-end metrics;
 * --trace 1 runs the staged replay and prints the per-layer metrics.
 * The last stdout line is one JSON object {correct, attempted, failed,
 * metrics}; the exit code is non-zero on any correctness failure.
 *
 * The binary is also its own shard worker (--worker), re-executed by
 * runShardFleet for the traced run's fleet launch.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "perfbench.hh"
#include "shard/fleet.hh"
#include "spans.hh"
#include "staged.hh"
#include "trace/trace_arena.hh"
#include "util/bitops.hh"
#include "util/env.hh"

// Weak references: non-null only when a sanitizer runtime is linked.
extern "C" void __asan_init() __attribute__((weak));
extern "C" void __tsan_init() __attribute__((weak));
extern "C" void __ubsan_handle_add_overflow() __attribute__((weak));

namespace fs = std::filesystem;
using namespace cameo;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Why this build cannot give representative timings, or nullptr. */
const char *
nonRepresentativeBuild()
{
#if CAMEO_AUDIT_ENABLED
    return "built with CAMEO_AUDIT";
#endif
#ifndef __OPTIMIZE__
    return "built without optimization";
#endif
    if (__asan_init != nullptr || __tsan_init != nullptr ||
        __ubsan_handle_add_overflow != nullptr)
        return "built with a sanitizer";
    return nullptr;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    Size size = Size::Full;

    // Worker mode.
    bool worker = false;
    std::string cacheDir;
    unsigned shards = 1;
    unsigned shardIndex = 0;
};

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    return parseUintStrict(text, out) == ParseUintStatus::Ok;
}

/** Parse argv; returns an error message, empty on success. */
std::string
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        std::uint64_t n = 0;
        if (arg == "--workload") {
            a.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            if (!parseUint(value(), a.seed))
                return "--seed needs a non-negative integer";
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseUint(value(), n) || n == 0 || n > 600)
                return "--seconds needs an integer in [1, 600]";
            a.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                return "--trace needs 0 or 1";
            a.trace = t == "1";
            have_trace = true;
        } else if (arg == "--size") {
            const std::string s = value();
            if (s != "full" && s != "tiny")
                return "--size needs full or tiny";
            a.size = s == "tiny" ? Size::Tiny : Size::Full;
        } else if (arg == "--worker") {
            a.worker = true;
        } else if (arg == "--cache-dir") {
            a.cacheDir = value();
        } else if (arg.rfind("--shards=", 0) == 0) {
            if (!parseUint(arg.substr(9), n) || n == 0 || n > 64)
                return "bad " + arg;
            a.shards = static_cast<unsigned>(n);
        } else if (arg.rfind("--shard-index=", 0) == 0) {
            if (!parseUint(arg.substr(14), n) || n >= 64)
                return "bad " + arg;
            a.shardIndex = static_cast<unsigned>(n);
        } else {
            return "unknown argument " + arg;
        }
    }
    if (!have_workload || !have_seed)
        return "--workload and --seed are required";
    if (!a.worker && (!have_seconds || !have_trace))
        return "--seconds and --trace are required";
    return "";
}

const char *
sizeName(Size size)
{
    return size == Size::Tiny ? "tiny" : "full";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Pin the calling thread to the last CPU it may run on. The vCPUs of a
 * shared host run at persistently different speeds (their hyperthread
 * siblings carry other tenants' load), so a loop the scheduler places
 * anew in every run adds that difference to the run-to-run spread.
 */
void
pinToLastCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (CPU_ISSET(c, &allowed)) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            sched_setaffinity(0, sizeof(one), &one);
            return;
        }
    }
}

/**
 * A fixed memory-bound kernel that gauges the host's current speed.
 *
 * The shared host the benchmark was tuned on changes speed by up to 2x
 * over minutes, as other tenants load the shared caches and memory.
 * That drift swamps run-to-run comparisons of raw host time. Timed just
 * before each job, this probe slows down with the host, though not
 * always by the same factor as the simulator (perfbench/METRICS.md).
 * The timed loop therefore scales every job and set-up time by
 * kReferenceSeconds / (the probe's time just before it): the time the
 * work would take on a host where the probe takes kReferenceSeconds.
 * The probe's code never changes with the simulator, so a simulator
 * speed-up shows in full.
 */
class HostProbe
{
  public:
    /**
     * A round figure within the probe's range on the shared 4-vCPU Xeon
     * VM (2 MB L2 per core) the benchmark was tuned on: 2.3-4.9 ms.
     * Only the scale of the results depends on it.
     */
    static constexpr double kReferenceSeconds = 4.5e-3;

    HostProbe() : buf_(std::size_t{1} << 22)
    {
        for (std::size_t i = 0; i < buf_.size(); ++i)
            buf_[i] = i * 0x9E3779B97F4A7C15ULL;
    }

    /** Host seconds of one timed pass. */
    double
    measure()
    {
        // An untimed sweep first puts the whole 32 MB buffer back in
        // cache, so the timed pass does not depend on what the previous
        // job evicted.
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < buf_.size(); i += 8)
            acc += buf_[i];
        const auto start = Clock::now();
        std::uint64_t x = 1;
        const std::size_t mask = buf_.size() - 1;
        for (int i = 0; i < 200'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += buf_[x & mask];
            buf_[(x >> 20) & mask] += acc;
        }
        const double seconds = secondsSince(start);
        sink_ = acc;
        return seconds;
    }

    /** @p seconds measured at probe time @p probe_s, at reference speed. */
    static double
    atReference(double seconds, double probe_s)
    {
        return seconds * kReferenceSeconds / probe_s;
    }

  private:
    std::vector<std::uint64_t> buf_;
    volatile std::uint64_t sink_ = 0;
};

/** Peak resident set of this process, MB. */
double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<SweepJob>
sweepJobs(const std::vector<JobSpec> &jobs)
{
    std::vector<SweepJob> out;
    for (const JobSpec &job : jobs) {
        out.push_back({job.label, [job] {
                           return runWorkload(job.config, job.kind,
                                              job.profile);
                       }});
    }
    return out;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** fnv1a64 of a whole file's bytes. */
std::uint64_t
fileDigest(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t h = fnv1a64("");
    char buf[1 << 16];
    while (in) {
        in.read(buf, sizeof(buf));
        h = fnv1a64(std::string_view(buf, in.gcount()), h);
    }
    return h;
}

/** One invocation's result and everything that decides `correct`. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    MetricMap metrics;

    /** Simulated output of the run, digested (see checkDigest). */
    std::string digestText;

    void
    fail(const std::string &what)
    {
        errors.push_back(what);
    }

    /** Count one job; a non-empty @p error fails it. */
    void
    job(const std::string &label, const std::string &error)
    {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            errors.push_back(label + ": " + error);
        }
    }

    bool correct() const { return errors.empty() && failed == 0; }

    void
    set(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value)) {
            fail("metric " + name + " is not finite");
            value = 0.0;
        }
        metrics[name] = {value, unit};
    }
};

/**
 * Compare this invocation's digest with the one an earlier invocation
 * of the same binary stored for the same (workload, seed, size, trace);
 * store it when there is none. Any difference is a failure.
 */
void
checkDigest(Report &rep, const Args &a, const fs::path &exe,
            const fs::path &state)
{
    const std::uint64_t digest = fnv1a64(rep.digestText);
    std::cout << "perfbench: digest workload=" << a.workload
              << " seed=" << a.seed << " size=" << sizeName(a.size)
              << " trace=" << a.trace << " fnv1a64=" << hex64(digest)
              << "\n";
    const fs::path dir = state / "digests";
    fs::create_directories(dir);
    const fs::path file =
        dir / (a.workload + "-s" + std::to_string(a.seed) + "-" +
               sizeName(a.size) + "-t" + std::to_string(a.trace) + "-" +
               hex64(fileDigest(exe)));
    std::ifstream in(file);
    std::string stored;
    if (in >> stored) {
        if (stored != hex64(digest))
            rep.fail("simulated output digest " + hex64(digest) +
                     " differs from an earlier invocation's " + stored);
        return;
    }
    const fs::path tmp = file.string() + ".tmp." + std::to_string(getpid());
    std::ofstream(tmp) << hex64(digest) << "\n";
    fs::rename(tmp, file);
}

/**
 * One runShardFleet launch of wl.jobs over the streams in @p cache_dir,
 * checked job by job against the in-process rows @p ref_rows.
 */
FleetOutcome
launchFleet(const Workload &wl, const Args &a, const fs::path &exe,
            const fs::path &cache_dir,
            const std::vector<std::string> &ref_rows, Report &rep)
{
    const unsigned shards = fleetShards();
    FleetOptions options;
    options.shards = shards;
    options.workerCommand = {exe.string(),
                             "--worker",
                             "--workload",
                             wl.name,
                             "--seed",
                             std::to_string(a.seed),
                             "--size",
                             sizeName(a.size),
                             "--cache-dir",
                             cache_dir.string(),
                             "--shards=" + std::to_string(shards)};
    FleetOutcome outcome = runShardFleet(wl.jobs.size(), options);
    for (const ShardFailure &f : outcome.failures)
        rep.fail("shard " + std::to_string(f.shard) + ": " + f.detail);
    for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
        std::string error;
        if (!outcome.present[i]) {
            error = "missing from the fleet";
        } else {
            const RunResult &r = outcome.results[i];
            error = checkInvariants(wl.jobs[i], r);
            if (error.empty() && resultRow(r) != ref_rows[i])
                error = "merged row differs from the in-process run";
        }
        rep.job(wl.jobs[i].label, error);
    }
    return outcome;
}

/** A fresh, empty trace-cache directory, set as the arena's. */
fs::path
freshCacheDir(const fs::path &work)
{
    const fs::path dir = work / "trace-cache";
    fs::remove_all(dir);
    fs::create_directories(dir);
    TraceArenaCache::instance().setCacheDir(dir.string());
    return dir;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// --- --trace 0: the timed job loop --------------------------------------

Report
timedRun(const Workload &wl, const Args &a)
{
    Report rep;
    TraceArenaCache &cache = TraceArenaCache::instance();
    pinToLastCpu();
    HostProbe probe;

    // Every round starts with a fresh set-up, so setup_s is a median
    // over set-ups spread across the whole run. Every job's time is kept
    // from every round, so accesses_per_s can take each job's median.
    // Times are kept raw and at reference host speed (HostProbe).
    std::vector<double> setup_s;
    std::vector<std::string> rows;
    std::vector<std::vector<double>> job_seconds(wl.jobs.size());
    std::vector<std::vector<double>> job_raw_seconds(wl.jobs.size());
    std::vector<std::uint64_t> job_consumed(wl.jobs.size(), 0);
    std::vector<double> probe_s;
    std::vector<double> rates;
    double construct_s = 0.0;
    double busy_s = 0.0;
    const auto start = Clock::now();
    double last_round = 0.0;
    // At least two rounds, then while another fits in --seconds. A round
    // with any failure ends the loop: the result is incorrect already.
    for (unsigned round = 0;
         round < 2 || secondsSince(start) + last_round <= a.seconds;
         ++round) {
        const auto round_start = Clock::now();
        probe_s.push_back(probe.measure());
        setup_s.push_back(HostProbe::atReference(setupStreams(wl.jobs),
                                                 probe_s.back()));
        const TraceArenaStats before = cache.stats();

        std::uint64_t consumed = 0;
        double busy = 0.0;
        for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
            probe_s.push_back(probe.measure());
            const JobOutcome o = runJob(wl.jobs[i]);
            std::string error = o.error;
            const std::string row = resultRow(o.result);
            if (round == 0)
                rows.push_back(row);
            else if (error.empty() && row != rows[i])
                error = "result differs from the first round";
            rep.job(wl.jobs[i].label, error);
            consumed += o.consumed();
            busy += o.seconds;
            construct_s += o.constructSeconds;
            job_consumed[i] = o.consumed();
            job_seconds[i].push_back(
                HostProbe::atReference(o.seconds, probe_s.back()));
            job_raw_seconds[i].push_back(o.seconds);
        }
        const TraceArenaStats after = cache.stats();
        if (after.misses != before.misses ||
            after.heatMisses != before.heatMisses)
            rep.fail("the timed loop recorded streams or page heat that "
                     "set-up did not cover");
        rates.push_back(ratio(static_cast<double>(consumed), busy));
        busy_s += busy;
        last_round = secondsSince(round_start);
        if (!rep.correct())
            break;
    }

    double consumed = 0.0;
    double seconds = 0.0;
    double raw_seconds = 0.0;
    for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
        consumed += static_cast<double>(job_consumed[i]);
        seconds += median(job_seconds[i]);
        raw_seconds += median(job_raw_seconds[i]);
    }

    rep.set("accesses_per_s", ratio(consumed, seconds), "accesses/s");
    rep.set("setup_s", median(setup_s), "s");
    rep.set("peak_rss_mb", selfPeakRssMb(), "MB");
    rep.set("ok_frac",
            static_cast<double>(rep.attempted - rep.failed) /
                static_cast<double>(std::max<std::uint64_t>(1,
                                                            rep.attempted)),
            "ratio");
    std::cout << "perfbench: jobs_per_round=" << wl.jobs.size()
              << " construct_frac=" << ratio(construct_s, busy_s)
              << " probe_ms=" << 1e3 * median(probe_s)
              << " raw_accesses_per_s=" << ratio(consumed, raw_seconds)
              << " round_raw_accesses_per_s=";
    for (std::size_t r = 0; r < rates.size(); ++r)
        std::cout << (r ? "," : "") << static_cast<std::uint64_t>(rates[r]);
    std::cout << "\n";
    for (const std::string &row : rows)
        rep.digestText += row;
    return rep;
}

// --- --trace 1: per-layer metrics ----------------------------------------

/** Exact simulated counts of the traced run's first untraced pass. */
struct Exact
{
    std::uint64_t accesses = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;
    std::uint64_t l3Writebacks = 0;
    std::uint64_t kernelSteps = 0;
    std::uint64_t dramCmds = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowOther = 0;
    std::uint64_t queueFullStalls = 0;
    std::uint64_t queuedAccesses = 0;
    std::uint64_t tlmDynAccesses = 0;
    std::uint64_t tlmDynMigrations = 0;
    std::uint64_t cameoAccesses = 0;
    std::uint64_t cameoLltLookups = 0;
    RunResult cameo; ///< CAMEO runs merged (swaps, LLP cases).
    bool haveCameo = false;
    Distribution readLatency;
    bool haveLatency = false;

    void
    add(const JobSpec &job, const RunResult &r, System &system)
    {
        accesses += r.accesses;
        majorFaults += r.majorFaults;
        l3Hits += r.l3Hits;
        l3Misses += r.l3Misses;
        kernelSteps += r.kernelSteps;
        const bool queued = job.config.timingMode == TimingMode::Queued;
        if (queued)
            queuedAccesses += r.accesses;
        if (job.kind == OrgKind::TlmDynamic) {
            tlmDynAccesses += r.accesses;
            tlmDynMigrations += r.pageMigrations;
        }
        if (job.kind == OrgKind::Cameo) {
            cameoAccesses += r.accesses;
            if (haveCameo)
                cameo.merge(r);
            else
                cameo = r;
            haveCameo = true;
        }
        const auto ends = [](const std::string &s, const char *suffix) {
            const std::size_t n = std::strlen(suffix);
            return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
        };
        for (const Counter *c : system.stats().counters()) {
            const std::string &n = c->name();
            const std::uint64_t v = c->value();
            if (n == "vm.evictions")
                evictions += v;
            else if (n == "l3.writebacks")
                l3Writebacks += v;
            else if (n == "cameo.lltLookups" && job.kind == OrgKind::Cameo)
                cameoLltLookups += v;
            else if (n.rfind("dram.", 0) != 0)
                continue;
            else if (ends(n, ".reads") || ends(n, ".writes"))
                dramCmds += v;
            else if (ends(n, ".rowHits"))
                rowHits += v;
            else if (ends(n, ".rowClosed") || ends(n, ".rowConflicts"))
                rowOther += v;
            else if (ends(n, ".queueFullStalls"))
                queueFullStalls += v;
        }
        for (const Distribution *d : system.stats().distributions()) {
            if (d->name().rfind("dram.", 0) != 0 ||
                !ends(d->name(), ".readLatency"))
                continue;
            if (!haveLatency) {
                readLatency = *d;
                haveLatency = true;
            } else if (!readLatency.merge(*d)) {
                throw std::logic_error("readLatency histograms differ");
            }
        }
    }
};

double
perKacc(std::uint64_t num, std::uint64_t accesses)
{
    return ratio(1000.0 * static_cast<double>(num),
                 static_cast<double>(accesses));
}

Report
tracedRun(const Workload &wl, const Args &a, const fs::path &exe,
          const fs::path &work, const fs::path &state)
{
    Report rep;
    TraceArenaCache &cache = TraceArenaCache::instance();
    SpanRecorder spans(fnv1a64(
        wl.name + "/" + std::to_string(a.seed) + "/" +
        std::to_string(getpid()) + "/" +
        std::to_string(Clock::now().time_since_epoch().count())));
    const std::uint64_t run_span = spans.begin("run:" + wl.name, 0);

    // trace: one set-up of every stream the run needs.
    const TraceArenaStats before = cache.stats();
    double record_s = 0.0;
    std::uint64_t records = 0;
    {
        SpanScope setup(spans, "trace.setup", run_span);
        setupStreams(wl.jobs, &record_s, &records);
    }

    // Passes, while another fits in --seconds (at least one): the
    // untraced reference run of the jobs (exact counts from the first
    // pass; later passes must repeat its results bit for bit), then the
    // staged replay. Host-time metrics are medians over passes.
    Exact exact;
    std::vector<std::string> rows;
    std::map<std::string, std::vector<double>> org_mode_rates;
    std::map<std::string, std::vector<double>> layer_ns;
    std::vector<double> untraced_pass_s;
    std::vector<double> construct_frac;
    std::vector<double> overhead;
    std::vector<double> coverage;
    TraceArenaStats after;
    const auto start = Clock::now();
    double last_pass = 0.0;
    for (unsigned p = 0;
         p == 0 || secondsSince(start) + last_pass <= a.seconds; ++p) {
        const auto pass_start = Clock::now();
        const SpanScope pass(spans, "pass:" + std::to_string(p), run_span);
        std::map<std::string, std::pair<double, double>> org_mode;
        double untraced_s = 0.0;
        double construct_s = 0.0;
        {
            const SpanScope untraced(spans, "untraced", pass.id());
            for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
                const JobSpec &job = wl.jobs[i];
                const JobOutcome o =
                    runJob(job, [&](System &s, const RunResult &r) {
                        if (p == 0)
                            exact.add(job, r, s);
                    });
                std::string error = o.error;
                const std::string row = resultRow(o.result);
                if (p == 0)
                    rows.push_back(row);
                else if (error.empty() && row != rows[i])
                    error = "result differs from the first pass";
                rep.job(job.label, error);
                auto &[consumed, seconds] =
                    org_mode[std::string(orgKindName(job.kind)) + "." +
                             timingModeName(job.config.timingMode)];
                consumed += static_cast<double>(o.consumed());
                seconds += o.seconds;
                untraced_s += o.seconds;
                construct_s += o.constructSeconds;
            }
        }
        if (p == 0)
            after = cache.stats();
        for (const auto &[name, cs] : org_mode)
            org_mode_rates[name].push_back(ratio(cs.first, cs.second));
        untraced_pass_s.push_back(untraced_s);
        construct_frac.push_back(ratio(construct_s, untraced_s));

        StagedResult staged;
        {
            const SpanScope replay(spans, "staged", pass.id());
            staged = stagedReplay(wl, spans, replay.id());
        }
        for (const auto &[name, cost] : staged.layers)
            layer_ns[name].push_back(cost.nsPerCall());
        for (const OrgKind kind : allOrgKinds()) {
            // Both timing modes together: orgs.<Org>.detailed.
            const std::string d =
                std::string("orgs.") + orgKindName(kind) + ".detailed";
            const LayerCost b = staged.layers[d + ".blocking"];
            const LayerCost q = staged.layers[d + ".queued"];
            layer_ns[d].push_back(
                ratio((b.seconds + q.seconds) * 1e9, b.calls + q.calls));
        }
        overhead.push_back(ratio(staged.jobSeconds, untraced_s));
        coverage.push_back(ratio(staged.layerSeconds, untraced_s));
        last_pass = secondsSince(pass_start);
    }
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = after.misses - before.misses;
    std::cout << "perfbench: passes=" << overhead.size() << "\n";

    // shard: one fleet launch of the jobs, its workers reading the
    // streams from a trace-cache directory, checked against the first
    // pass's in-process results.
    const fs::path cache_dir = freshCacheDir(work);
    setupStreams(wl.jobs);
    const double fleet_start = spans.now();
    const std::uint64_t fleet_span = spans.begin("shard.fleet", run_span);
    const FleetOutcome fleet = launchFleet(wl, a, exe, cache_dir, rows, rep);
    spans.end(fleet_span);
    double wall_max = 0.0;
    double wall_sum = 0.0;
    double jobs_max = 0.0;
    for (const ShardProcTelemetry &t : fleet.shards) {
        spans.add("shard.worker." + std::to_string(t.shard), fleet_span,
                  fleet_start, fleet_start + t.wallSeconds);
        wall_max = std::max(wall_max, t.wallSeconds);
        wall_sum += t.wallSeconds;
        jobs_max = std::max(jobs_max, static_cast<double>(t.jobsStreamed));
    }
    spans.end(run_span);
    const double shards = static_cast<double>(fleet.shards.size());

    const auto layer = [&](const std::string &name) {
        return median(layer_ns[name]);
    };
    rep.set("trace.record_ns", ratio(record_s * 1e9, records), "ns");
    rep.set("trace.replay_ns", layer("trace.replay"), "ns");
    rep.set("trace.arena_hit_ratio", ratio(hits, hits + misses), "ratio");
    rep.set("trace.arena_resident_mb",
            static_cast<double>(after.residentBytes) / (1 << 20), "MB");
    rep.set("vm.translate_ns", layer("vm.translate"), "ns");
    rep.set("vm.major_faults_per_kacc",
            perKacc(exact.majorFaults, exact.accesses), "1/kacc");
    rep.set("vm.evictions_per_kacc",
            perKacc(exact.evictions, exact.accesses), "1/kacc");
    rep.set("llc.access_ns", layer("llc.access"), "ns");
    rep.set("llc.miss_ratio",
            ratio(exact.l3Misses, exact.l3Hits + exact.l3Misses), "ratio");
    rep.set("llc.writebacks_per_kacc",
            perKacc(exact.l3Writebacks, exact.accesses), "1/kacc");
    for (const OrgKind kind : allOrgKinds()) {
        const std::string org = orgKindName(kind);
        const std::string p = "orgs." + org + ".";
        rep.set(p + "functional_ns", layer(p + "functional"),
                "ns");
        rep.set(p + "detailed_ns", layer(p + "detailed"), "ns");
        for (const char *mode : {"blocking", "queued"}) {
            rep.set(p + mode + ".accesses_per_s",
                    median(org_mode_rates[org + "." + mode]), "accesses/s");
        }
    }
    rep.set("orgs.TLM-Dynamic.page_migrations_per_kacc",
            perKacc(exact.tlmDynMigrations, exact.tlmDynAccesses),
            "1/kacc");
    rep.set("core.cameo.llp_accuracy", exact.cameo.llpAccuracy, "ratio");
    rep.set("core.cameo.swaps_per_kacc",
            perKacc(exact.cameo.swaps, exact.cameoAccesses), "1/kacc");
    rep.set("core.cameo.llt_lookups_per_kacc",
            perKacc(exact.cameoLltLookups, exact.cameoAccesses), "1/kacc");
    rep.set("dram.request_ns.blocking",
            layer("dram.request.blocking"), "ns");
    rep.set("dram.request_ns.queued",
            layer("dram.request.queued"), "ns");
    rep.set("dram.cmds_per_access", ratio(exact.dramCmds, exact.accesses),
            "cmds/acc");
    rep.set("dram.row_hit_ratio",
            ratio(exact.rowHits, exact.rowHits + exact.rowOther), "ratio");
    rep.set("dram.queue_full_stalls_per_kacc",
            perKacc(exact.queueFullStalls, exact.queuedAccesses), "1/kacc");
    rep.set("dram.read_latency_p50", exact.readLatency.percentile(0.50),
            "sim_cycles");
    rep.set("dram.read_latency_p99", exact.readLatency.percentile(0.99),
            "sim_cycles");
    rep.set("sim.kernel_steps_per_access",
            ratio(exact.kernelSteps, exact.accesses), "steps/acc");
    rep.set("sim.host_ns_per_step",
            ratio(median(untraced_pass_s) * 1e9, exact.kernelSteps), "ns");
    rep.set("sim.event_ns", layer("sim.event"), "ns");
    rep.set("system.construct_frac", median(construct_frac), "ratio");
    rep.set("shard.jobs_max_over_mean",
            ratio(jobs_max * shards, wl.jobs.size()), "ratio");
    rep.set("shard.wall_max_over_mean", ratio(wall_max * shards, wall_sum),
            "ratio");
    rep.set("shard.busy_frac",
            ratio(wall_sum, shards * fleet.wallSeconds), "ratio");
    rep.set("tracing.overhead", median(overhead), "ratio");
    rep.set("tracing.coverage", median(coverage), "ratio");

    // The digest covers every simulated result and exact count.
    for (const std::string &row : rows)
        rep.digestText += row;
    for (const char *name :
         {"trace.arena_hit_ratio", "trace.arena_resident_mb",
          "vm.major_faults_per_kacc", "vm.evictions_per_kacc",
          "llc.miss_ratio", "llc.writebacks_per_kacc",
          "orgs.TLM-Dynamic.page_migrations_per_kacc",
          "core.cameo.llp_accuracy", "core.cameo.swaps_per_kacc",
          "core.cameo.llt_lookups_per_kacc", "dram.cmds_per_access",
          "dram.row_hit_ratio", "dram.queue_full_stalls_per_kacc",
          "dram.read_latency_p50", "dram.read_latency_p99",
          "sim.kernel_steps_per_access", "shard.jobs_max_over_mean"}) {
        char value[48];
        std::snprintf(value, sizeof(value), "=%.17g\n",
                      rep.metrics[name].value);
        rep.digestText += name + std::string(value);
    }

    const fs::path span_dir = state / "spans";
    fs::create_directories(span_dir);
    const fs::path span_file =
        span_dir / (wl.name + "-s" + std::to_string(a.seed) + ".jsonl");
    if (!spans.write(span_file.string(),
                     "\"host\": \"" + hostContext(fleetShards()) +
                         "\", \"workload\": \"" + wl.name +
                         "\", \"seed\": " + std::to_string(a.seed)))
        rep.fail("cannot write " + span_file.string());
    std::cout << "perfbench: spans=" << spans.spans().size() << " file="
              << fs::relative(span_file).string() << "\n";
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    if (const char *why = nonRepresentativeBuild()) {
        std::cerr << "perfbench: refusing to measure: " << why << "\n";
        return 2;
    }
    Args a;
    if (const std::string err = parseArgs(argc, argv, a); !err.empty()) {
        std::cerr << "perfbench: " << err
                  << "\nusage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--size full|tiny]\n";
        return 2;
    }
    const std::optional<Workload> wl =
        makeWorkload(a.workload, a.seed, a.size);
    if (!wl) {
        std::cerr << "perfbench: unknown workload " << a.workload
                  << " (detailed-mix, functional-warmup)\n";
        return 2;
    }

    if (a.worker) {
        TraceArenaCache::instance().setCacheDir(a.cacheDir);
        return runShardWorker(sweepJobs(wl->jobs), a.shardIndex, a.shards);
    }

    const fs::path exe = fs::absolute(argv[0]);
    const fs::path state = exe.parent_path() / "state";
    const fs::path work =
        state / "work" / (a.workload + "-" + std::to_string(getpid()));
    fs::remove_all(work);
    fs::create_directories(work);

    std::cout << "perfbench: host " << hostContext(fleetShards())
              << " workload=" << a.workload << " seed=" << a.seed
              << " size=" << sizeName(a.size) << " trace=" << a.trace
              << "\n";
    Report rep = a.trace ? tracedRun(*wl, a, exe, work, state)
                         : timedRun(*wl, a);
    checkDigest(rep, a, exe, state);
    fs::remove_all(work);

    for (const std::string &e : rep.errors)
        std::cerr << "perfbench: FAIL " << e << "\n";
    std::ostringstream json;
    json << "{\"correct\": " << (rep.correct() ? "true" : "false")
         << ", \"attempted\": " << rep.attempted
         << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : rep.metrics) {
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        json << (first ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << value << ", \"unit\": \"" << m.unit
             << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return rep.correct() ? 0 : 1;
}
