/**
 * @file
 * Cross-process shard fleet: spawn N worker processes, stream framed
 * results back over pipes, and merge them deterministically.
 *
 * The fleet extends the sweep engine's submission-order determinism
 * (exp/sweep.hh) across process boundaries. The orchestrator spawns
 * one worker per shard — the worker command is the caller's own
 * binary in worker mode, told its slot with an appended
 * --shard-index=i — and each worker independently computes the same
 * ShardPlan (exp/shard_plan.hh), runs its assigned jobs in global
 * submission order, and streams one versioned result frame
 * (exp/result_frame.hh) per finished job over its pipe, followed by a
 * Done marker. The orchestrator's single-threaded select() loop
 * reassembles frames (snapshot/frame.hh) from arbitrarily interleaved
 * chunks and stores each result by its *global submission index*, so
 * the merged result vector — and any output derived from it — is
 * byte-identical to the single-process sweep at any shard count and
 * any completion interleaving (DESIGN.md §15).
 *
 * Failure semantics: a worker that exits nonzero, dies on a signal, or
 * closes its pipe before its Done marker yields ShardFailure entries
 * and missing job indices in the FleetOutcome; callers must treat
 * !ok() as fatal (nonzero exit) and never publish partial merges.
 *
 * Wall-clock telemetry (per-shard and fleet-wide) comes from
 * exp/stopwatch — the one sanctioned host clock — and never enters
 * deterministic output.
 */

#ifndef CAMEO_SHARD_FLEET_HH
#define CAMEO_SHARD_FLEET_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exp/progress.hh"
#include "exp/sweep.hh"

namespace cameo
{

/** Env var naming the fd a worker writes result frames to. */
inline constexpr const char *kShardResultFdEnv =
    "CAMEO_SHARD_RESULT_FD";

/** One worker process's failure, for the roster. */
struct ShardFailure
{
    unsigned shard = 0;

    /** Exit code when the worker exited; -1 when killed by signal. */
    int exitCode = -1;

    /** Terminating signal; 0 when the worker exited. */
    int termSignal = 0;

    std::string detail;
};

/** Per-worker stream accounting. */
struct ShardProcTelemetry
{
    unsigned shard = 0;
    std::uint64_t jobsStreamed = 0;
    bool doneSeen = false;

    /** Spawn-to-EOF wall time of this worker (host telemetry). */
    double wallSeconds = 0.0;
};

/** Knobs for one fleet launch. */
struct FleetOptions
{
    /** Worker process count (>= 1). */
    unsigned shards = 1;

    /**
     * Worker argv (argv[0] = executable path). The fleet appends
     * --shard-index=<i> for slot i; the command must already carry
     * everything else the worker needs to rebuild the job list
     * (typically the orchestrator's own argv plus --worker and
     * --shards=<n>).
     */
    std::vector<std::string> workerCommand;

    /** Optional cross-process progress sink (not owned). */
    ProgressReporter *progress = nullptr;
};

/** Everything a fleet launch produces. */
struct FleetOutcome
{
    /** Merged results in global submission order; results[i] is only
     *  meaningful when present[i]. */
    std::vector<RunResult> results;
    std::vector<bool> present;

    /** Submission indices no worker streamed a result for. */
    std::vector<std::size_t> missing;

    /** Failure roster (empty on success). */
    std::vector<ShardFailure> failures;

    std::vector<ShardProcTelemetry> shards;

    /** Fleet wall time, spawn to last EOF (host telemetry). */
    double wallSeconds = 0.0;

    /** Every job present and every worker exited cleanly. */
    bool ok() const { return failures.empty() && missing.empty(); }
};

/**
 * Spawn options.shards workers and merge their result streams for a
 * sweep of @p num_jobs total jobs. Blocks until every worker exited.
 */
FleetOutcome runShardFleet(std::size_t num_jobs,
                           const FleetOptions &options);

/**
 * Worker side: run this process's share of @p jobs (shard
 * @p shard_index of @p shards, per ShardPlan over the job labels) in
 * global submission order, streaming one result frame per job plus a
 * final Done marker to the fd named by CAMEO_SHARD_RESULT_FD (default:
 * stdout). Returns the process exit code (0 on success).
 */
int runShardWorker(const std::vector<SweepJob> &jobs,
                   unsigned shard_index, unsigned shards);

/**
 * The fd a worker streams frames to: CAMEO_SHARD_RESULT_FD, strictly
 * parsed; malformed values warn on stderr and fall back to stdout.
 */
int resolveShardResultFd();

/**
 * Write @p results as deterministic CSV in submission order. Shared by
 * cameo-shard and perfbench, so the shard.identity byte-equality check
 * and perfbench's output digest see one serialization. Contains no
 * host-side values.
 */
void writeShardResultsCsv(std::ostream &os,
                          const std::vector<RunResult> &results);

} // namespace cameo

#endif // CAMEO_SHARD_FLEET_HH
