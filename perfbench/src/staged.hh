/**
 * @file
 * The traced run's staged replay (see staged.cc).
 */

#ifndef PERFBENCH_STAGED_HH
#define PERFBENCH_STAGED_HH

#include <map>
#include <string>

#include "perfbench.hh"
#include "spans.hh"

namespace perfbench
{

/** Self time and call count of one layer over the staged replay. */
struct LayerCost
{
    double seconds = 0.0;
    std::uint64_t calls = 0;

    double nsPerCall() const
    {
        return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
    }
};

struct StagedResult
{
    /** Keyed by span name, e.g. "vm.translate", "orgs.CAMEO.functional". */
    std::map<std::string, LayerCost> layers;

    /** Sum of the job spans' durations (the traced wall time). */
    double jobSeconds = 0.0;

    /** Sum of the layer spans directly under job spans. */
    double layerSeconds = 0.0;
};

/**
 * Replay every job of @p wl layer by layer, recording
 * spans under @p parent. The streams must be resident in the trace
 * arena (setupStreams).
 */
StagedResult stagedReplay(const Workload &wl, SpanRecorder &spans,
                          std::uint64_t parent);

} // namespace perfbench

#endif // PERFBENCH_STAGED_HH
