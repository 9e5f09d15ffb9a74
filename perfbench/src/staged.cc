/**
 * @file
 * The staged replay behind the per-layer metrics.
 *
 * Each job of the workload is replayed one layer at a
 * time, feeding each layer's public function with that layer's real
 * input stream, in System::functionalAccess order:
 *
 *   trace  ArenaReplaySource::refill           (the recorded streams)
 *   vm     VirtualMemory::translate            (every record)
 *   cache  Llc::access                         (every translated line)
 *   orgs   MemoryOrganization::accessFunctional on the warmup prefix
 *          and MemoryOrganization::access on the measured region, for
 *          the L3 miss and writeback stream
 *   sim    EventQueue::schedule + runOne       (Queued completions)
 *
 * Spans wrap batches of calls, so a layer's self time is the sum of
 * its spans. The spans under a job span mirror the work of the
 * untraced job, minus the cpu_core model and the kernel loop, which
 * the staged replay does not run; that rest is the coverage gap.
 *
 * Two side passes run outside the jobs and are excluded from coverage:
 * the functional org path on workloads whose jobs have no warmup
 * prefix, and standalone DramModule::request in both timing modes on
 * the Baseline's off-chip request stream.
 */

#include "staged.hh"

#include <algorithm>

#include "sim/event_queue.hh"
#include "trace/trace_arena.hh"

namespace perfbench
{

using namespace cameo;

namespace
{

/** Calls per span: spans cost two clock reads per batch. */
constexpr std::size_t kBatch = 16384;

struct Rec
{
    Access acc;
    std::uint32_t core = 0;
};

/** A page mapping made while translating record @p rec. */
struct MapEvent
{
    std::size_t rec = 0;
    std::uint32_t frame = 0;
    std::uint32_t core = 0;
    PageAddr vpage = 0;
};

/** One request the L3 sends to the organization. */
struct MissEvent
{
    std::size_t rec = 0;
    LineAddr line = 0;
    InstAddr pc = 0;
    std::uint32_t core = 0;
    bool isWrite = false;   ///< Dirty writeback.
    bool isLoad = false;    ///< Demand fill for a load.
    bool dependent = false; ///< Waits for the core's previous load.
    Tick gap = 0;           ///< Core compute ticks since the last miss.
};

/** The layer inputs derived from one (org, trace) pair. */
struct MissStream
{
    std::vector<MapEvent> maps;
    std::vector<MissEvent> misses;
};

/** A queued fill: issue tick and completion tick. */
struct Completion
{
    Tick issue = 0;
    Tick done = 0;
};

class Stager
{
  public:
    Stager(SpanRecorder &spans, StagedResult &out)
        : spans_(spans), out_(out)
    {
    }

    /**
     * Run @p body over [0, n) in batches, one span named @p name per
     * batch under @p parent; the layer's totals get the calls.
     */
    template <class Body>
    void
    batched(const std::string &name, std::uint64_t parent, std::size_t n,
            Body body)
    {
        LayerCost &cost = out_.layers[name];
        for (std::size_t lo = 0; lo < n; lo += kBatch) {
            const std::size_t hi = std::min(n, lo + kBatch);
            const std::uint64_t id = spans_.begin(name, parent);
            for (std::size_t i = lo; i < hi; ++i)
                body(i);
            cost.seconds += spans_.end(id);
        }
        cost.calls += n;
    }

    /** The job's streams, replayed from the arena, record-major. */
    std::vector<Rec>
    replay(const JobSpec &job, std::uint64_t parent)
    {
        const SystemConfig &c = job.config;
        const GeneratorParams gp = c.generatorParamsFor(job.profile);
        const std::uint64_t per_core =
            c.warmupAccessesPerCore + c.accessesPerCore;
        std::vector<Rec> recs(per_core * c.numCores);
        std::vector<Access> lane(per_core);
        LayerCost &cost = out_.layers["trace.replay"];
        for (std::uint32_t core = 0; core < c.numCores; ++core) {
            ArenaReplaySource source(TraceArenaCache::instance().acquire(
                job.profile, gp, systemCoreSeed(c.seed, core), per_core));
            for (std::uint64_t lo = 0; lo < per_core; lo += kBatch) {
                const std::size_t len = static_cast<std::size_t>(
                    std::min<std::uint64_t>(kBatch, per_core - lo));
                const std::uint64_t id =
                    spans_.begin("trace.replay", parent);
                source.refill(lane.data() + lo, len);
                cost.seconds += spans_.end(id);
            }
            cost.calls += per_core;
            for (std::uint64_t r = 0; r < per_core; ++r)
                recs[r * c.numCores + core] = {lane[r], core};
        }
        return recs;
    }

    /** vm then cache stages: the org's request stream. */
    MissStream
    missStream(const JobSpec &job, MemoryOrganization &org,
               const std::vector<Rec> &recs, std::uint64_t parent)
    {
        const SystemConfig &c = job.config;
        MissStream ms;
        VirtualMemory vm(org.visibleBytes(), c.pageFaultLatency,
                         c.seed ^ 0xF00D);
        std::size_t cur = 0;
        vm.setMapHook([&](std::uint32_t frame, std::uint32_t core,
                          PageAddr vpage) {
            ms.maps.push_back({cur, frame, core, vpage});
        });
        std::vector<LineAddr> phys(recs.size());
        batched("vm.translate", parent, recs.size(), [&](std::size_t i) {
            cur = i;
            const Access &a = recs[i].acc;
            const Translation tr =
                vm.translate(0, recs[i].core, pageOf(a.vaddr), a.isWrite);
            phys[i] = std::uint64_t{tr.frame} * kLinesPerPage +
                      (lineOf(a.vaddr) & (kLinesPerPage - 1));
        });

        Llc llc(c);
        std::vector<Tick> gap(c.numCores, 0);
        batched("llc.access", parent, recs.size(), [&](std::size_t i) {
            const Access &a = recs[i].acc;
            const std::uint32_t core = recs[i].core;
            gap[core] += static_cast<Tick>(
                static_cast<double>(a.gapInstructions) *
                c.cyclesPerInstruction);
            const CacheAccessResult res = llc.access(phys[i], a.isWrite);
            if (res.hit) {
                if (!a.isWrite)
                    gap[core] += c.l3HitStall;
                return;
            }
            gap[core] += llc.hitLatency();
            if (res.hasWriteback) {
                ms.misses.push_back({i, res.writebackLine, a.pc, core,
                                     true, false, false, gap[core]});
                gap[core] = 0;
            }
            ms.misses.push_back({i, phys[i], a.pc, core, false,
                                 !a.isWrite, a.dependsOnPrev, gap[core]});
            gap[core] = 0;
        });
        return ms;
    }

    /**
     * The org stage: the warmup prefix through accessFunctional, the
     * rest through the detailed access() with per-core clocks and an
     * MLP window like CpuCore's. Returns the Queued fills.
     */
    std::vector<Completion>
    orgStage(const JobSpec &job, MemoryOrganization &org,
             const MissStream &ms, std::size_t warmup_recs,
             std::uint64_t parent)
    {
        const SystemConfig &c = job.config;
        const std::string prefix =
            std::string("orgs.") + orgKindName(job.kind);
        const std::string detailed =
            prefix + ".detailed." + timingModeName(c.timingMode);
        const std::uint32_t mlp =
            std::max(1u, std::min(c.maxMlp, job.profile.mlp));

        std::vector<Completion> fills;
        std::size_t next_map = 0;
        const auto apply_maps = [&](std::size_t upto) {
            while (next_map < ms.maps.size() &&
                   ms.maps[next_map].rec <= upto) {
                const MapEvent &m = ms.maps[next_map++];
                org.onPageMapped(m.frame, m.core, m.vpage);
            }
        };

        const std::size_t split = static_cast<std::size_t>(
            std::lower_bound(ms.misses.begin(), ms.misses.end(),
                             warmup_recs,
                             [](const MissEvent &e, std::size_t r) {
                                 return e.rec < r;
                             }) -
            ms.misses.begin());
        batched(prefix + ".functional", parent, split, [&](std::size_t i) {
            const MissEvent &e = ms.misses[i];
            apply_maps(e.rec);
            org.accessFunctional(e.line, e.isWrite, e.pc, e.core);
        });

        std::vector<Tick> clock(c.numCores, 0);
        std::vector<Tick> last_load(c.numCores, 0);
        std::vector<std::vector<Tick>> window(c.numCores);
        const bool queued = c.timingMode == TimingMode::Queued;
        batched(detailed, parent, ms.misses.size() - split,
                [&](std::size_t k) {
                    const MissEvent &e = ms.misses[split + k];
                    apply_maps(e.rec);
                    Tick &now = clock[e.core];
                    now += e.gap;
                    if (e.isWrite) {
                        org.access(now, e.line, true, e.pc, e.core);
                        return;
                    }
                    if (e.dependent)
                        now = std::max(now, last_load[e.core]);
                    std::vector<Tick> &w = window[e.core];
                    if (w.size() >= mlp) {
                        const auto oldest =
                            std::min_element(w.begin(), w.end());
                        now = std::max(now, *oldest);
                        w.erase(oldest);
                    }
                    const Tick done =
                        org.access(now, e.line, false, e.pc, e.core);
                    w.push_back(done);
                    if (e.isLoad)
                        last_load[e.core] = done;
                    if (queued)
                        fills.push_back({now, done});
                    now += 1;
                });
        return fills;
    }

    /** Kernel event dispatch for the Queued fills, in issue order. */
    void
    simStage(std::vector<Completion> fills, std::uint64_t parent)
    {
        std::stable_sort(fills.begin(), fills.end(),
                         [](const Completion &a, const Completion &b) {
                             return a.issue < b.issue;
                         });
        EventQueue events;
        std::uint64_t delivered = 0;
        batched("sim.event", parent, fills.size(), [&](std::size_t i) {
            events.runUntil(fills[i].issue);
            // The capture has the size of System's completion callback
            // (a MemRequest plus a pointer), so std::function allocates
            // as it does there.
            MemRequest req;
            req.id = i;
            events.schedule(fills[i].done, [req, &delivered](Tick) {
                delivered += req.id + 1;
            });
        });
        const std::uint64_t id = spans_.begin("sim.event", parent);
        events.runAll();
        out_.layers["sim.event"].seconds += spans_.end(id);
    }

    /** Standalone DramModule::request on @p ms in @p mode. */
    void
    dramPass(const JobSpec &job, const MissStream &ms, TimingMode mode,
              std::uint64_t parent)
    {
        const SystemConfig &c = job.config;
        DramModule dram("dram.offchip", c.offchip, c.offchipBytes);
        dram.setTimingMode(mode, c.dramQueues);
        std::vector<Tick> clock(c.numCores, 0);
        batched(std::string("dram.request.") + timingModeName(mode), parent,
                ms.misses.size(), [&](std::size_t i) {
                    const MissEvent &e = ms.misses[i];
                    Tick &now = clock[e.core];
                    now += e.gap;
                    const Tick done =
                        dram.request(now, e.line % dram.capacityLines(),
                                     e.isWrite);
                    if (e.isLoad && e.dependent)
                        now = std::max(now, done);
                    now += 1;
                });
    }

  private:
    SpanRecorder &spans_;
    StagedResult &out_;
};

/** An org for @p job, with TLM-Oracle's page heat as System sets it. */
std::unique_ptr<MemoryOrganization>
makeOrg(const JobSpec &job)
{
    const SystemConfig &c = job.config;
    auto org = makeOrganization(job.kind, c.orgConfig());
    if (job.kind != OrgKind::TlmOracle)
        return org;
    const GeneratorParams gp = c.generatorParamsFor(job.profile);
    const std::size_t hint = pageHeatHint(gp);
    PageHeatMap heat(hint * c.numCores);
    for (std::uint32_t core = 0; core < c.numCores; ++core) {
        const auto core_heat = TraceArenaCache::instance().pageHeat(
            job.profile, gp, systemCoreSeed(c.seed, core),
            c.warmupAccessesPerCore + c.accessesPerCore,
            c.warmupAccessesPerCore, c.accessesPerCore, hint);
        for (const auto &[vpage, count] : *core_heat)
            heat[pageHeatKey(core, vpage)] += count;
    }
    org->setPageHeat(std::move(heat));
    return org;
}

} // namespace

StagedResult
stagedReplay(const Workload &wl, SpanRecorder &spans, std::uint64_t parent)
{
    StagedResult out;
    Stager stager(spans, out);
    for (std::size_t j = 0; j < wl.jobs.size(); ++j) {
        const JobSpec &job = wl.jobs[j];
        const SystemConfig &c = job.config;
        const std::uint64_t span = spans.begin("job:" + job.label, parent);
        const double start = spans.now();
        const std::size_t first_layer_span = spans.spans().size();

        const std::vector<Rec> recs = stager.replay(job, span);
        const auto org = makeOrg(job);
        const MissStream ms = stager.missStream(job, *org, recs, span);
        const std::size_t warmup_recs =
            c.warmupPolicy == WarmupPolicy::Skip
                ? 0
                : c.warmupAccessesPerCore * c.numCores;
        std::vector<Completion> fills =
            stager.orgStage(job, *org, ms, warmup_recs, span);
        if (!fills.empty())
            stager.simStage(std::move(fills), span);
        spans.end(span);
        out.jobSeconds += spans.now() - start;
        for (std::size_t s = first_layer_span; s < spans.spans().size(); ++s)
            out.layerSeconds += spans.spans()[s].seconds();

        // Side passes, once per (trace, org) after its last job.
        const bool last_of_pair =
            j + 1 == wl.jobs.size() ||
            wl.jobs[j + 1].kind != job.kind ||
            wl.jobs[j + 1].profile.name != job.profile.name;
        if (!last_of_pair ||
            (warmup_recs > 0 && job.kind != OrgKind::Baseline))
            continue;
        SpanScope side(spans,
                       "side:" + job.profile.name + "/" +
                           orgKindName(job.kind),
                       parent);
        if (warmup_recs == 0) {
            const auto functional_org = makeOrg(job);
            stager.orgStage(job, *functional_org, ms, recs.size(),
                            side.id());
        }
        if (job.kind == OrgKind::Baseline) {
            stager.dramPass(job, ms, TimingMode::Blocking, side.id());
            stager.dramPass(job, ms, TimingMode::Queued, side.id());
        }
    }
    return out;
}

} // namespace perfbench
