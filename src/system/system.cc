#include "system/system.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/kernel.hh"
#include "trace/trace_arena.hh"
#include "util/bitops.hh"

namespace cameo
{

namespace
{

std::uint64_t
coreSeed(std::uint64_t base, std::uint32_t core)
{
    return mix64(base + 0x517cc1b727220a95ULL * (core + 1));
}

} // namespace

System::System(const SystemConfig &config, OrgKind kind,
               const WorkloadProfile &profile)
    : System(config, kind, std::vector<WorkloadProfile>{profile})
{
}

System::System(const SystemConfig &config, OrgKind kind,
               const std::vector<WorkloadProfile> &profiles)
    : config_(config), kind_(kind), profiles_(profiles),
      org_(makeOrganization(kind, config.orgConfig()))
{
    assert(org_ != nullptr);
    assert(!profiles_.empty());

    // Arena replay applies when nothing else supplies the stream: the
    // cache records each (profile, params, seed) once and replays it
    // bit-identically for every later run (DESIGN.md §10).
    const bool use_arena = !config_.sourceFactory &&
                           config_.useTraceArena &&
                           TraceArenaCache::instance().enabled();
    // Arena record count covers warmup + measurement, so a core that
    // consumes both never wraps the arena.
    const std::uint64_t stream_records =
        config_.warmupAccessesPerCore + config_.accessesPerCore;

    // Each core's access stream: a synthetic generator by default, an
    // arena replay when enabled, or whatever the configured factory
    // provides (trace replay). Under the Skip policy warmup records are
    // skipped here so the core's first fetched record is the first
    // measured one; under Functional/Detailed the warmup phase itself
    // consumes them (ensureWarmup), so the cursor starts at record 0.
    const auto make_source = [&](std::uint32_t c, bool skip_warmup)
        -> std::unique_ptr<AccessSource> {
        const WorkloadProfile &p = profileFor(c);
        const GeneratorParams gp = config_.generatorParamsFor(p);
        const std::uint64_t seed = coreSeed(config_.seed, c);
        std::unique_ptr<AccessSource> source;
        if (config_.sourceFactory) {
            source = config_.sourceFactory(c, p, gp, seed);
        } else if (use_arena) {
            source = TraceArenaCache::instance().source(
                p, gp, seed, stream_records);
        } else {
            source = std::make_unique<SyntheticGenerator>(p, gp, seed);
        }
        if (skip_warmup && config_.warmupAccessesPerCore > 0)
            source->skip(config_.warmupAccessesPerCore);
        return source;
    };

    // TLM-Oracle: replay the deterministic sources standalone to build
    // the oracular page-heat profile before any simulation. Footprint
    // hints size both maps up front so the profiling pass never
    // rehashes. With the arena active the per-core histograms are
    // memoized in the cache, so a sweep profiles each stream once
    // instead of once per oracle job.
    if (kind_ == OrgKind::TlmOracle) {
        const auto pages_hint = [&](std::uint32_t c) -> std::size_t {
            const GeneratorParams gp =
                config_.generatorParamsFor(profileFor(c));
            return static_cast<std::size_t>(
                (gp.footprintBytes + gp.hotSetBytes) / kPageBytes + 2);
        };
        std::size_t total_hint = 0;
        for (std::uint32_t c = 0; c < config_.numCores; ++c)
            total_hint += pages_hint(c);
        PageHeatMap heat(total_hint);
        for (std::uint32_t c = 0; c < config_.numCores; ++c) {
            if (use_arena) {
                const WorkloadProfile &p = profileFor(c);
                const auto core_heat =
                    TraceArenaCache::instance().pageHeat(
                        p, config_.generatorParamsFor(p),
                        coreSeed(config_.seed, c), stream_records,
                        config_.warmupAccessesPerCore,
                        config_.accessesPerCore, pages_hint(c));
                for (const auto &[vpage, count] : *core_heat)
                    heat[pageHeatKey(c, vpage)] += count;
            } else {
                const auto source = make_source(c, /*skip_warmup=*/true);
                const auto core_heat = profilePageHeat(
                    *source, config_.accessesPerCore, pages_hint(c));
                for (const auto &[vpage, count] : core_heat)
                    heat[pageHeatKey(c, vpage)] += count;
            }
        }
        if (!org_->setPageHeat(std::move(heat)))
            throw std::runtime_error(
                std::string(orgKindName(kind)) +
                " does not take page-heat oracles");
    }

    vm_ = std::make_unique<VirtualMemory>(org_->visibleBytes(),
                                          config_.pageFaultLatency,
                                          config_.seed ^ 0xF00D);
    vm_->setMapHook([this](std::uint32_t frame, std::uint32_t core,
                           PageAddr vpage) {
        org_->onPageMapped(frame, core, vpage);
    });

    llc_ = std::make_unique<Llc>(config_);

    // Under a warming policy the source cursor starts at record 0 (the
    // warmup phase consumes the prefix). A Detailed-policy core is
    // born with the *warmup* as its trace — the warmup kernel run
    // finishes when every core has retired it — and is re-targeted to
    // the measured length by beginMeasurement() at the switch.
    const bool skip_warmup =
        config_.warmupPolicy == WarmupPolicy::Skip;
    const bool detailed_warmup =
        !skip_warmup && config_.warmupPolicy == WarmupPolicy::Detailed &&
        config_.warmupAccessesPerCore > 0;
    const std::uint64_t initial_accesses = detailed_warmup
                                               ? config_.warmupAccessesPerCore
                                               : config_.accessesPerCore;

    cores_.reserve(config_.numCores);
    for (std::uint32_t c = 0; c < config_.numCores; ++c) {
        const std::uint32_t mlp =
            std::min(config_.maxMlp, profileFor(c).mlp);
        cores_.push_back(std::make_unique<CpuCore>(
            c, make_source(c, skip_warmup), initial_accesses,
            config_.cyclesPerInstruction, mlp, config_.l3HitStall, *vm_,
            *llc_, *org_));
    }

    org_->registerStats(registry_);
    vm_->registerStats(registry_);
    llc_->registerStats(registry_);
    if (!skip_warmup)
        registry_.add(warmupAccesses_);

    for (auto &core : cores_)
        kernel_.addAgent(core.get());
}

void
System::bindEvents()
{
    // Queued timing: miss completions travel through the kernel's
    // event queue for the duration of the run.
    if (config_.timingMode == TimingMode::Queued && !eventsBound_) {
        org_->bindEventQueue(&kernel_.events());
        eventsBound_ = true;
    }
}

void
System::unbindEvents()
{
    if (eventsBound_) {
        org_->bindEventQueue(nullptr);
        eventsBound_ = false;
    }
}

void
System::ensureWarmup()
{
    if (warmupDone_)
        return;
    warmupDone_ = true;
    if (config_.warmupAccessesPerCore == 0 ||
        config_.warmupPolicy == WarmupPolicy::Skip)
        return;
    if (config_.warmupPolicy == WarmupPolicy::Functional)
        runFunctionalWarmup();
    else
        runDetailedWarmup();
    enterMeasuredRegion();
}

void
System::runFunctionalWarmup()
{
    const std::uint64_t warmup = config_.warmupAccessesPerCore;
    const std::size_t n = cores_.size();
    const std::size_t batch = std::clamp<std::size_t>(
        config_.functionalRefillBatch, 1, 4096);

    // One prefetch ring per core, all in one flat allocation. The
    // replay is record-major round robin — round r feeds record r of
    // every core, matching the Skip-mode contract that per-core streams
    // are independent — so the interleaving (and therefore every
    // architectural state update) is invariant to the batch size.
    std::vector<Access> buf(n * batch);
    struct Lane
    {
        Access *cur;
        Access *end;
    };
    std::vector<Lane> lanes(n);
    for (std::size_t c = 0; c < n; ++c) {
        Access *base = buf.data() + c * batch;
        lanes[c] = {base, base};
    }

    for (std::uint64_t rec = 0; rec < warmup; ++rec) {
        for (std::size_t c = 0; c < n; ++c) {
            Lane &lane = lanes[c];
            if (lane.cur == lane.end) {
                // Never pull past the warmup prefix: the measured
                // region must start exactly at record `warmup`.
                const auto len = static_cast<std::size_t>(
                    std::min<std::uint64_t>(batch, warmup - rec));
                Access *base = buf.data() + c * batch;
                cores_[c]->warmupRefill(base, len);
                lane = {base, base + len};
            }
            functionalAccess(static_cast<std::uint32_t>(c), *lane.cur++);
        }
    }
}

void
System::functionalAccess(std::uint32_t core, const Access &acc)
{
    // Same component order as CpuCore::step()/finishAccess(), minus all
    // timing: VM translation (page table, frame allocation, fault
    // accounting), shared L3 (tags + replacement), then the
    // organization's functional path for the miss — dirty writeback
    // first, then the demand fill (write misses allocate via a read;
    // the dirty bit lives in the L3).
    const Translation tr =
        vm_->translate(0, core, pageOf(acc.vaddr), acc.isWrite);
    const LineAddr phys_line =
        std::uint64_t{tr.frame} * kLinesPerPage +
        (lineOf(acc.vaddr) & (kLinesPerPage - 1));

    const CacheAccessResult res = llc_->access(phys_line, acc.isWrite);
    if (res.hit)
        return;
    if (res.hasWriteback)
        org_->accessFunctional(res.writebackLine, true, acc.pc, core);
    org_->accessFunctional(phys_line, false, acc.pc, core);
}

void
System::runDetailedWarmup()
{
    // The cores were constructed with the warmup as their trace; a
    // plain kernel run retires it through the full timing model and
    // drains every in-flight completion before returning. The step
    // budget (maxKernelSteps) and kernelSteps accounting are measured-
    // region properties, so neither applies here.
    bindEvents();
    kernel_.run();
    unbindEvents();
}

void
System::enterMeasuredRegion()
{
    // The switch barrier (DESIGN.md §13). Warmup has drained; discard
    // everything that only describes *when* things happened — DRAM
    // bank/bus reservations, controller queues, the protocol auditor's
    // clock — and every statistic accumulated so far, keeping all
    // architectural state (LLT, predictors, tags, page tables, heat).
    org_->resetTiming();
    registry_.resetAll();
    kernel_.events().rewind();
    for (auto &core : cores_)
        core->beginMeasurement(config_.accessesPerCore);
    warmupAccesses_.inc(config_.warmupAccessesPerCore * cores_.size());
}

void
System::runSegment(std::uint64_t target_accesses)
{
    ensureWarmup();
    bindEvents();
    std::uint64_t budget = ~std::uint64_t{0};
    if (config_.maxKernelSteps != 0) {
        budget = config_.maxKernelSteps > kernelSteps_
                     ? config_.maxKernelSteps - kernelSteps_
                     : 0;
    }
    std::function<bool()> stop;
    if (target_accesses != kNoTarget) {
        stop = [this, target_accesses] {
            return totalAccesses() >= target_accesses;
        };
    }
    kernel_.run(budget, stop);
    kernelSteps_ += kernel_.stepsExecuted();
    if (!kernel_.stoppedEarly()) {
        // The segment ran to completion (or its step budget): the
        // pipeline is drained, so the end-of-run audits may fire.
        truncated_ = truncated_ || kernel_.hitStepLimit();
        unbindEvents();
    }
}

std::uint64_t
System::totalAccesses() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->accesses();
    return total;
}

bool
System::runUntil(std::uint64_t total_accesses)
{
    assert(!finished_ && "System already ran to completion");
    runSegment(total_accesses);
    return kernel_.stoppedEarly();
}

RunResult
System::run()
{
    assert(!finished_ && "System::run may be called once");
    runSegment(kNoTarget);
    finished_ = true;

    RunResult r;
    r.kernelSteps = kernelSteps_;
    r.truncated = truncated_;
    r.orgName = org_->name();
    if (profiles_.size() == 1) {
        r.workload = profiles_[0].name;
        r.category = profiles_[0].category;
    } else {
        r.workload = "mix(";
        for (std::size_t i = 0; i < profiles_.size(); ++i)
            r.workload += (i ? "+" : "") + profiles_[i].name;
        r.workload += ")";
        // A mix is capacity-limited if any member is.
        r.category = WorkloadCategory::LatencyLimited;
        for (const auto &p : profiles_) {
            if (p.category == WorkloadCategory::CapacityLimited)
                r.category = WorkloadCategory::CapacityLimited;
        }
    }

    for (const auto &core : cores_) {
        r.execTime = std::max(r.execTime, core->finishTick());
        r.instructions += core->instructions();
        r.accesses += core->accesses();
    }
    r.warmupAccesses = warmupAccesses_.value();

    r.l3Hits = llc_->hits();
    r.l3Misses = llc_->misses();

    if (const DramModule *stacked = org_->stackedModule())
        r.stackedBytes = stacked->bytesTransferred();
    r.offchipBytes = org_->offchipModule().bytesTransferred();
    r.storageBytes = vm_->ssd().bytesTransferred();
    r.majorFaults = vm_->majorFaults().value();
    r.minorFaults = vm_->minorFaults().value();

    if (const CameoController *ctrl = org_->cameo()) {
        r.servicedStacked = ctrl->servicedStacked().value();
        r.servicedOffchip = ctrl->servicedOffchip().value();
        r.swaps = ctrl->swaps().value();
        for (int c = 0; c < 5; ++c) {
            r.llpCases[c] = ctrl->predictor().caseCount(
                static_cast<PredictionCase>(c));
        }
        r.llpAccuracy = ctrl->predictor().accuracy();
    }

    if (const Counter *migrations =
            registry_.findCounter("tlm.pageMigrations")) {
        r.pageMigrations = migrations->value();
    }
    return r;
}

void
System::save(SnapshotWriter &w) const
{
    w.beginSection("meta");
    w.u8(static_cast<std::uint8_t>(kind_));
    w.u8(static_cast<std::uint8_t>(config_.timingMode));
    w.u32(config_.numCores);
    w.u64(config_.seed);
    w.u64(config_.warmupAccessesPerCore);
    w.u64(config_.accessesPerCore);
    w.u64(config_.stackedBytes);
    w.u64(config_.offchipBytes);
    w.u64(config_.l3Bytes);
    w.u32(config_.l3Ways);
    w.f64(config_.scaleFactor);
    w.u32(static_cast<std::uint32_t>(profiles_.size()));
    for (const WorkloadProfile &p : profiles_)
        w.str(p.name);
    w.u64(kernelSteps_);
    w.u8(static_cast<std::uint8_t>(config_.warmupPolicy));
    w.b(warmupDone_);
    w.endSection();

    w.beginSection("stats");
    registry_.save(w);
    w.endSection();

    w.beginSection("vm");
    vm_->save(w);
    w.endSection();

    w.beginSection("llc");
    llc_->save(w);
    w.endSection();

    for (std::size_t c = 0; c < cores_.size(); ++c) {
        w.beginSection("core." + std::to_string(c));
        cores_[c]->save(w);
        w.endSection();
    }

    w.beginSection("org");
    org_->save(w);
    w.endSection();
}

void
System::restore(SnapshotReader &r)
{
    assert(kernelSteps_ == 0 && !finished_ &&
           "restore only into a freshly constructed System");

    if (!r.enterSection("meta"))
        return;
    const auto kind = static_cast<OrgKind>(r.u8());
    const auto mode = static_cast<TimingMode>(r.u8());
    const std::uint32_t cores = r.u32();
    const std::uint64_t seed = r.u64();
    const std::uint64_t warmup = r.u64();
    const std::uint64_t accesses = r.u64();
    const std::uint64_t stackedBytes = r.u64();
    const std::uint64_t offchipBytes = r.u64();
    const std::uint64_t l3Bytes = r.u64();
    const std::uint32_t l3Ways = r.u32();
    const double scale = r.f64();
    const std::uint32_t nProfiles = r.u32();
    std::vector<std::string> names;
    for (std::uint32_t i = 0; i < nProfiles && r.ok(); ++i)
        names.push_back(r.str());
    const std::uint64_t steps = r.u64();
    const auto policy = static_cast<WarmupPolicy>(r.u8());
    const bool warmup_done = r.b();
    if (!r.leaveSection())
        return;

    if (kind != kind_) {
        r.fail(std::string("system: snapshot was taken of a ") +
               orgKindName(kind) + " organization, this system is " +
               orgKindName(kind_));
        return;
    }
    if (mode != config_.timingMode) {
        r.fail("system: timing mode differs between snapshot and config");
        return;
    }
    if (cores != config_.numCores) {
        r.fail("system: core count mismatch: snapshot has " +
               std::to_string(cores) + ", config has " +
               std::to_string(config_.numCores));
        return;
    }
    if (seed != config_.seed) {
        r.fail("system: seed mismatch (streams would diverge)");
        return;
    }
    if (warmup != config_.warmupAccessesPerCore) {
        r.fail("system: warmup length mismatch (streams would diverge)");
        return;
    }
    if (policy != config_.warmupPolicy) {
        r.fail("system: warmup policy mismatch (snapshot ran '" +
               std::string(warmupPolicyName(policy)) +
               "' warmup, this config uses '" +
               warmupPolicyName(config_.warmupPolicy) + "')");
        return;
    }
    if (accesses > config_.accessesPerCore) {
        r.fail("system: snapshot was taken of a longer run (" +
               std::to_string(accesses) + " accesses/core) than this "
               "config's " + std::to_string(config_.accessesPerCore));
        return;
    }
    if (stackedBytes != config_.stackedBytes ||
        offchipBytes != config_.offchipBytes ||
        l3Bytes != config_.l3Bytes || l3Ways != config_.l3Ways) {
        r.fail("system: memory geometry mismatch");
        return;
    }
    if (scale != config_.scaleFactor) {
        r.fail("system: scale factor mismatch (streams would diverge)");
        return;
    }
    if (names.size() != profiles_.size()) {
        r.fail("system: workload mix size mismatch");
        return;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] != profiles_[i].name) {
            r.fail("system: workload mismatch: snapshot ran '" +
                   names[i] + "', this system runs '" +
                   profiles_[i].name + "'");
            return;
        }
    }
    kernelSteps_ = steps;
    warmupDone_ = warmup_done;

    // Snapshot taken after the warmup switch: replay the switch on the
    // fresh cores before their sections load. beginMeasurement()
    // re-targets Detailed-policy cores (constructed with the warmup as
    // their trace) to the measured length, and the cursor fast-forward
    // composes with the per-core skip(processed_) in CpuCore::restore()
    // to land the source at warmup + processed_.
    if (warmupDone_ && config_.warmupPolicy != WarmupPolicy::Skip &&
        config_.warmupAccessesPerCore > 0) {
        for (auto &core : cores_) {
            core->beginMeasurement(config_.accessesPerCore);
            core->skipWarmup(config_.warmupAccessesPerCore);
        }
    }

    if (!r.enterSection("stats"))
        return;
    registry_.restore(r);
    if (!r.leaveSection())
        return;

    if (!r.enterSection("vm"))
        return;
    vm_->restore(r);
    if (!r.leaveSection())
        return;

    if (!r.enterSection("llc"))
        return;
    llc_->restore(r);
    if (!r.leaveSection())
        return;

    for (std::size_t c = 0; c < cores_.size(); ++c) {
        if (!r.enterSection("core." + std::to_string(c)))
            return;
        cores_[c]->restore(r);
        if (!r.leaveSection())
            return;
    }

    if (!r.enterSection("org"))
        return;
    org_->restore(r);
    if (!r.leaveSection())
        return;
    if (!r.ok())
        return;

    // Queued mode with transactions mid-flight: re-arm their completion
    // events on the (fresh) kernel queue in original submission order.
    if (org_->inflightCount() > 0) {
        bindEvents();
        org_->rescheduleInflight([this](std::uint32_t c) -> MemClient * {
            assert(c < cores_.size());
            return cores_[c].get();
        });
    }
}

bool
System::saveSnapshot(const std::string &path, std::string *error) const
{
    SnapshotWriter w;
    save(w);
    return w.writeFile(path, error);
}

bool
System::restoreSnapshot(const std::string &path, std::string *error)
{
    SnapshotReader r;
    if (r.openFile(path)) {
        restore(r);
        // A clean restore must consume every section the file carries.
        if (r.ok() && r.sectionCount() != 5 + cores_.size())
            r.fail("system: snapshot carries unconsumed sections");
    }
    if (!r.ok()) {
        if (error != nullptr)
            *error = r.error();
        return false;
    }
    return true;
}

void
RunResult::merge(const RunResult &other)
{
    const auto join = [](std::string &mine, const std::string &theirs) {
        if (mine != theirs && !theirs.empty())
            mine = mine.empty() ? theirs : mine + '+' + theirs;
    };
    join(orgName, other.orgName);
    join(workload, other.workload);

    execTime = std::max(execTime, other.execTime);
    kernelSteps += other.kernelSteps;
    truncated = truncated || other.truncated;
    instructions += other.instructions;
    accesses += other.accesses;
    warmupAccesses += other.warmupAccesses;
    l3Hits += other.l3Hits;
    l3Misses += other.l3Misses;
    stackedBytes += other.stackedBytes;
    offchipBytes += other.offchipBytes;
    storageBytes += other.storageBytes;
    majorFaults += other.majorFaults;
    minorFaults += other.minorFaults;
    servicedStacked += other.servicedStacked;
    servicedOffchip += other.servicedOffchip;
    swaps += other.swaps;
    for (std::size_t c = 0; c < llpCases.size(); ++c)
        llpCases[c] += other.llpCases[c];
    pageMigrations += other.pageMigrations;

    // Re-derive accuracy from the merged tallies: cases 1 and 4 are
    // the correct predictions (LineLocationPredictor::accuracy()).
    std::uint64_t total = 0;
    for (const std::uint64_t c : llpCases)
        total += c;
    llpAccuracy =
        total == 0
            ? 0.0
            : static_cast<double>(llpCases[0] + llpCases[3]) /
                  static_cast<double>(total);
}

RunResult
runWorkload(const SystemConfig &config, OrgKind kind,
            const WorkloadProfile &profile)
{
    System system(config, kind, profile);
    return system.run();
}

RunResult
runMix(const SystemConfig &config, OrgKind kind,
       const std::vector<WorkloadProfile> &profiles)
{
    System system(config, kind, profiles);
    return system.run();
}

} // namespace cameo
