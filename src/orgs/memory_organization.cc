#include "orgs/memory_organization.hh"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <iterator>
#include <stdexcept>

#include "orgs/alloy_cache.hh"
#include "orgs/baseline.hh"
#include "orgs/cameo_freq.hh"
#include "orgs/cameo_org.hh"
#include "orgs/composed_org.hh"
#include "orgs/policy/epoch_freq_placement.hh"
#include "orgs/policy/nth_touch_placement.hh"
#include "orgs/policy/oracle_heat_placement.hh"
#include "orgs/policy/page_remap_mapping.hh"
#include "orgs/policy/placement_policy.hh"
#include "orgs/policy/pte_cached_mapping.hh"
#include "orgs/policy/sampling_freq_placement.hh"
#include "util/bitops.hh"

namespace cameo
{

MemoryOrganization::MemoryOrganization(std::string name,
                                       const OrgConfig &config,
                                       const DramLayout &dram)
    : offchip_("dram.offchip", config.offchip, dram.offchipBytes),
      name_(std::move(name)), timingMode_(config.timingMode)
{
    if (dram.stackedBytes != 0) {
        stacked_.emplace("dram.stacked", dram.stacked, dram.stackedBytes);
        stacked_->setTimingMode(config.timingMode, config.queues);
    }
    offchip_.setTimingMode(config.timingMode, config.queues);
#if CAMEO_AUDIT_ENABLED
    // The event queue fires in tick order, so queued-mode deliveries
    // are monotone; blocking completions fire in submission order with
    // freely interleaved ticks.
    queueAudit_.setMonotonicDelivery(config.timingMode ==
                                     TimingMode::Queued);
#endif
}

MemoryOrganization::~MemoryOrganization() = default;

void
MemoryOrganization::registerStats(StatRegistry &registry)
{
    if (stacked_)
        stacked_->registerStats(registry);
    offchip_.registerStats(registry);
    registerOwnStats(registry);
}

void
MemoryOrganization::registerOwnStats(StatRegistry &registry)
{
    (void)registry;
}

Tick
MemoryOrganization::submit(Tick now, LineAddr line, bool is_write,
                           InstAddr pc, std::uint32_t core,
                           std::uint64_t tag, MemClient *client)
{
    MemRequest req;
    req.id = ++lastRequestId_;
    req.tag = tag;
    req.line = line;
    req.isWrite = is_write;
    req.pc = pc;
    req.core = core;
    req.issueTick = now;

    const Tick done = access(now, line, is_write, pc, core);
#if CAMEO_AUDIT_ENABLED
    queueAudit_.onSubmit(req.id, now);
#endif
    if (timingMode_ == TimingMode::Queued && events_ != nullptr &&
        client != nullptr) {
        scheduleCompletion(admitInflight({req, done, client}));
        return done;
    }
#if CAMEO_AUDIT_ENABLED
    queueAudit_.onComplete(req.id, done, /*ordered=*/false);
#endif
    if (client != nullptr)
        client->onMemComplete(req, done);
    return done;
}

std::uint32_t
MemoryOrganization::admitInflight(const InflightRequest &f)
{
    if (freeInflight_.empty()) {
        inflight_.push_back(f);
        return static_cast<std::uint32_t>(inflight_.size() - 1);
    }
    const std::uint32_t slot = freeInflight_.back();
    freeInflight_.pop_back();
    inflight_[slot] = f;
    return slot;
}

void
MemoryOrganization::scheduleCompletion(std::uint32_t slot)
{
    events_->schedule(inflight_[slot].done, [this, slot](Tick when) {
        completeInflight(slot, when);
    });
}

void
MemoryOrganization::completeInflight(std::uint32_t slot, Tick when)
{
    // Retire from the in-flight registry before delivery so a snapshot
    // taken from inside the callback (not a supported call site, but
    // cheap to get right) never replays this completion.
    const MemRequest req = inflight_[slot].req;
    MemClient *const client = inflight_[slot].client;
    inflight_[slot].req.id = kFreeSlotId;
    freeInflight_.push_back(slot);
#if CAMEO_AUDIT_ENABLED
    queueAudit_.onComplete(req.id, when);
#endif
    client->onMemComplete(req, when);
}

std::vector<std::uint32_t>
MemoryOrganization::inflightById() const
{
    std::vector<std::uint32_t> live;
    live.reserve(inflightCount());
    for (std::uint32_t s = 0; s < inflight_.size(); ++s) {
        if (inflight_[s].req.id != kFreeSlotId)
            live.push_back(s);
    }
    std::sort(live.begin(), live.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return inflight_[a].req.id < inflight_[b].req.id;
              });
    return live;
}

void
MemoryOrganization::save(SnapshotWriter &w) const
{
    // Request-id order is submission order: the byte image is the one
    // a submission-ordered registry would write.
    const std::vector<std::uint32_t> live = inflightById();
    w.u64(lastRequestId_);
    w.u64(live.size());
    for (const std::uint32_t s : live) {
        const InflightRequest &f = inflight_[s];
        w.u64(f.req.id);
        w.u64(f.req.tag);
        w.u64(f.req.line);
        w.b(f.req.isWrite);
        w.u64(f.req.pc);
        w.u32(f.req.core);
        w.u64(f.req.issueTick);
        w.u64(f.done);
    }
    if (stacked_)
        stacked_->save(w);
    offchip_.save(w);
}

void
MemoryOrganization::restore(SnapshotReader &r)
{
    lastRequestId_ = r.u64();
    const std::uint64_t n = r.u64();
    inflight_.clear();
    freeInflight_.clear();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        InflightRequest f;
        f.req.id = r.u64();
        f.req.tag = r.u64();
        f.req.line = r.u64();
        f.req.isWrite = r.b();
        f.req.pc = r.u64();
        f.req.core = r.u32();
        f.req.issueTick = r.u64();
        f.done = r.u64();
        if (f.req.id == kFreeSlotId) {
            r.fail("org: snapshot carries an in-flight request with id 0");
            return;
        }
        inflight_.push_back(f);
    }
    if (r.ok() && !inflight_.empty() &&
        timingMode_ != TimingMode::Queued) {
        r.fail("org: snapshot carries in-flight requests but this "
               "organization uses Blocking timing");
        return;
    }
#if CAMEO_AUDIT_ENABLED
    // Re-shadow the restored transactions so their (re-scheduled)
    // deliveries balance the books.
    for (const InflightRequest &f : inflight_)
        queueAudit_.onSubmit(f.req.id, f.req.issueTick);
#endif
    if (stacked_)
        stacked_->restore(r);
    offchip_.restore(r);
}

void
MemoryOrganization::rescheduleInflight(
    const std::function<MemClient *(std::uint32_t)> &client_of)
{
    if (inflightCount() == 0)
        return;
    assert(events_ != nullptr &&
           "bind the event queue before rescheduling");
    // Submission (= id) order reproduces the original scheduling order,
    // so same-tick completions keep their FIFO sequence numbers.
    for (const std::uint32_t s : inflightById()) {
        inflight_[s].client = client_of(inflight_[s].req.core);
        assert(inflight_[s].client != nullptr);
        scheduleCompletion(s);
    }
}

void
MemoryOrganization::resetTiming()
{
    assert(inflightCount() == 0 &&
           "drain in-flight transactions before a timing reset");
    lastRequestId_ = 0;
#if CAMEO_AUDIT_ENABLED
    // Request ids and delivery times restart with the rebased clocks.
    queueAudit_.reset();
#endif
    if (stacked_)
        stacked_->reset();
    offchip_.reset();
}

void
MemoryOrganization::onPageMapped(std::uint32_t frame, std::uint32_t core,
                                 PageAddr vpage)
{
    (void)frame;
    (void)core;
    (void)vpage;
}

bool
MemoryOrganization::setPageHeat(PageHeatMap heat)
{
    (void)heat;
    return false;
}

const char *
OrgConfig::validate() const
{
    if (stackedBytes == 0)
        return "stackedBytes must be nonzero";
    if (stackedBytes % kPageBytes != 0)
        return "stackedBytes must be a whole number of pages";
    if (offchipBytes % kPageBytes != 0)
        return "offchipBytes must be a whole number of pages";
    if (numCores == 0)
        return "numCores must be nonzero";
    if (const char *err = llt.validate())
        return err;
    if (const char *err = freq.validate())
        return err;
    if (const char *err = migrate.validate())
        return err;
    if (const char *err = banshee.validate())
        return err;
    return nullptr;
}

namespace
{

using OrgPtr = std::unique_ptr<MemoryOrganization>;

std::uint64_t
stackedPagesOf(const OrgConfig &config)
{
    return config.stackedBytes / kPageBytes;
}

std::uint64_t
totalPagesOf(const OrgConfig &config)
{
    return (config.stackedBytes + config.offchipBytes) / kPageBytes;
}

/** Every organization but DoubleUse backs its span with off-chip DRAM. */
const char *
needsOffchip(const OrgConfig &config)
{
    if (config.offchipBytes == 0)
        return "offchipBytes must be nonzero";
    return nullptr;
}

/** DoubleUse's backing store is off-chip + stacked, never empty. */
const char *
noPrecondition(const OrgConfig &)
{
    return nullptr;
}

/** CAMEO's congruence-group math (Section IV-A). */
const char *
needsCameoGeometry(const OrgConfig &config)
{
    if (const char *err = needsOffchip(config))
        return err;
    if (!isPowerOfTwo(config.stackedBytes / kLineBytes))
        return "stackedBytes must be a power-of-two number of lines";
    if (config.offchipBytes % config.stackedBytes != 0)
        return "offchipBytes must be a whole multiple of stackedBytes "
               "(integral congruence-group size)";
    if (config.offchipBytes / config.stackedBytes > 15)
        return "offchipBytes must be at most 15x stackedBytes (a "
               "congruence group holds at most 16 lines)";
    return nullptr;
}

OrgPtr
composed(const OrgConfig &config, const char *name,
         std::unique_ptr<PageMappingPolicy> mapping,
         std::unique_ptr<PagePlacementPolicy> placement)
{
    return std::make_unique<ComposedOrg>(config, name, std::move(mapping),
                                         std::move(placement));
}

/** One organization kind: identity, composition, preconditions, factory. */
struct OrgRow
{
    OrgKind kind;
    const char *name;
    OrgComposition composition;
    const char *(*precondition)(const OrgConfig &config);
    OrgPtr (*make)(const OrgConfig &config, const char *name);
};

/**
 * The organization table — the one place that lists the kinds, in
 * OrgKind order. The composition column is live for ComposedOrg rows
 * (checked against the policies' own names) and documents the policy
 * pair the monoliths' fused hot paths implement.
 */
constexpr OrgRow kOrgTable[] = {
    {OrgKind::Baseline, "Baseline", {"identity", "none"}, needsOffchip,
     [](const OrgConfig &c, const char *) -> OrgPtr {
         return std::make_unique<BaselineOrg>(c);
     }},
    {OrgKind::AlloyCache, "Cache", {"tad-tags", "install-on-miss"},
     needsOffchip,
     [](const OrgConfig &c, const char *name) -> OrgPtr {
         return std::make_unique<AlloyCacheOrg>(c, c.offchipBytes, name);
     }},
    // Random placement comes from the frame allocator's shuffled free
    // list; the org itself never translates or moves a page.
    {OrgKind::TlmStatic, "TLM-Static", {"identity", "static"}, needsOffchip,
     [](const OrgConfig &c, const char *name) {
         return composed(c, name, std::make_unique<IdentityMapping>(),
                         std::make_unique<StaticPlacement>());
     }},
    {OrgKind::TlmDynamic, "TLM-Dynamic", {"page-remap", "nth-touch-migrate"},
     needsOffchip,
     [](const OrgConfig &c, const char *name) {
         return composed(c, name,
                         std::make_unique<PageRemapMapping>(totalPagesOf(c)),
                         std::make_unique<NthTouchMigratePlacement>(
                             stackedPagesOf(c), totalPagesOf(c), c.migrate,
                             c.seed));
     }},
    {OrgKind::TlmFreq, "TLM-Freq", {"page-remap", "epoch-frequency"},
     needsOffchip,
     [](const OrgConfig &c, const char *name) {
         return composed(c, name,
                         std::make_unique<PageRemapMapping>(totalPagesOf(c)),
                         std::make_unique<EpochFrequencyPlacement>(
                             stackedPagesOf(c), totalPagesOf(c),
                             c.freq.epochAccesses));
     }},
    {OrgKind::TlmOracle, "TLM-Oracle", {"page-remap", "oracle-heat"},
     needsOffchip,
     [](const OrgConfig &c, const char *name) {
         return composed(c, name,
                         std::make_unique<PageRemapMapping>(totalPagesOf(c)),
                         std::make_unique<OracleHeatPlacement>(
                             stackedPagesOf(c), totalPagesOf(c)));
     }},
    // The idealistic bound (Section II-D): an Alloy cache whose backing
    // memory magically grows by the stacked capacity.
    {OrgKind::DoubleUse, "DoubleUse", {"tad-tags", "install-on-miss"},
     noPrecondition,
     [](const OrgConfig &c, const char *name) -> OrgPtr {
         return std::make_unique<AlloyCacheOrg>(
             c, c.offchipBytes + c.stackedBytes, name);
     }},
    {OrgKind::Cameo, "CAMEO", {"llt-line-swap", "mru-swap"},
     needsCameoGeometry,
     [](const OrgConfig &c, const char *) -> OrgPtr {
         return std::make_unique<CameoOrg>(c);
     }},
    {OrgKind::CameoFreq, "CAMEO-Freq", {"llt-line-swap", "freq-admission"},
     needsCameoGeometry,
     [](const OrgConfig &c, const char *) -> OrgPtr {
         return std::make_unique<CameoFreqOrg>(c);
     }},
    {OrgKind::Banshee, "Banshee", {"pte-cached-remap", "sampling-frequency"},
     needsOffchip,
     [](const OrgConfig &c, const char *name) {
         return composed(c, name,
                         std::make_unique<PteCachedPageMapping>(
                             totalPagesOf(c), c.numCores, c.banshee),
                         std::make_unique<SamplingFrequencyPlacement>(
                             stackedPagesOf(c), totalPagesOf(c), c.banshee,
                             c.freq.epochAccesses, c.seed));
     }},
};

constexpr bool
rowsFollowKindOrder()
{
    for (std::size_t i = 0; i < std::size(kOrgTable); ++i) {
        if (static_cast<std::size_t>(kOrgTable[i].kind) != i)
            return false;
    }
    return true;
}
static_assert(rowsFollowKindOrder(), "kOrgTable rows must follow OrgKind");

bool
inTable(OrgKind kind)
{
    return static_cast<std::size_t>(kind) < std::size(kOrgTable);
}

const OrgRow &
rowOf(OrgKind kind)
{
    if (!inTable(kind))
        throw std::invalid_argument("unknown organization kind");
    return kOrgTable[static_cast<std::size_t>(kind)];
}

/** ASCII case-insensitive string equality (CLI org spellings). */
bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto la = std::tolower(static_cast<unsigned char>(a[i]));
        const auto lb = std::tolower(static_cast<unsigned char>(b[i]));
        if (la != lb)
            return false;
    }
    return true;
}

} // namespace

const char *
orgKindName(OrgKind kind)
{
    // Tolerates out-of-range kinds: a corrupt snapshot header names one.
    return inTable(kind) ? rowOf(kind).name : "Unknown";
}

std::optional<OrgKind>
orgKindFromName(std::string_view name)
{
    for (const OrgRow &row : kOrgTable) {
        if (iequals(name, row.name))
            return row.kind;
    }
    return std::nullopt;
}

const std::vector<OrgKind> &
allOrgKinds()
{
    static const std::vector<OrgKind> kinds = [] {
        std::vector<OrgKind> out;
        for (const OrgRow &row : kOrgTable)
            out.push_back(row.kind);
        return out;
    }();
    return kinds;
}

OrgComposition
orgComposition(OrgKind kind)
{
    return rowOf(kind).composition;
}

const char *
orgConfigError(OrgKind kind, const OrgConfig &config)
{
    if (const char *err = config.validate())
        return err;
    return rowOf(kind).precondition(config);
}

std::unique_ptr<MemoryOrganization>
makeOrganization(OrgKind kind, const OrgConfig &config)
{
    if (const char *err = orgConfigError(kind, config))
        throw std::invalid_argument(std::string(orgKindName(kind)) + ": " +
                                    err);
    const OrgRow &row = rowOf(kind);
    return row.make(config, row.name);
}

} // namespace cameo
