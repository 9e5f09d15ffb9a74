/**
 * @file
 * MemoryOrganization: the interface every stacked-DRAM usage model
 * implements, plus the factory used by System and the benches.
 *
 * The base class owns the DRAM modules (the off-chip one and, for all
 * kinds but Baseline, the stacked one). A concrete organization decides
 * how OS-physical line addresses map onto them and models the timing
 * of each access. It also reports the OS-visible capacity it exposes —
 * the property that separates a cache (stacked DRAM invisible) from
 * TLM/CAMEO (visible), and therefore drives the page-fault behaviour of
 * Capacity-Limited workloads.
 *
 * Requesters enter through submit(), the transaction front door
 * (DESIGN.md §9): it wraps the access() timing model in a
 * MemRequest and delivers the completion to the issuing MemClient —
 * synchronously in Blocking timing (the legacy control flow,
 * bit-identical stats), or through the bound SimKernel event queue at
 * the completion tick in Queued timing.
 */

#ifndef CAMEO_ORGS_MEMORY_ORGANIZATION_HH
#define CAMEO_ORGS_MEMORY_ORGANIZATION_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/audit.hh"
#include "snapshot/snapshot.hh"
#include "core/cameo_controller.hh"
#include "dram/dram_module.hh"
#include "dram/queue_config.hh"
#include "dram/timings.hh"
#include "orgs/policy/page_heat.hh"
#include "orgs/policy/policy_config.hh"
#include "sim/event_queue.hh"
#include "sim/fidelity.hh"
#include "sim/mem_request.hh"
#include "stats/registry.hh"
#include "util/types.hh"
#if CAMEO_AUDIT_ENABLED
#include "check/queue_auditor.hh"
#endif

namespace cameo
{

/**
 * The designs compared throughout the paper's evaluation. The
 * organization table in memory_organization.cc holds one row per kind
 * (name, composition, preconditions, factory), in this order.
 */
enum class OrgKind
{
    Baseline,   ///< No stacked DRAM; off-chip only.
    AlloyCache, ///< Stacked DRAM as an Alloy (direct-mapped TAD) cache.
    TlmStatic,  ///< Two-Level Memory, random static page placement.
    TlmDynamic, ///< TLM + page swap on off-chip access (Section II-C).
    TlmFreq,    ///< TLM + epoch-based frequency placement (Sec VI-D).
    TlmOracle,  ///< TLM + oracular page placement (Section VI-D).
    DoubleUse,  ///< Idealistic: cache AND extra capacity (Sec II-D).
    Cameo,      ///< The paper's proposal.
    CameoFreq,  ///< CAMEO + frequency-directed swap admission (the
                ///< Section VI-D extension; see orgs/cameo_freq.hh).
    Banshee,    ///< PTE-cached page mapping + sampling-counter
                ///< frequency placement (Yu et al., MICRO 2017).
};

/** Printable name of an organization kind. */
const char *orgKindName(OrgKind kind);

/**
 * Inverse of orgKindName: parse @p name (case-insensitively, so CLI
 * spellings like "tlm-static" and "cameo-freq" work) into a kind.
 * Empty optional for unknown names.
 */
std::optional<OrgKind> orgKindFromName(std::string_view name);

/** Every OrgKind, in enum order (CLI listings, test matrices). */
const std::vector<OrgKind> &allOrgKinds();

/**
 * The mapping x placement pair an organization kind composes
 * (DESIGN.md §14). For ComposedOrg-based kinds these are live
 * PolicyName strings; for the monolith-hosted kinds (Baseline, the
 * Alloy family, the CAMEO family) they name the policy the org's
 * fused hot path implements.
 */
struct OrgComposition
{
    const char *mapping;
    const char *placement;
};

/** Composition table entry for @p kind. */
OrgComposition orgComposition(OrgKind kind);

/** Everything needed to construct any organization. */
struct OrgConfig
{
    std::uint64_t stackedBytes = 8ull << 20;
    std::uint64_t offchipBytes = 24ull << 20;
    DramTimings stacked = stackedTimings();
    DramTimings offchip = offchipTimings();
    std::uint32_t numCores = 8;
    std::uint64_t seed = 42;

    /** Per-policy design points (orgs/policy/policy_config.hh). */
    LltPolicyConfig llt;
    FreqPolicyConfig freq;
    MigratePolicyConfig migrate;
    BansheePolicyConfig banshee;

    /**
     * Memory-pipeline timing mode. Blocking reproduces the original
     * synchronous semantics bit-for-bit; Queued enables the DRAM
     * controller queues and event-delivered completions.
     */
    TimingMode timingMode = TimingMode::Blocking;

    /** DRAM controller queue geometry (Queued timing only). */
    DramQueueConfig queues;

    /**
     * First violated constraint across the shared fields and every
     * policy sub-config; nullptr when the whole config is valid.
     */
    const char *validate() const;
};

/**
 * The DRAM modules one organization kind is built over. Every kind
 * uses the config's off-chip timings; the kinds differ in the stacked
 * timing map (the Alloy family's 28 TADs and CAMEO CoLocated's 31
 * LEADs per row) and in the module sizes (the Embedded LLT reserve,
 * DoubleUse's larger backing store).
 */
struct DramLayout
{
    DramTimings stacked;
    std::uint64_t stackedBytes = 0; ///< 0: no stacked module (Baseline).
    std::uint64_t offchipBytes = 0;
};

/** Base class for all stacked-DRAM usage models. */
class MemoryOrganization : public Checkpointable
{
  public:
    ~MemoryOrganization() override;

    MemoryOrganization(const MemoryOrganization &) = delete;
    MemoryOrganization &operator=(const MemoryOrganization &) = delete;

    /**
     * Service one OS-physical line access at Detailed fidelity.
     *
     * @param now      Request time.
     * @param line     OS-physical line address.
     * @param is_write L3 writeback (true) or demand fill (false).
     * @param pc       Missing instruction address (for predictors).
     * @param core     Requesting core id.
     * @return Data-arrival time for reads; acceptance time for writes.
     */
    Tick access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core)
    {
        return serve(now, line, is_write, pc, core, Fidelity::Detailed);
    }

    /**
     * The same access at Functional fidelity (DESIGN.md §13): the one
     * serve() path runs with no clock and bills no DRAM, so every
     * architectural state update of access() happens identically by
     * construction.
     */
    void accessFunctional(LineAddr line, bool is_write, InstAddr pc,
                          std::uint32_t core)
    {
        serve(0, line, is_write, pc, core, Fidelity::Functional);
    }

    /**
     * Reset all timing state while preserving architectural state: the
     * DRAM modules' bank/bus reservations, controller queues, protocol
     * auditor and counters, and the transaction auditor's request ids
     * and delivery clock, go back to power-on. System calls this at
     * the warmup→measured switch (after the warmup phase has drained)
     * so functional- and detailed-warmup runs enter the measured
     * region with identical timing state.
     */
    void resetTiming();

    /**
     * Submit one transaction to the memory pipeline. Timing comes from
     * the access() model; completion delivery depends on the
     * mode: Blocking invokes @p client->onMemComplete before returning
     * (identical control flow to calling access() directly), Queued
     * schedules it on the bound event queue at the completion tick.
     *
     * @param now      Request time (requester's local clock).
     * @param line     OS-physical line address.
     * @param is_write L3 writeback (true) or demand fill (false).
     * @param pc       Missing instruction address (for predictors).
     * @param core     Requesting core id.
     * @param tag      Requester-chosen tag carried back in the
     *                 completion (kNoTag when unused).
     * @param client   Completion receiver; nullptr for fire-and-forget
     *                 requests (posted writebacks).
     * @return The completion tick (also delivered to @p client).
     */
    Tick submit(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core, std::uint64_t tag = kNoTag,
                MemClient *client = nullptr);

    /**
     * Bind (or with nullptr, unbind) the event queue that Queued-mode
     * completions are scheduled on. System binds its kernel's queue for
     * the duration of a run. Unbound, submit() delivers synchronously
     * even in Queued timing.
     */
    void bindEventQueue(EventQueue *events)
    {
        events_ = events;
#if CAMEO_AUDIT_ENABLED
        // Unbinding marks end-of-run: every submitted transaction must
        // have completed by now (the kernel drains leftover events).
        if (events == nullptr)
            queueAudit_.checkDrained();
#endif
    }

    /** The pipeline timing mode this organization was built with. */
    TimingMode timingMode() const { return timingMode_; }

    /** OS-visible memory capacity in bytes (whole pages). */
    virtual std::uint64_t visibleBytes() const = 0;

    /**
     * Register the DRAM modules' statistics (stacked first), then the
     * organization's own (registerOwnStats()).
     */
    void registerStats(StatRegistry &registry);

    /** Stacked module, if this organization has one. */
    DramModule *stackedModule() { return stacked_ ? &*stacked_ : nullptr; }
    const DramModule *stackedModule() const
    {
        return stacked_ ? &*stacked_ : nullptr;
    }

    /** Off-chip module (every organization has one). */
    DramModule &offchipModule() { return offchip_; }
    const DramModule &offchipModule() const { return offchip_; }

    /**
     * Hook: a virtual page became resident in @p frame. TLM-Oracle uses
     * this to steer placement; others ignore it.
     */
    virtual void onPageMapped(std::uint32_t frame, std::uint32_t core,
                              PageAddr vpage);

    /** CAMEO controller, if this organization is CAMEO. */
    virtual const CameoController *cameo() const { return nullptr; }

    /**
     * Inject oracular page heat. Returns true when the organization's
     * placement consumed the oracle (TLM-Oracle); false when it takes
     * none — callers that require the oracle report that as an error
     * rather than asserting.
     */
    virtual bool setPageHeat(PageHeatMap heat);

    /**
     * Checkpointable: the base serializes the transaction-id cursor,
     * the in-flight (queued, undelivered) requests, and the DRAM
     * modules. Concrete organizations override both, write their own
     * mutable state, and chain to the base first so the byte layout is
     * stable across the hierarchy.
     */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;

    /**
     * Re-schedule the completions of requests that were in flight when
     * the snapshot was taken. Must be called after restore() and after
     * bindEventQueue() (Queued mode with live requests only);
     * @p client_of maps a core id to its completion receiver — restore
     * assumes every in-flight request's client is its issuing core,
     * which holds for System-driven runs.
     */
    void rescheduleInflight(
        const std::function<MemClient *(std::uint32_t)> &client_of);

    /** Number of submitted-but-undelivered requests (Queued mode). */
    std::size_t inflightCount() const
    {
        return inflight_.size() - freeInflight_.size();
    }

    const std::string &name() const { return name_; }

  protected:
    /**
     * Build the modules of @p dram: "dram.offchip" with the config's
     * off-chip timings and, when @p dram has stacked bytes,
     * "dram.stacked". Both adopt @p config's timing mode and queue
     * geometry here, before anything registers stats (queued-only
     * DRAM statistics register conditionally on the mode).
     */
    MemoryOrganization(std::string name, const OrgConfig &config,
                       const DramLayout &dram);

    /**
     * The organization's one access path, shared by both fidelities:
     * tag arrays, LLT permutations, predictor training, heat counters,
     * migration decisions, RNG draws and demand-routing counters update
     * identically, and every DRAM command goes through charge()
     * (dram/dram_module.hh), which bills nothing at Functional
     * fidelity. Queue-occupancy queries (the wasted-fetch split) run
     * only at Detailed fidelity.
     *
     * @return Completion time at Detailed fidelity; unspecified at
     *         Functional fidelity.
     */
    virtual Tick serve(Tick now, LineAddr line, bool is_write, InstAddr pc,
                       std::uint32_t core, Fidelity fidelity) = 0;

    /** Register the organization's own statistics (default: none). */
    virtual void registerOwnStats(StatRegistry &registry);

    /** Stacked module, held in place; empty for Baseline. */
    std::optional<DramModule> stacked_;
    DramModule offchip_;

  private:
    /** A submitted request whose completion has not been delivered. */
    struct InflightRequest
    {
        MemRequest req;
        Tick done = 0;
        MemClient *client = nullptr; ///< Not serialized; see restore().
    };

    /** Request id of a free in-flight slot (submit() numbers from 1). */
    static constexpr std::uint64_t kFreeSlotId = 0;

    /** Park @p f in a free in-flight slot; returns the slot index. */
    std::uint32_t admitInflight(const InflightRequest &f);

    /**
     * Schedule the completion of the request in @p slot on the bound
     * event queue. The callback captures only `{this, slot}`, which
     * std::function stores inline, so scheduling never allocates.
     */
    void scheduleCompletion(std::uint32_t slot);

    /** Retire @p slot and deliver its completion at @p when. */
    void completeInflight(std::uint32_t slot, Tick when);

    /** Live in-flight slots in request-id (= submission) order. */
    std::vector<std::uint32_t> inflightById() const;

    std::string name_;
    TimingMode timingMode_;
    EventQueue *events_ = nullptr;
    std::uint64_t lastRequestId_ = 0;

    /**
     * Slot pool of queued, undelivered requests — the serializable
     * image of the kernel's pending completion events. A completion
     * frees its slot for reuse, so slot order is not submission order;
     * save() and rescheduleInflight() sort live slots by request id.
     * Empty in Blocking mode.
     */
    std::vector<InflightRequest> inflight_;
    /** Free slots of inflight_ (reused LIFO). */
    std::vector<std::uint32_t> freeInflight_;

#if CAMEO_AUDIT_ENABLED
    /** Shadow accounting of every submitted transaction. */
    QueueInvariantAuditor queueAudit_;
#endif
};

/**
 * Why @p config cannot build an organization of @p kind: the first
 * violated constraint of OrgConfig::validate(), then the kind's own
 * preconditions (the CAMEO family's power-of-two stacked lines and
 * integral capacity ratio of at most 16 lines per congruence group; a
 * non-empty off-chip memory for every kind but DoubleUse). nullptr when the pair is buildable. Front ends call
 * this to reject a bad design point before running anything.
 */
const char *orgConfigError(OrgKind kind, const OrgConfig &config);

/**
 * Construct an organization of @p kind from @p config.
 *
 * @throws std::invalid_argument carrying orgConfigError() when the
 *         pair is not buildable.
 */
std::unique_ptr<MemoryOrganization> makeOrganization(OrgKind kind,
                                                     const OrgConfig &config);

} // namespace cameo

#endif // CAMEO_ORGS_MEMORY_ORGANIZATION_HH
