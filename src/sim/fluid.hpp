/**
 * @file
 * Fluid (rate-shared) resource network.
 *
 * This is the contention substrate of the cluster simulator and stands in
 * for the paper's packet-level SST + DRAMSim3 stack. Every shared piece of
 * hardware (an ICI link direction, a chip's HBM, a compute core) is a
 * `Resource` with a capacity in units/second. Work in flight (a shard
 * transfer, a GeMM's memory stream, a GeMM's FLOPs) is a `Flow` with a
 * size and a per-resource demand vector.
 *
 * Between events every flow progresses at a constant rate
 *
 *     rate(f) = min over its resources r of  alloc(f, r) / demand(f, r)
 *
 * where allocations are computed with a work-conserving saturate-and-
 * waterfill pass: flows start at their solo rate (capacity-limited on each
 * resource independently); while some resource is oversubscribed, the most
 * oversubscribed one is picked and its flows are water-filled so the
 * heaviest consumers are cut to an equal consumption level that exactly
 * fills the capacity. This reproduces the first-order behaviour the paper
 * relies on: NIC transfers capped by link bandwidth, compute streams using
 * the *remaining* HBM bandwidth, and slowdowns when the sum oversubscribes
 * HBM (the NIC<->core interference of Sec 4.1).
 *
 * Event batching (the default): per-resource accounting is settled
 * *lazily* — only resources whose load is about to change are brought
 * up to date, instead of sweeping every registered resource at every
 * event. Between settles a resource's load is constant, so the deferred
 * segment is recovered exactly (`resourceStats` folds the unsettled
 * tail on read) and the conservation law `busy + idle == wall` holds.
 * Likewise the waterfill and the load-refresh loops touch only the
 * resources that current flows actually demand. This turns the
 * per-event cost from O(all resources) into O(active members) — the
 * difference between a 100-chip and a 100k-chip torus being simulable.
 *
 * Flows live in stable slots of a table, reused through a free list,
 * and every pass over them walks the live flows in start (`FlowId`)
 * order. So each load is summed, each member list is built and each
 * same-instant completion is scheduled in start order, and a run's
 * exact floating-point results do not depend on how a container lays
 * out its entries.
 *
 * The waterfill's pick comes from a lazy max-heap of those member
 * resources, keyed by oversubscription ratio (load over capacity,
 * highest first, lowest resource id on ties) and built once per
 * recompute. Rates only fall during a waterfill, and IEEE multiply,
 * add and divide are monotone, so with loads summed in flow-id order
 * a key is an upper bound on its resource's current ratio. A
 * popped key that still equals the recomputed ratio is therefore the
 * most oversubscribed resource, lowest id on ties: the pick of a full
 * scan in increasing resource id. A stale key goes back with its new
 * ratio while that still oversubscribes. Picks, rates, completion
 * times and event counts are bit-identical to that scan; a pick costs
 * only the popped resources' member lists plus heap operations.
 */
#ifndef MESHSLICE_SIM_FLUID_HPP_
#define MESHSLICE_SIM_FLUID_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/critical_path.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace meshslice {

using ResourceId = std::int32_t;
using FlowId = std::int64_t;

/** One resource requirement of a flow. */
struct Demand
{
    ResourceId resource;
    /** Resource units consumed per flow unit (e.g. bytes per FLOP). */
    double perUnit;
};

/** Snapshot of a resource's accounting, for tests and reports. */
struct ResourceStats
{
    std::string name;
    double capacity = 0.0;
    /** Capacity the resource was registered with (fault-free value). */
    double nominalCapacity = 0.0;
    /**
     * Seconds during which the resource ran below its nominal capacity
     * (a fault injector degraded it) or was unavailable entirely. This
     * is where "degraded-seconds" land for robustness reports.
     */
    double degradedTime = 0.0;
    /** False while the resource is down (flows demanding it park). */
    bool available = true;
    /** Total units consumed so far (integral of load over time). */
    double totalConsumed = 0.0;
    /** Integral of load/capacity over time (busy-seconds). */
    double busyTime = 0.0;
    /**
     * Integral of (1 - load/capacity): seconds of unused capacity.
     * Tracked independently of `busyTime` so the conservation law
     * `busyTime + idleTime == now - createdAt` is a real check of the
     * accounting (a missed advance breaks it).
     */
    double idleTime = 0.0;
    /**
     * Seconds during which the flows' *uncontended* demand exceeded the
     * capacity — i.e. the rate-sharing waterfill actually cut somebody.
     * This is the fluid-model analogue of queueing/contention time.
     */
    double contentionTime = 0.0;
    /** Simulated time the resource was registered (accounting start). */
    Time createdAt = 0.0;
    int activeFlows = 0;
};

/**
 * Rate-shared resources and flows on top of a `Simulator`.
 *
 * Rates are recomputed lazily: flow arrivals/departures mark the network
 * dirty and a zero-delay event performs one recomputation per timestamp,
 * so batches of simultaneous changes (all chips of a ring step) cost one
 * global update.
 */
class FluidNetwork
{
  public:
    explicit FluidNetwork(Simulator &sim);

    /** Create a resource with @p capacity units/second. */
    ResourceId addResource(std::string name, double capacity);

    /**
     * Change a resource's capacity (takes effect at next recompute).
     * Accounting of the elapsed segment is settled at the *old*
     * capacity first, so time-varying capacities attribute busy/idle/
     * degraded seconds to the correct windows and the conservation law
     * `busy + idle == wall` keeps holding.
     */
    void setCapacity(ResourceId id, double capacity);

    /**
     * Mark a resource up/down. Flows demanding a down resource park at
     * rate zero (they freeze, keeping their progress) and resume when
     * the resource comes back. If the simulation drains its event
     * queue while flows are parked, the watchdog aborts with a
     * diagnostic dump instead of silently finishing early.
     */
    void setAvailable(ResourceId id, bool available);

    /** True unless `setAvailable(id, false)` is in effect. */
    bool isAvailable(ResourceId id) const;

    double capacity(ResourceId id) const;

    /** The capacity the resource was registered with. */
    double nominalCapacity(ResourceId id) const;

    /** Registered name of @p id (e.g. "link.E.b0.r0.c1"). */
    const std::string &resourceName(ResourceId id) const;

    /**
     * Diagnostic dump of flows that can never finish (parked on a down
     * resource) plus any other still-active flows; "" when no flow is
     * outstanding. Installed as the simulator's quiescence check.
     */
    std::string stallDiagnostic() const;

    /**
     * Start a flow of @p size units with the given demand vector.
     * @p on_complete fires when the flow finishes. Demands must be
     * non-empty with positive coefficients.
     * @return id usable with `isActive`; ids grow with start order and
     * are never reused within a network. A zero-size flow gets id 0,
     * which is never active.
     */
    FlowId startFlow(double size, std::vector<Demand> demands,
                     std::function<void()> on_complete);

    /** True while the flow @p id runs (started, not finished or
     *  cancelled). */
    bool isActive(FlowId id) const
    {
        return id > 0 && slotOf(id) < flows_.size() &&
               flows_[slotOf(id)].id == id;
    }

    /**
     * Abort an in-flight flow without running its completion callback.
     * Progress made so far stays attributed to the resources (the
     * elapsed segment is settled first), the pending completion event
     * is cancelled, and the flow is removed — this is how a collective
     * abandons transfers stranded on a chip that failed permanently.
     * @return false if @p id is unknown or already finished (callers
     * racing with natural completion need not care).
     */
    bool cancelFlow(FlowId id);

    size_t activeFlowCount() const
    {
        return flows_.size() - freeFlowSlots_.size();
    }

    /** Number of registered resources (ids are [0, resourceCount)). */
    size_t resourceCount() const { return resources_.size(); }

    /** Accounting snapshot for @p id (updated through current time). */
    ResourceStats resourceStats(ResourceId id) const;

    /** Current rate of an active flow (units/s), 0 if finished. */
    double flowRate(FlowId id) const;

    /**
     * Publish per-flow critical-path info (binding resource, throttled
     * seconds, per-class solo floors) for the span-graph profiler.
     * Purely observational: rates, completion times and event counts
     * are bit-identical with publishing on or off, and the off path
     * allocates nothing extra.
     */
    void setPublishFlowInfo(bool on) { publishFlowInfo_ = on; }
    bool publishFlowInfo() const { return publishFlowInfo_; }

    /**
     * Info about the most recently finished flow, valid only during
     * that flow's completion callback (zero-size flows publish an
     * invalid record). Callers fold this into their span nodes.
     */
    const FlowEndInfo &lastFinishedFlow() const { return lastFlowInfo_; }

  private:
    struct Resource
    {
        std::string name;
        double capacity = 0.0;
        double nominalCapacity = 0.0;
        bool available = true;
        double load = 0.0; // current total consumption rate
        /** Sum of the flows' *solo* (uncontended) consumption rates;
         *  load < soloLoad means rate-sharing is cutting someone. */
        double soloLoad = 0.0;
        double totalConsumed = 0.0;
        double busyTime = 0.0;
        double idleTime = 0.0;
        double contentionTime = 0.0;
        double degradedTime = 0.0;
        Time createdAt = 0.0;
        Time lastUpdate = 0.0;
        int activeFlows = 0;
    };

    struct Flow
    {
        /** (start sequence << 32) | slot; 0 marks a free slot. */
        FlowId id = 0;
        double remaining = 0.0;
        double rate = 0.0;
        Time lastUpdate = 0.0;
        std::vector<Demand> demands;
        std::function<void()> onComplete;
        EventId completion;
        // --- profiler fields, maintained only while publishFlowInfo_
        double size = 0.0;     ///< original size (for solo floors)
        double soloRate = 0.0; ///< uncontended rate of last recompute
        double throttled = 0.0; ///< integral of (1 - rate/solo) dt
        ResourceId binding = -1; ///< rate-limiting resource
    };

    static size_t slotOf(FlowId id)
    {
        return static_cast<size_t>(id & 0xffffffff);
    }

    void markDirty();
    void recompute();
    void advanceFlow(Flow &flow);
    /** Settle one resource's busy/idle/contention/degraded integrals
     *  up to the current time (load is constant since `lastUpdate`). */
    void settleResource(Resource &res);
    /** Settle the resources whose load is about to change: everything
     *  loaded by the previous rate assignment plus @p demands. */
    void settleFlowResources(const std::vector<Demand> &demands);
    void finishFlow(FlowId id);
    /** Free @p flow's slot and release its resources' flow counts. */
    void releaseFlow(Flow &flow);

    Simulator &sim_;
    std::vector<Resource> resources_;
    /** Flow table: a slot keeps its record until the flow ends. */
    std::vector<Flow> flows_;
    std::vector<std::uint32_t> freeFlowSlots_;
    /** Ids of started flows in start order. Ids of flows that ended
     *  since the last recompute stay until it drops them. */
    std::vector<FlowId> liveIds_;
    FlowId nextFlowSeq_ = 1;
    bool dirty_ = false;
    bool publishFlowInfo_ = false;
    FlowEndInfo lastFlowInfo_;

    // --- recompute scratch, reused across calls (capacity persists so
    // steady-state recomputes allocate nothing) ---
    std::vector<double> scratchRate_;
    std::vector<double> scratchSolo_;
    std::vector<char> scratchParked_;
    /** Binding resource per flow (profiler only; empty when off). */
    std::vector<ResourceId> scratchBinding_;
    /** Resources demanded by at least one non-parked flow this round. */
    std::vector<ResourceId> memberIds_;
    /** memberLists_[memberSlot_[r]] = (liveIds_ index, coeff) pairs on r;
     *  valid while resourceEpoch_[r] == epoch_. */
    std::vector<std::vector<std::pair<std::size_t, double>>> memberLists_;
    std::vector<std::int32_t> memberSlot_;
    std::vector<std::uint64_t> resourceEpoch_;
    std::uint64_t epoch_ = 0;
    /** Waterfill pick heap: (oversubscription ratio, resource) keys of
     *  members not yet processed, highest ratio then lowest id first. */
    std::vector<std::pair<double, ResourceId>> overloadHeap_;
    /** (consumption, member list index) on the resource being filled. */
    std::vector<std::pair<double, std::size_t>> consumption_;
    /** Resources carrying nonzero load from the previous assignment. */
    std::vector<ResourceId> loadedIds_;
};

} // namespace meshslice

#endif // MESHSLICE_SIM_FLUID_HPP_
