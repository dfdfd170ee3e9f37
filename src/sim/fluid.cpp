#include "sim/fluid.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace meshslice {

namespace {

/// Relative tolerance for "resource is oversubscribed" checks.
constexpr double kOverloadEps = 1e-9;

/// Relative tolerance for "capacity is below nominal" (degraded).
constexpr double kDegradedEps = 1e-12;

} // namespace

FluidNetwork::FluidNetwork(Simulator &sim) : sim_(sim)
{
    // Watchdog: flows parked on a down resource have no completion
    // event; if the queue drains while any flow is outstanding the
    // simulation stalled rather than finished.
    sim_.addQuiescenceCheck([this] { return stallDiagnostic(); });
}

ResourceId
FluidNetwork::addResource(std::string name, double capacity)
{
    if (capacity <= 0.0)
        panic("FluidNetwork: resource '%s' needs positive capacity",
              name.c_str());
    Resource res;
    res.name = std::move(name);
    res.capacity = capacity;
    res.nominalCapacity = capacity;
    res.createdAt = sim_.now();
    res.lastUpdate = sim_.now();
    resources_.push_back(std::move(res));
    resourceEpoch_.push_back(0);
    memberSlot_.push_back(-1);
    return static_cast<ResourceId>(resources_.size() - 1);
}

void
FluidNetwork::setCapacity(ResourceId id, double capacity)
{
    if (capacity <= 0.0)
        panic("FluidNetwork: capacity must be positive");
    // Settle the elapsed segment at the old capacity so busy/idle/
    // degraded seconds are attributed to the window they belong to.
    settleResource(resources_.at(static_cast<size_t>(id)));
    resources_.at(static_cast<size_t>(id)).capacity = capacity;
    markDirty();
}

void
FluidNetwork::setAvailable(ResourceId id, bool available)
{
    settleResource(resources_.at(static_cast<size_t>(id)));
    resources_.at(static_cast<size_t>(id)).available = available;
    markDirty();
}

bool
FluidNetwork::isAvailable(ResourceId id) const
{
    return resources_.at(static_cast<size_t>(id)).available;
}

double
FluidNetwork::capacity(ResourceId id) const
{
    return resources_.at(static_cast<size_t>(id)).capacity;
}

double
FluidNetwork::nominalCapacity(ResourceId id) const
{
    return resources_.at(static_cast<size_t>(id)).nominalCapacity;
}

const std::string &
FluidNetwork::resourceName(ResourceId id) const
{
    return resources_.at(static_cast<size_t>(id)).name;
}

std::string
FluidNetwork::stallDiagnostic() const
{
    if (activeFlowCount() == 0)
        return "";
    std::string out = strprintf("%zu flow(s) still outstanding:\n",
                                activeFlowCount());
    for (FlowId id : liveIds_) {
        if (!isActive(id))
            continue;
        const Flow &flow = flows_[slotOf(id)];
        out += strprintf("  flow %lld: remaining %.6g units, rate %.6g "
                         "units/s, demands:",
                         static_cast<long long>(id), flow.remaining,
                         flow.rate);
        for (const Demand &d : flow.demands) {
            const Resource &res =
                resources_[static_cast<size_t>(d.resource)];
            out += strprintf(" %s%s", res.name.c_str(),
                             res.available ? "" : " [DOWN]");
        }
        out += '\n';
    }
    out += "hint: a collective is likely waiting on a dead link with no "
           "fallback; check the fault scenario or rebuild the ring "
           "around the failure.";
    return out;
}

FlowId
FluidNetwork::startFlow(double size, std::vector<Demand> demands,
                        std::function<void()> on_complete)
{
    if (size < 0.0)
        panic("FluidNetwork: negative flow size %g", size);
    if (size == 0.0) {
        // Zero-size work completes after the current event batch.
        if (publishFlowInfo_) {
            // No flow ran, so no binding/throttle info: invalidate the
            // stash so the callback cannot read a predecessor's.
            sim_.scheduleAfter(0.0,
                               [this, cb = std::move(on_complete)] {
                                   lastFlowInfo_ = FlowEndInfo{};
                                   if (cb)
                                       cb();
                               });
        } else {
            sim_.scheduleAfter(0.0, std::move(on_complete));
        }
        return 0;
    }
    if (demands.empty())
        panic("FluidNetwork: flow needs at least one demand");
    for (const auto &d : demands) {
        if (d.resource < 0 ||
            static_cast<size_t>(d.resource) >= resources_.size())
            panic("FluidNetwork: bad resource id %d", d.resource);
        if (d.perUnit <= 0.0)
            panic("FluidNetwork: demand coefficients must be positive");
    }

    if (nextFlowSeq_ > 0x7fffffff)
        panic("FluidNetwork: more than 2^31 flows in one network");
    std::uint32_t slot;
    if (!freeFlowSlots_.empty()) {
        slot = freeFlowSlots_.back();
        freeFlowSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(flows_.size());
        flows_.emplace_back();
    }
    const FlowId id = (nextFlowSeq_++ << 32) | slot;
    Flow &flow = flows_[slot];
    flow.id = id;
    flow.remaining = size;
    flow.size = size;
    flow.lastUpdate = sim_.now();
    flow.demands = std::move(demands);
    flow.onComplete = std::move(on_complete);
    for (const auto &d : flow.demands)
        resources_[static_cast<size_t>(d.resource)].activeFlows++;
    liveIds_.push_back(id);
    markDirty();
    return id;
}

bool
FluidNetwork::cancelFlow(FlowId id)
{
    if (!isActive(id))
        return false;
    // Settle accounting so the work done before the abort stays
    // attributed to the correct window, then drop the flow without
    // invoking its completion callback.
    Flow &flow = flows_[slotOf(id)];
    settleFlowResources(flow.demands);
    advanceFlow(flow);
    sim_.cancel(flow.completion);
    releaseFlow(flow);
    return true;
}

ResourceStats
FluidNetwork::resourceStats(ResourceId id) const
{
    const Resource &res = resources_.at(static_cast<size_t>(id));
    ResourceStats stats;
    stats.name = res.name;
    stats.capacity = res.capacity;
    stats.nominalCapacity = res.nominalCapacity;
    stats.available = res.available;
    double dt = sim_.now() - res.lastUpdate;
    const double frac = std::min(1.0, res.load / res.capacity);
    stats.totalConsumed = res.totalConsumed + res.load * dt;
    stats.busyTime = res.busyTime + frac * dt;
    stats.idleTime = res.idleTime + (1.0 - frac) * dt;
    stats.contentionTime = res.contentionTime;
    if (res.soloLoad > res.capacity * (1.0 + kOverloadEps))
        stats.contentionTime += dt;
    stats.degradedTime = res.degradedTime;
    if (!res.available ||
        res.capacity < res.nominalCapacity * (1.0 - kDegradedEps))
        stats.degradedTime += dt;
    stats.createdAt = res.createdAt;
    stats.activeFlows = res.activeFlows;
    return stats;
}

double
FluidNetwork::flowRate(FlowId id) const
{
    return isActive(id) ? flows_[slotOf(id)].rate : 0.0;
}

void
FluidNetwork::markDirty()
{
    if (dirty_)
        return;
    dirty_ = true;
    sim_.scheduleAfter(0.0, [this] { recompute(); });
}

void
FluidNetwork::advanceFlow(Flow &flow)
{
    double dt = sim_.now() - flow.lastUpdate;
    if (dt > 0.0) {
        flow.remaining -= flow.rate * dt;
        if (flow.remaining < 0.0)
            flow.remaining = 0.0;
        if (publishFlowInfo_ && flow.soloRate > 0.0) {
            flow.throttled +=
                dt * std::max(0.0, 1.0 - flow.rate / flow.soloRate);
        }
    }
    flow.lastUpdate = sim_.now();
}

void
FluidNetwork::settleResource(Resource &res)
{
    double dt = sim_.now() - res.lastUpdate;
    if (dt > 0.0) {
        const double frac = std::min(1.0, res.load / res.capacity);
        res.totalConsumed += res.load * dt;
        res.busyTime += frac * dt;
        res.idleTime += (1.0 - frac) * dt;
        if (res.soloLoad > res.capacity * (1.0 + kOverloadEps))
            res.contentionTime += dt;
        if (!res.available ||
            res.capacity < res.nominalCapacity * (1.0 - kDegradedEps))
            res.degradedTime += dt;
    }
    res.lastUpdate = sim_.now();
}

void
FluidNetwork::settleFlowResources(const std::vector<Demand> &demands)
{
    // Settling twice at one timestamp is harmless (dt == 0), so no
    // dedup is needed.
    for (const Demand &d : demands)
        settleResource(resources_[static_cast<size_t>(d.resource)]);
}

void
FluidNetwork::finishFlow(FlowId id)
{
    if (!isActive(id))
        return; // cancelled completion that raced with a reschedule
    Flow &flow = flows_[slotOf(id)];
    settleFlowResources(flow.demands);
    advanceFlow(flow);
    if (publishFlowInfo_) {
        // Stash the profiler view of this flow before it is released;
        // the completion callback reads it via lastFinishedFlow().
        FlowEndInfo info;
        info.valid = true;
        if (flow.binding >= 0)
            info.binding =
                resources_[static_cast<size_t>(flow.binding)].name;
        info.throttledSeconds = flow.throttled;
        for (const Demand &d : flow.demands) {
            const Resource &res =
                resources_[static_cast<size_t>(d.resource)];
            double solo_s = flow.size * d.perUnit / res.capacity;
            switch (resourceClassOf(res.name)) {
              case ResourceClass::kCore:
                info.coreFloor = std::max(info.coreFloor, solo_s);
                break;
              case ResourceClass::kHbm:
                info.hbmFloor = std::max(info.hbmFloor, solo_s);
                break;
              case ResourceClass::kLink:
                info.linkFloor = std::max(info.linkFloor, solo_s);
                break;
              default:
                break;
            }
        }
        lastFlowInfo_ = std::move(info);
    }
    std::function<void()> cb = std::move(flow.onComplete);
    releaseFlow(flow);
    if (cb)
        cb();
}

void
FluidNetwork::releaseFlow(Flow &flow)
{
    for (const auto &d : flow.demands)
        resources_[static_cast<size_t>(d.resource)].activeFlows--;
    freeFlowSlots_.push_back(static_cast<std::uint32_t>(slotOf(flow.id)));
    flow = Flow{};
    markDirty();
}

void
FluidNetwork::recompute()
{
    dirty_ = false;

    // The live flows in start order are the working set: drop the ids
    // of flows that ended since the last recompute. (Scratch vectors
    // keep their capacity across recomputes, so the steady state
    // allocates nothing.)
    size_t n = 0;
    for (FlowId id : liveIds_) {
        if (!isActive(id))
            continue;
        advanceFlow(flows_[slotOf(id)]);
        liveIds_[n++] = id;
    }
    liveIds_.resize(n);
    auto flow_at = [this](size_t i) -> Flow & {
        return flows_[slotOf(liveIds_[i])];
    };

    // Solo rates: each flow limited by every resource's full capacity.
    // Flows demanding a *down* resource park at rate zero: they keep
    // their progress, get no completion event, and resume when the
    // resource comes back up.
    scratchRate_.assign(n, 0.0);
    scratchParked_.assign(n, 0);
    if (publishFlowInfo_)
        scratchBinding_.assign(n, -1);
    for (size_t i = 0; i < n; ++i) {
        const Flow &flow = flow_at(i);
        double r = 1e300;
        for (const auto &d : flow.demands) {
            const Resource &res =
                resources_[static_cast<size_t>(d.resource)];
            if (!res.available) {
                scratchParked_[i] = 1;
                break;
            }
            double lim = res.capacity / d.perUnit;
            if (lim < r) {
                r = lim;
                if (publishFlowInfo_)
                    scratchBinding_[i] = d.resource;
            }
        }
        scratchRate_[i] = scratchParked_[i] ? 0.0 : r;
    }
    // Snapshot of the uncontended rates (the waterfill mutates the
    // working rates), for the per-resource contention attribution.
    scratchSolo_ = scratchRate_;

    // Per-resource membership, built only for resources that current
    // flows actually demand: (flow index, demand coefficient). Parked
    // flows consume nothing and stay out of the waterfill.
    ++epoch_;
    memberIds_.clear();
    for (size_t i = 0; i < n; ++i) {
        if (scratchParked_[i])
            continue;
        for (const auto &d : flow_at(i).demands) {
            const size_t r = static_cast<size_t>(d.resource);
            if (resourceEpoch_[r] != epoch_) {
                resourceEpoch_[r] = epoch_;
                memberSlot_[r] =
                    static_cast<std::int32_t>(memberIds_.size());
                if (memberLists_.size() <= memberIds_.size())
                    memberLists_.emplace_back();
                memberLists_[memberIds_.size()].clear();
                memberIds_.push_back(d.resource);
            }
            memberLists_[static_cast<size_t>(memberSlot_[r])]
                .emplace_back(i, d.perUnit);
        }
    }

    // Settle accounting for every resource whose load may change:
    // whatever the previous assignment loaded plus this round's
    // members. Untouched resources keep a constant load, so their
    // deferred segment is recovered exactly on the next settle or
    // stats read.
    for (ResourceId r : loadedIds_)
        settleResource(resources_[static_cast<size_t>(r)]);
    for (ResourceId r : memberIds_)
        settleResource(resources_[static_cast<size_t>(r)]);

    // Saturate-and-waterfill: repeatedly pick the most oversubscribed
    // resource (lowest id on ties) and cut its heaviest consumers to an
    // equal consumption level that exactly fills the capacity. Rates
    // only decrease, so each resource needs processing at most once.
    //
    // The picks come from a lazy max-heap of (ratio, resource) keys
    // (see fluid.hpp for why its picks are the id-ordered scan's): a
    // popped key that still equals its resource's recomputed ratio is
    // the pick; a stale one goes back with its new ratio while that
    // still oversubscribes.
    auto ratio_of = [this](ResourceId r) {
        double load = 0.0;
        for (const auto &[i, d] : memberLists_[static_cast<size_t>(
                 memberSlot_[static_cast<size_t>(r)])])
            load += d * scratchRate_[i];
        return load / resources_[static_cast<size_t>(r)].capacity;
    };
    // Heap order: a is below b when b has the higher ratio, or the
    // same ratio and the lower id.
    auto below_in_heap = [](const std::pair<double, ResourceId> &a,
                            const std::pair<double, ResourceId> &b) {
        return a.first < b.first ||
               (a.first == b.first && a.second > b.second);
    };
    const double overloaded = 1.0 + kOverloadEps;
    overloadHeap_.clear();
    for (ResourceId r : memberIds_) {
        const double ratio = ratio_of(r);
        if (ratio > overloaded)
            overloadHeap_.emplace_back(ratio, r);
    }
    std::make_heap(overloadHeap_.begin(), overloadHeap_.end(),
                   below_in_heap);
    while (!overloadHeap_.empty()) {
        std::pop_heap(overloadHeap_.begin(), overloadHeap_.end(),
                      below_in_heap);
        const auto [key, worst] = overloadHeap_.back();
        overloadHeap_.pop_back();
        const double ratio = ratio_of(worst);
        if (ratio != key) {
            if (ratio > overloaded) {
                overloadHeap_.emplace_back(ratio, worst);
                std::push_heap(overloadHeap_.begin(), overloadHeap_.end(),
                               below_in_heap);
            }
            continue;
        }

        // Water-fill consumptions on `worst` to its capacity.
        const auto &flows_on_r = memberLists_[static_cast<size_t>(
            memberSlot_[static_cast<size_t>(worst)])];
        consumption_.clear();
        for (size_t k = 0; k < flows_on_r.size(); ++k)
            consumption_.emplace_back(
                flows_on_r[k].second * scratchRate_[flows_on_r[k].first],
                k);
        std::sort(consumption_.begin(), consumption_.end());

        double cap = resources_[static_cast<size_t>(worst)].capacity;
        double below = 0.0; // sum of consumptions kept as-is
        size_t cn = consumption_.size();
        double level = 0.0;
        for (size_t k = 0; k < cn; ++k) {
            // Remaining flows all cut to `level`; is consumption_[k] kept?
            double candidate =
                (cap - below) / static_cast<double>(cn - k);
            if (consumption_[k].first <= candidate) {
                below += consumption_[k].first;
                level = candidate; // provisional, refined each iteration
            } else {
                level = candidate;
                break;
            }
        }
        for (const auto &[c, k] : consumption_) {
            if (c > level) {
                size_t i = flows_on_r[k].first;
                double d = flows_on_r[k].second;
                double cut = level / d;
                if (cut < scratchRate_[i]) {
                    scratchRate_[i] = cut;
                    // Rates only decrease, so the last resource that
                    // strictly cut the flow is its binding resource.
                    if (publishFlowInfo_)
                        scratchBinding_[i] = worst;
                }
            }
        }
    }

    // Apply rates, reschedule completions, refresh resource loads —
    // zeroing only what the previous assignment loaded, accumulating
    // only over this round's members.
    for (ResourceId r : loadedIds_) {
        Resource &res = resources_[static_cast<size_t>(r)];
        res.load = 0.0;
        res.soloLoad = 0.0;
    }
    for (size_t i = 0; i < n; ++i) {
        Flow &flow = flow_at(i);
        if (scratchParked_[i]) {
            // Freeze: keep progress, drop the completion event. The
            // invalid EventId forces a reschedule once the flow resumes.
            sim_.cancel(flow.completion);
            flow.completion = EventId{};
            flow.rate = 0.0;
            continue;
        }
        if (scratchRate_[i] <= 0.0)
            panic("FluidNetwork: flow starved (zero rate)");
        bool changed = std::abs(scratchRate_[i] - flow.rate) >
                       1e-12 * std::max(1.0, flow.rate);
        flow.rate = scratchRate_[i];
        if (publishFlowInfo_) {
            flow.soloRate = scratchSolo_[i];
            flow.binding = scratchBinding_[i];
        }
        for (const auto &d : flow.demands) {
            Resource &res = resources_[static_cast<size_t>(d.resource)];
            res.load += d.perUnit * flow.rate;
            res.soloLoad += d.perUnit * scratchSolo_[i];
        }
        if (changed || !flow.completion.valid()) {
            sim_.cancel(flow.completion);
            const FlowId id = flow.id;
            flow.completion = sim_.schedule(
                sim_.now() + flow.remaining / flow.rate,
                [this, id] { finishFlow(id); });
        }
    }
    loadedIds_.assign(memberIds_.begin(), memberIds_.end());
}

} // namespace meshslice
