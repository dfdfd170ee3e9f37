/**
 * @file
 * A simulated cluster of accelerator chips.
 *
 * Each chip contributes two shared resources to the fluid network: its
 * compute core (capacity = peak FLOP/s) and its HBM (capacity = memory
 * bandwidth). For ring collectives the NIC has no throughput limit of
 * its own — per the paper's TPU model (Fig 8) it drives four
 * independent ICI links and contends with the cores only through the
 * shared HBM, which is exactly how transfers are modelled there: a link
 * flow demands the link plus the source and destination HBMs. The
 * one-sided layer (`net/onesided`) additionally models NIC *queue
 * occupancy*: many concurrent RDMA gets can land on one chip, so each
 * chip exposes a lazily-registered `chip<i>.nic` resource whose
 * capacity is the aggregate bandwidth of its four ICI links — beyond
 * four concurrent full-rate gets the NIC queue becomes the bottleneck.
 * Lazy registration keeps runs that never issue one-sided ops
 * bit-identical (and their resource-stats dumps unchanged).
 */
#ifndef MESHSLICE_HW_CLUSTER_HPP_
#define MESHSLICE_HW_CLUSTER_HPP_

#include <functional>
#include <string>
#include <vector>

#include "hw/chip_config.hpp"
#include "hw/compute_model.hpp"
#include "sim/critical_path.hpp"
#include "sim/fault.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace meshslice {

/** Trace lanes within one chip. */
enum TraceLane : int
{
    kLaneCompute = 0,
    kLaneHorizontalComm = 1,
    kLaneVerticalComm = 2,
};

/**
 * Owns the simulator, the fluid network and the per-chip resources.
 * Topologies (torus/ring) add link resources on top via `addLink`.
 */
class Cluster
{
  public:
    Cluster(const ChipConfig &cfg, int num_chips);

    int numChips() const { return static_cast<int>(chips_.size()); }
    const ChipConfig &config() const { return cfg_; }

    Simulator &sim() { return sim_; }
    FluidNetwork &net() { return net_; }
    TraceRecorder &trace() { return trace_; }
    StatsRegistry &stats() { return stats_; }
    const StatsRegistry &stats() const { return stats_; }
    SpanRecorder &profiler() { return profiler_; }
    const SpanRecorder &profiler() const { return profiler_; }

    /**
     * Switch the critical-path profiler on/off. Enabling also makes
     * the fluid network publish per-flow binding/throttle info, which
     * executors fold into their span nodes. Purely observational:
     * simulated times and event counts are bit-identical either way.
     */
    void
    enableProfiler(bool on)
    {
        profiler_.setEnabled(on);
        net_.setPublishFlowInfo(on);
    }

    ResourceId coreOf(int chip) const { return chips_.at(chip).core; }
    ResourceId hbmOf(int chip) const { return chips_.at(chip).hbm; }

    /**
     * The chip's NIC queue resource ("chip<i>.nic"), registered on
     * first use at `kNicLinksPerChip` times the per-link bandwidth.
     * NOTE: resources registered after a `FaultInjector::arm()` are not
     * fault targets (same precedent as detour links) — scenarios
     * address the NIC indirectly through the chip's HBM and links.
     */
    ResourceId nicOf(int chip);

    /** Independent ICI links a chip's NIC drives (TPU model, Fig 8). */
    static constexpr double kNicLinksPerChip = 4.0;

    /**
     * Attach a fault injector (non-owning; may be nullptr to detach).
     * Collectives consult it for launch jitter and link availability;
     * a cluster with no injector attached takes the exact code paths
     * of the fault-free simulator.
     */
    void attachFaults(FaultInjector *injector) { faults_ = injector; }

    /** The attached injector, or nullptr (the fault-free fast path). */
    FaultInjector *faults() const { return faults_; }

    /** Register a directed link resource (used by topology builders). */
    ResourceId addLink(const std::string &name);

    /**
     * Run a local GeMM on @p chip: a flow on the chip's core (demand
     * scaled by the shape's padding inefficiency) and HBM (demand =
     * bytes/FLOP of the tiled schedule). Calls @p done on completion.
     * Returns the compute flow's id (-1 for empty work, which completes
     * via a zero-delay event instead of a flow) so fail-stop aware
     * executors can cancel a killed chip's in-flight compute.
     */
    FlowId runGemm(int chip, const GemmWork &work,
                   std::function<void()> done);

    /** Total FLOPs issued through runGemm so far (for utilization). */
    Flops issuedFlops() const { return issuedFlops_; }

    /** Account @p bytes of communication (called per link transfer). */
    void
    noteCommBytes(Bytes bytes)
    {
        commBytesIssued_ += bytes;
    }

    /** Total bytes pushed through links so far (counter-track source). */
    Bytes commBytesIssued() const { return commBytesIssued_; }

    /**
     * If tracing is enabled, emit one sample of the cluster-wide
     * counter tracks (cumulative issued FLOPs and link bytes) at the
     * current simulated time. Collectives and GeMM completions call
     * this so Perfetto shows the Figure-4 counters next to the lanes.
     */
    void sampleCounters();

    /**
     * Dump the fluid network's per-resource accounting into @p stats:
     * for every chip core, HBM and ICI link — capacity, busy/idle/
     * contention seconds, units moved and achieved-vs-peak rate —
     * plus the conservation inputs (`observed_s`). Names follow the
     * registry hierarchy, e.g. `chip3/hbm/busy_s` or
     * `link/E/b0/r0/c1/bytes`.
     */
    void collectResourceStats(StatsRegistry &stats) const;

  private:
    struct ChipResources
    {
        ResourceId core;
        ResourceId hbm;
        ResourceId nic = -1; ///< lazily registered (see nicOf)
    };

    ChipConfig cfg_;
    Simulator sim_;
    FluidNetwork net_;
    TraceRecorder trace_;
    StatsRegistry stats_;
    SpanRecorder profiler_;
    std::vector<ChipResources> chips_;
    FaultInjector *faults_ = nullptr;
    Flops issuedFlops_ = 0.0;
    Bytes commBytesIssued_ = 0;
};

} // namespace meshslice

#endif // MESHSLICE_HW_CLUSTER_HPP_
