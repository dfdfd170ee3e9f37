/**
 * @file
 * Timing executors for the distributed GeMM algorithms (Sec 4.2/4.3).
 *
 * Each algorithm is expressed as a task graph of mesh-wide operations
 * (collectives, shifts, local GeMMs) with the dependency structure of
 * its software pipeline; the fluid cluster simulator then produces the
 * wall-clock time and the launch/transfer/sync breakdown (Fig 10):
 *
 *  - MeshSlice: S-way sliced partial AG/RdS in both directions,
 *    comm(s) chained per direction, compute(s) after its comms.
 *  - Collective: MeshSlice with S = 1 (no overlap possible).
 *  - Wang: the heavier direction's collective decomposed into S
 *    SendRecv rotations overlapped with computes; the other direction
 *    is a blocking collective prologue/epilogue.
 *  - SUMMA: S unrolled iterations of pipelined bcast/reduce.
 *  - Cannon: square mesh only; skew prologue then P systolic SendRecv
 *    iterations.
 *  - OneSided: no collectives at all — per (tile, slice), one
 *    launch-batched set of RDMA gets (`net/onesided`) pulls the A/B
 *    slices from the row/column peers, then the tile's compute; the
 *    only dependencies are within each tile's own chain, so a
 *    straggling or killed source chip delays exactly the tiles that
 *    read from it (gets from a corpse retry over a detour, gets into
 *    it are written off, its compute completes vacuously).
 *  - 1DTP / FSDP: a ring with Wang-style overlapped shifts.
 *
 * When `ChipConfig::allowCollectiveOverlap` is false (the real-TPUv4
 * mode of Sec 5.3), AG/RdS/bcast/reduce-based schedules serialize
 * communication and computation; SendRecv-based overlap stays enabled,
 * matching the hardware capability the paper describes.
 */
#ifndef MESHSLICE_CORE_EXECUTOR_HPP_
#define MESHSLICE_CORE_EXECUTOR_HPP_

#include <functional>

#include "core/spec.hpp"
#include "core/taskgraph.hpp"
#include "net/topology.hpp"

namespace meshslice {

/**
 * Runs 2D distributed GeMM algorithms on a torus mesh, one at a time.
 * The underlying cluster's simulated clock advances monotonically
 * across runs; results report per-run durations.
 */
class GemmExecutor
{
  public:
    explicit GemmExecutor(TorusMesh &mesh) : mesh_(mesh) {}

    /**
     * Simulate @p algo executing @p spec (blocking until the simulated
     * schedule drains). @p algo must be a 2D algorithm that supports
     * the spec's dataflow and mesh (`supportsDataflow`,
     * `supportsMesh`), and the spec must be valid at the slice count
     * the algorithm runs (`effectiveSliceCount`, `validateSpec`);
     * anything else is `fatal`. `kOneSided` uses the slice count as
     * the per-tile get/compute chain depth.
     */
    GemmRunResult run(Algorithm algo, const Gemm2DSpec &spec);

  private:
    TorusMesh &mesh_;
};

/**
 * Append @p algo's software-pipelined schedule for @p spec to an
 * existing task graph on @p mesh (which may be one layer of a 3D
 * cluster), accumulating communication stats and FLOPs into @p accum.
 * Used to compose multi-mesh schedules (e.g. MeshSlice+DP, Sec 7).
 */
void buildGemmSchedule(TaskGraph &graph, TorusMesh &mesh, Algorithm algo,
                       const Gemm2DSpec &spec, GemmRunResult *accum);

/**
 * Append @p iterations systolic steps of Cannon's algorithm for @p spec
 * (a square mesh; a full GeMM takes `spec.rows` steps) to @p graph,
 * behind the floor(P/2)-rotation skew prologue, accumulating
 * communication stats into @p accum. Every chain of the schedule
 * starts after task @p after (-1: none). The 2.5D GeMM runs P/c steps
 * per depth layer. @return the id of the last compute task.
 */
int buildCannon(TaskGraph &graph, TorusMesh &mesh, const Gemm2DSpec &spec,
                GemmRunResult *accum, int iterations, int after = -1);

/** Simulate a 1D baseline (`kOneDTP` semantics == `kFsdp`: the spec's
 *  comm matrix and local work differ, the schedule is the same).
 *  @p algo only labels the telemetry (per-algorithm overlap metrics in
 *  the cluster's stats registry). */
GemmRunResult runGemm1D(RingNetwork &net, const Gemm1DSpec &spec,
                        Algorithm algo = Algorithm::kOneDTP);

/**
 * Simulate @p algo executing @p spec on @p cluster (`spec.chips()`
 * chips, at local time 0): the forward-pass 1D schedule
 * (`baseline1DSpec`) on a ring for the 1D baselines, `GemmExecutor`
 * on a `spec.rows x spec.cols` torus otherwise. @p arm runs once, after
 * the network has registered its links and before the schedule starts:
 * the place to arm a fault injector.
 */
GemmRunResult runGemmOnCluster(Cluster &cluster, Algorithm algo,
                               const Gemm2DSpec &spec,
                               const std::function<void()> &arm);

/**
 * The SUMMA packet count minimizing the pipelined broadcast time of
 * @p payload bytes over @p hops hops (closed-form, clamped to [1,64]).
 */
int optimalPacketCount(const ChipConfig &cfg, int hops, Bytes payload);

} // namespace meshslice

#endif // MESHSLICE_CORE_EXECUTOR_HPP_
