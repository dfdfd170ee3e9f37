/**
 * @file
 * Discrete-event execution of a pipeline program on the cluster sim.
 *
 * `PipelineCluster` lays P stage meshes of rows x cols chips each over
 * one `Cluster` and registers the torus boundary links that carry
 * inter-stage traffic: per mesh position (r, c) a forward link
 * `link.pp+.s{s}.r{r}.c{c}` (stage s -> s+1, activations) and a
 * backward link `link.pp-.s{s}.r{r}.c{c}` (gradients upstream). With
 * interleaved chunks the last boundary wraps around to stage 0, which
 * is the torus closing edge.
 *
 * `runPipeline` realizes a `PipelineProgram` as a `TaskGraph`:
 *
 *  - each fwd/bwd task becomes a Join over per-chip core-only fluid
 *    flows of the exact task duration (the intra-stage TP time is an
 *    *input* here — it comes from the existing 2D MeshSlice executor /
 *    cost model — so compute tasks don't re-simulate the stage mesh);
 *  - each cross-stage data edge gets a transfer task in between: one
 *    flow per boundary position demanding the boundary link plus both
 *    endpoint HBMs (the cluster's transfer idiom), preceded by the
 *    host launch overhead when `chargeLaunch` is set. Zero-byte
 *    boundaries skip the transfer entirely, so uniform zero-comm runs
 *    reproduce the closed-form pipeline spans exactly.
 *
 * The bubble is never inserted: it is whatever wall-clock remains on a
 * stage after its compute and exposed transfers, emerging from the same
 * dependency structure `analyticalSpan` walks.
 */
#ifndef MESHSLICE_PIPELINE_PIPELINE_EXEC_HPP_
#define MESHSLICE_PIPELINE_PIPELINE_EXEC_HPP_

#include <vector>

#include "hw/cluster.hpp"
#include "pipeline/schedule.hpp"
#include "util/units.hpp"

namespace meshslice {

/**
 * P stage meshes of rows x cols chips on one cluster, plus the
 * inter-stage boundary links. Chip (s, r, c) is cluster chip
 * `s * rows * cols + r * cols + c`.
 */
class PipelineCluster
{
  public:
    /** Requires `cluster.numChips() == stages * rows * cols`. */
    PipelineCluster(Cluster &cluster, int stages, int rows, int cols);

    Cluster &cluster() { return cluster_; }
    const Cluster &cluster() const { return cluster_; }
    int stages() const { return stages_; }
    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int chipsPerStage() const { return rows_ * cols_; }

    int chipAt(int stage, int r, int c) const;

    /** Boundary @p s carries stage s -> (s+1) % P traffic. */
    ResourceId fwdLink(int boundary, int r, int c) const;
    /** Boundary @p s carries stage (s+1) % P -> s gradient traffic. */
    ResourceId bwdLink(int boundary, int r, int c) const;

  private:
    Cluster &cluster_;
    int stages_;
    int rows_;
    int cols_;
    std::vector<ResourceId> fwdLinks_; // [boundary][r][c] flattened
    std::vector<ResourceId> bwdLinks_;
};

/** What to run: schedule shape plus per-task costs. */
struct PipelineExecSpec
{
    PipelineSchedule schedule = PipelineSchedule::kGPipe;
    int microBatches = 1;
    int chunks = 1; ///< model chunks per stage (interleaved only)

    /** One forward of one chunk of one micro-batch on one stage (the
     *  intra-stage 2D-TP time, from the MeshSlice executor/model). */
    Time fwdTime = 0.0;
    /** The matching backward. */
    Time bwdTime = 0.0;

    /** Activation bytes one micro-batch pushes across one stage
     *  boundary, total over the mesh (split evenly over positions). */
    Bytes boundaryBytes = 0;
    /** Extra bytes when adjacent stages' 2D layouts mismatch (the
     *  cross-mesh remap traffic; see `remapBytesModel`). */
    Bytes remapBytes = 0;
    /** Charge the host launch overhead on every boundary transfer. */
    bool chargeLaunch = false;
};

/** Wall-clock decomposition of one stage over the run. */
struct StagePhase
{
    Time compute = 0.0; ///< seconds inside fwd/bwd tasks
    Time comm = 0.0;    ///< seconds of inbound boundary transfers
    Time bubble = 0.0;  ///< max(0, span - compute - comm)
};

/** Result of one simulated pipeline step. */
struct PipelineRunResult
{
    Time time = 0.0;         ///< makespan of the whole program
    Time idealCompute = 0.0; ///< busiest stage's serialized compute
    /** 1 - sum(stage compute) / (P * time): the fraction of
     *  stage-seconds not spent computing. Equals (P-1)/(m+P-1) for
     *  uniform zero-comm GPipe. */
    double bubbleFraction = 0.0;
    Bytes interStageBytes = 0; ///< total boundary traffic moved
    std::vector<StagePhase> stagePhases;
};

/**
 * Execute @p spec's program on @p pc and return the measured step.
 * Deterministic; fatal on infeasible schedule parameters (via
 * `buildPipelineProgram`). Publishes `pipeline/...` stats into the
 * cluster registry and per-stage spans into the trace when enabled.
 */
PipelineRunResult runPipeline(PipelineCluster &pc,
                              const PipelineExecSpec &spec);

/**
 * The analytical time model matching what `runPipeline` charges per
 * task: fwd/bwd durations verbatim and
 * `sendTask = [launch +] (boundaryBytes + remapBytes) / (positions *
 * linkBandwidth)` — so `analyticalSpan(program, timeModelFor(...))`
 * and the simulator agree whenever transfers don't contend.
 */
PipelineTimeModel timeModelFor(const PipelineExecSpec &spec,
                               const ChipConfig &cfg, int rows,
                               int cols);

} // namespace meshslice

#endif // MESHSLICE_PIPELINE_PIPELINE_EXEC_HPP_
