/**
 * @file
 * Query, key and plan types of the PlanEngine (DESIGN.md §4k).
 *
 * A `PlanQuery` is everything a "plan my training job" request can
 * vary: the model and batch, the cluster (chip count + `ChipConfig`),
 * which tuning phases to run, and the knobs of each phase. Its
 * content-addressed identity is a `PlanKey` of four exact fingerprint
 * components — model | cluster | tune | fault — built with
 * `util/fingerprint` (hex-float doubles, so distinct values never
 * collide through rounding). The split matters: two queries with equal
 * model/cluster/tune components but different fault components share
 * every fault-independent phase result, which is what makes the
 * engine's incremental re-tune sound.
 *
 * An `EnginePlan` is the serializable outcome: the 3D `ClusterPlan`,
 * the picked 2D TP plan with per-GeMM dataflow/slice counts, and the
 * summaries of whichever robust / recovery / pipeline phases ran.
 */
#ifndef MESHSLICE_ENGINE_PLAN_TYPES_HPP_
#define MESHSLICE_ENGINE_PLAN_TYPES_HPP_

#include <string>
#include <vector>

#include "hw/chip_config.hpp"
#include "model/transformer.hpp"
#include "pipeline/stage_model.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/cluster_plan.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "tuner/robust.hpp"

namespace meshslice {

/** One fully specified plan request. */
struct PlanQuery
{
    TransformerConfig model;
    TrainingConfig train;
    /** Cluster: chip count and the per-chip hardware description. */
    int chips = 16;
    ChipConfig chip;
    /** 2D TP algorithm the phases plan for. */
    Algorithm algo = Algorithm::kMeshSlice;
    /** Phase-1 stationary selection (false = Y-stn baseline). */
    bool optimizeDataflow = true;
    /** Which fault-aware phases run. */
    bool runRobust = false;
    bool runRecovery = false;
    bool runPipeline = false;
    RobustTuneConfig robust;
    RecoveryTuneConfig recovery;
    PipelineTuneConfig pipeline;
};

/**
 * Content-addressed identity of a query. Each component is the exact
 * `Fingerprint` text (not a hash — collision-free by construction);
 * `digest()` is the 16-hex FNV-1a tag used for display and stats.
 */
struct PlanKey
{
    std::string model;   ///< model architecture + batch/seqLen
    std::string cluster; ///< chip count + every ChipConfig field
    std::string tune;    ///< algorithm + enabled phases + their knobs
    std::string fault;   ///< scenario sampling knobs or explicit scenarios

    /** The fault-independent prefix shared by incremental queries. */
    std::string
    base() const
    {
        return model + "#" + cluster + "#" + tune;
    }

    /** The complete cache key. */
    std::string
    full() const
    {
        return base() + "#" + fault;
    }

    /** Short display tag of `full()`. */
    std::string digest() const;

    /** True when only the fault component may differ — the condition
     *  for the incremental re-tune path. */
    bool
    sameBase(const PlanKey &other) const
    {
        return model == other.model && cluster == other.cluster &&
               tune == other.tune;
    }
};

/** Build the four-component key of @p query. */
PlanKey planKeyOf(const PlanQuery &query);

/** The serializable outcome of the phase sequence. */
struct EnginePlan
{
    /** 3D decomposition; dp = pp = 1 unless the pipeline phase ran. */
    ClusterPlan cluster;
    /** The picked 2D TP plan: mesh shape plus the 12 per-GeMM
     *  dataflow/slice-count decisions. */
    AutotuneResult tp;
    /** Name of the phase whose decision `tp`/`cluster` reflect. */
    std::string pickedBy;

    bool hasRobust = false;
    Time robustObjective = 0.0; ///< quantile objective of the pick
    int robustPickIndex = 0;    ///< 0 = the nominal shape survived

    bool hasRecovery = false;
    Time checkpointInterval = 0.0; ///< Young–Daly τ* of the pick
    double goodput = 0.0;
    Time effectiveStepTime = 0.0; ///< stepTime / goodput

    bool hasPipeline = false;
    PipelineAxes axes;             ///< pp x dp x tp (+ schedule knobs)
    Time pipelineEstTotal = 0.0;   ///< analytic step of the pick
    Time pipelineSimTotal = -1.0;  ///< simulated step (< 0 = none)
    Bytes stageMemoryBytes = 0;    ///< peak per-chip bytes, stage 0
    int peakStash = 0;             ///< peak in-flight micro-batches
};

/**
 * Shortlist size phase1-shortlist computes for @p query: the largest
 * topK among the enabled downstream consumers (robust / recovery), at
 * least 1. `rankShapes` is prefix-stable, so one list serves all; it
 * is also the intermediate the cache keeps to warm-start incremental
 * queries.
 */
int shortlistSizeFor(const PlanQuery &query);

} // namespace meshslice

#endif // MESHSLICE_ENGINE_PLAN_TYPES_HPP_
