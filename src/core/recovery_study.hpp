/**
 * @file
 * Fail-stop recovery modeling for long training runs.
 *
 * PR 3 made the simulated cluster survive *degradation*; this layer
 * models surviving *permanent* failures, which dominate at the scales
 * MeshSlice targets (a 512-chip torus has a job-level MTBF far shorter
 * than a training run). Three pieces:
 *
 *  - an analytical **goodput model**: a training job checkpoints every
 *    τ seconds of useful work at cost C (HBM→host DMA), fails as a
 *    Poisson process with job MTBF M, and pays downtime D (detection +
 *    restart + elastic re-shard) plus half a segment of lost work per
 *    failure. Goodput g(τ) = τ / E[wall per segment];
 *  - the **Young–Daly optimal checkpoint interval** for that model in
 *    closed form, τ* = sqrt(C² + 2C(M + D)) — reducing to the classic
 *    sqrt(2CM) when C, D ≪ M;
 *  - a **simulated recovery transaction** (`runCollectiveRecovery`):
 *    one recoverable collective on a fresh cluster under a kill
 *    scenario, exercising the full detect → abort → rebuild → retry
 *    machinery and reporting deterministic event/time/stats figures
 *    (the bit-identical-replay contract extends to recovery runs).
 */
#ifndef MESHSLICE_CORE_RECOVERY_STUDY_HPP_
#define MESHSLICE_CORE_RECOVERY_STUDY_HPP_

#include <cstdint>
#include <string>

#include "hw/chip_config.hpp"
#include "net/collectives.hpp"
#include "sim/fault.hpp"

namespace meshslice {

/** Parameters of the analytical checkpoint/restart goodput model. */
struct GoodputModel
{
    /** Checkpoint write cost C (seconds), > 0. */
    Time checkpointWrite = 0.0;
    /** Job-level mean time between failures M (seconds), > 0. */
    Time mtbf = 0.0;
    /** Per-failure downtime D: detection + restart + re-shard. */
    Time downtime = 0.0;
};

/** Checkpoint write time: every chip drains its state to host storage
 *  in parallel, limited by `cfg.hostDmaBandwidth`. */
Time checkpointWriteTime(const ChipConfig &cfg, Bytes bytes_per_chip);

/** Closed-form span of one timed checkpoint (`runCheckpoint`) when
 *  nothing else contends: launch, then every chip streams
 *  @p bytes_per_chip at min(HBM, @p target_bw / @p chips), then one
 *  sync. */
Time checkpointModelCost(const ChipConfig &cfg, int chips,
                         Bytes bytes_per_chip, Rate target_bw);

/**
 * Goodput at checkpoint interval @p tau (> 0): useful seconds per
 * expected wall-clock second,
 *
 *   g(τ) = τ / [ (τ+C) · (1 + (D + (τ+C)/2) / M) ]
 *
 * — each segment of τ useful seconds costs τ+C wall, suffers
 * (τ+C)/M failures in expectation, and each failure costs D plus on
 * average half the segment redone.
 */
double goodputAt(const GoodputModel &m, Time tau);

/**
 * The interval maximizing `goodputAt`: τ* = sqrt(C² + 2C(M + D)),
 * the Young–Daly optimum generalized to non-negligible C and D
 * (obtained by solving dg/dτ = 0 exactly for the model above).
 */
Time youngDalyInterval(const GoodputModel &m);

/** Ingredients of one training run's recovery economics. */
struct TrainingRunModel
{
    /** Checkpoint state per chip (weights + optimizer shards). */
    Bytes checkpointBytesPerChip = 0;
    /** Per-chip MTBF; the job fails when any chip does. */
    Time chipMtbf = 0.0;
    /** Number of chips in the mesh. */
    int chips = 1;
    /** Failure-detection latency (heartbeat + consensus). */
    Time detectionLatency = 0.5;
    /** Job restart overhead (scheduler + binary + checkpoint read). */
    Time restartTime = 60.0;
    /** Elastic re-shard time onto the survivor mesh: the
     *  `expectedReshard(...).time` of a failure. */
    Time reshardTime = 0.0;
};

/** Outcome of composing a `TrainingRunModel` into goodput figures. */
struct TrainingGoodput
{
    /** C: checkpoint write cost. */
    Time checkpointWrite = 0.0;
    /** M: job MTBF = chipMtbf / chips (independent exponentials). */
    Time jobMtbf = 0.0;
    /** D: detection + restart + re-shard. */
    Time downtime = 0.0;
    /** τ*: the Young–Daly optimal checkpoint interval. */
    Time optimalInterval = 0.0;
    /** g(τ*): fraction of wall-clock doing useful work. */
    double goodput = 0.0;
};

/** Compose checkpoint cost, failure process and recovery downtime
 *  into the optimal-interval goodput of one training configuration. */
TrainingGoodput evaluateTrainingRun(const ChipConfig &cfg,
                                    const TrainingRunModel &run);

/** Deterministic record of one simulated recovery transaction. */
struct CollectiveRecoveryResult
{
    /** Final simulated time after the queue drained. */
    Time finalTime = 0.0;
    /** Events executed — part of the bit-identity contract. */
    std::uint64_t eventsProcessed = 0;
    /** The collective's outcome: the completed attempt's stats, the
     *  failure that forced a retry (if any) and the transaction's
     *  launch-to-completion wall clock. */
    RecoveryOutcome outcome;
    /** Full stats-registry JSON (collective + resource accounting). */
    std::string statsJson;
};

/**
 * Run one recoverable shard collective on a fresh `rows x cols` torus
 * under @p scenario (nullptr = fault-free: identical code paths, so an
 * empty trace is bit-identical to no injector at all). The collective
 * runs on `rowRing(index)` / `colRing(index)`; a kill in its path
 * exercises timeout → abort → ring rebuild → retry.
 */
CollectiveRecoveryResult runCollectiveRecovery(
    const ChipConfig &cfg, int rows, int cols, Bytes shard_bytes,
    const FaultScenario *scenario,
    CollKind kind = CollKind::kAllGather,
    bool row_ring = true, int index = 0);

/**
 * Closed-form inputs of `predictElasticWall`: per-phase cost estimates
 * for the elastic runtime's state machine (step loop + checkpoint rule
 * + single-kill recovery transaction).
 */
struct ElasticPredictionInput
{
    int steps = 0;                  ///< training steps to commit
    Time stepTime = 0.0;            ///< est. step time, full mesh
    Time survivorStepTime = 0.0;    ///< est. step time, survivor mesh
    Time checkpointCost = 0.0;      ///< est. checkpoint span, full mesh
    Time survivorCheckpointCost = 0.0; ///< est. span, survivor mesh
    /** Checkpoint interval τ: a checkpoint is emitted after the step
     *  that pushes accumulated useful time since the last one past τ. */
    Time checkpointInterval = 0.0;
    /** Global simulated time of the kill; negative = fault-free. */
    Time killTime = -1.0;
    Time detectionLatency = 0.0;
    /** Re-plan + restart overhead charged once per recovery. */
    Time replanTime = 0.0;
    /** Estimated recovery re-shard span (`reshardTime` of the plan). */
    Time reshardTime = 0.0;
};

/** Analytic mirror of one elastic run. */
struct ElasticWallPrediction
{
    Time wall = 0.0;       ///< predicted end-to-end wall clock
    Time usefulTime = 0.0; ///< steps x full-mesh step time (the ideal)
    double goodput = 0.0;  ///< usefulTime / wall
    int checkpoints = 0;   ///< checkpoints emitted (incl. post-fault)
    int redoneSteps = 0;   ///< steps rolled back and re-executed
    bool recovered = false; ///< the kill fired inside the run
};

/**
 * Deterministic analytic prediction of one elastic run's wall clock:
 * walks the runtime's exact state machine (step, checkpoint-after-step
 * at interval τ, single-kill detect → re-plan → re-shard → rollback →
 * resume) with closed-form per-phase costs instead of simulation. The
 * measured/predicted ratio is the model error band the elastic bench
 * reports; `evaluateTrainingRun` remains the expectation over the
 * failure process, this is the prediction for one concrete scenario.
 */
ElasticWallPrediction predictElasticWall(const ElasticPredictionInput &in);

} // namespace meshslice

#endif // MESHSLICE_CORE_RECOVERY_STUDY_HPP_
