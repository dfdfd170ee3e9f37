/**
 * @file
 * Elastic training-run runtime: enacted checkpoint/restart, mid-run
 * re-shard + re-plan, and deterministic fault recovery.
 *
 * `runElastic` drives N simulated training steps of one distributed
 * GeMM algorithm (any of the eight) or one pipeline schedule, with the
 * recovery machinery *enacted* rather than merely priced:
 *
 *  - every phase (step, checkpoint, recovery re-shard) runs on its own
 *    fresh `Cluster` at local t = 0 while a global wall clock
 *    accumulates the phase spans — which is what makes a fault-free
 *    elastic run bit-identical to the plain step loop
 *    (`runPlainSteps`) and the whole run invariant to
 *    `MESHSLICE_THREADS`;
 *  - at the configured (or Young–Daly) interval the run emits a timed
 *    checkpoint (`runCheckpoint`): per-chip HBM reads contending on a
 *    shared checkpoint target, recorded as `kCheckpoint` spans;
 *  - a `KillFault` triggers the full recovery transaction live:
 *    detection (the collective's fail-stop abort, or the runtime's own
 *    watchdog when the schedule absorbs the kill), an incremental
 *    re-plan on the degraded geometry (`replanAfterFailure` — reuses
 *    the calibrated cost model, redoes only the ranking), a simulated
 *    recovery re-shard (`runRecoveryReshard` — survivor blocks over
 *    real links, corpse blocks from the checkpoint target), rollback
 *    to the last checkpoint, and resumption on the survivor mesh;
 *  - the measured wall/goodput is cross-validated against the analytic
 *    `predictElasticWall` mirror (the model-error band the elastic
 *    bench asserts).
 *
 * Scenario times (`FaultScenario` windows and kill times) are global
 * wall-clock; each phase arms the scenario re-based onto its local
 * timeline (`sliceScenarioForPhase`) with a per-*step* jitter seed, so
 * checkpoints never shift a step's jitter stream. Supported failure
 * model: at most one chip kill per run (`"chip<i>."` pattern) with a
 * strictly positive detection latency.
 */
#ifndef MESHSLICE_RUN_ELASTIC_HPP_
#define MESHSLICE_RUN_ELASTIC_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/recovery_study.hpp"
#include "core/spec.hpp"
#include "pipeline/pipeline_exec.hpp"
#include "sim/critical_path.hpp"
#include "sim/fault.hpp"

namespace meshslice {

/** Pipeline-schedule step body (instead of a single GeMM). */
struct ElasticPipelineSpec
{
    bool enabled = false;
    /** Stage count; the run's cluster has `stages * rows * cols`
     *  chips (`spec.rows/cols` give the per-stage mesh). */
    int stages = 2;
    PipelineExecSpec exec;
};

/** Everything one elastic training run needs. */
struct ElasticRunConfig
{
    Algorithm algo = Algorithm::kMeshSlice;
    /** The per-step GeMM (also the per-stage mesh shape when
     *  `pipeline.enabled`). */
    Gemm2DSpec spec;
    int steps = 4;

    /** Global-wall-clock scenario; ignored unless `haveScenario`. */
    bool haveScenario = false;
    FaultScenario scenario;

    /** Checkpointing is enabled iff both fields are positive. */
    Bytes checkpointBytesPerChip = 0;
    Rate checkpointTargetBandwidth = 0.0;
    /** Useful seconds between checkpoints; 0 = solve Young–Daly from
     *  `chipMtbf` (required positive in that case). */
    Time checkpointInterval = 0.0;
    Time chipMtbf = 0.0;
    /** Re-plan + restart overhead charged once per recovery. */
    Time restartTime = 0.0;

    /** Maintain functional `DistMatrix` state (A, B and a weight
     *  accumulator W updated each step), checkpoint/restore/re-shard
     *  it alongside the timed run, and verify the final W against the
     *  serial reference bit-exactly. Requires every dimension to
     *  divide both mesh axes; incompatible with `pipeline`. */
    bool functionalState = false;
    std::uint64_t functionalSeed = 7;

    /** Per-phase critical-path profiling, folded into
     *  `ElasticRunResult::pathSeconds`. Observational only. */
    bool profile = false;

    ElasticPipelineSpec pipeline;
};

/** One phase of an elastic run, in execution order. */
struct ElasticPhase
{
    enum class Kind { kStep, kCheckpoint, kRecovery };
    Kind kind = Kind::kStep;
    /** Step number / checkpoint ordinal / 0 for recovery. */
    int index = 0;
    /** Global wall clock when the phase began. */
    Time start = 0.0;
    /** Phase span: the committed simulated span, or (aborted phases)
     *  local kill time + detection latency. */
    Time span = 0.0;
    /** Simulator events the phase processed (bit-identity contract). */
    std::uint64_t events = 0;
    /** False when a fail-stop consumed the phase (it was rolled back). */
    bool committed = true;
};

const char *elasticPhaseKindName(ElasticPhase::Kind kind);

/** Outcome of one elastic run. */
struct ElasticRunResult
{
    Time wall = 0.0;       ///< end-to-end global wall clock
    /** steps x the measured fault-free full-mesh step time. */
    Time usefulTime = 0.0;
    double goodput = 0.0;  ///< usefulTime / wall
    /** Measured fault-free full-mesh step span (the probe phase). */
    Time stepTimeFullMesh = 0.0;

    int checkpoints = 0;
    int redoneSteps = 0;
    bool recovered = false;
    int deadChip = -1;
    Time detectionSpan = 0.0; ///< detection latency charged on recovery
    Time replanSpan = 0.0;    ///< restart/re-plan overhead charged
    Time reshardSpan = 0.0;   ///< measured recovery re-shard span

    /** The spec in effect at run end (shrunk after a recovery). */
    Gemm2DSpec finalSpec;
    /** The algorithm in effect at run end (Cannon re-plans onto
     *  MeshSlice: no one-line shrink preserves squareness). */
    Algorithm finalAlgo = Algorithm::kMeshSlice;

    std::vector<ElasticPhase> phases;

    /** Critical-path seconds per `SpanCategory`, summed over phases
     *  (filled when `profile`; checkpoint traffic lands in
     *  `kCheckpoint`, recovery re-shard in `kRecovery`). */
    double pathSeconds[kSpanCategoryCount] = {0, 0, 0, 0, 0, 0, 0};

    /** The analytic mirror of this run and its relative wall error —
     *  the measured-vs-model band the elastic bench asserts. */
    ElasticWallPrediction predicted;
    double modelError = 0.0;

    bool functionalChecked = false;
    bool functionalOk = false;

    /** Scalar per-phase and summary stats (`elastic/...` keys). */
    std::string statsJson;
};

/** Execute one elastic run. Deterministic: bit-identical phases,
 *  events and stats for a given (cfg, run) on any host/thread count. */
ElasticRunResult runElastic(const ChipConfig &cfg,
                            const ElasticRunConfig &run);

/** The non-elastic baseline: the same N step phases back-to-back with
 *  the same per-step seeds and scenario slicing, but no checkpoints and
 *  no recovery (a kill firing inside a step is fatal). A fault-free
 *  elastic run's step phases are bit-identical to this. */
struct PlainRunResult
{
    Time wall = 0.0;
    std::vector<ElasticPhase> steps;
    bool functionalChecked = false;
    bool functionalOk = false;
};

PlainRunResult runPlainSteps(const ChipConfig &cfg,
                             const ElasticRunConfig &run);

/** JSONL phase trace of @p r (one object per phase, `\n`-separated,
 *  trailing newline) — byte-stable across hosts and thread counts. */
std::string elasticTraceJson(const ElasticRunResult &r);

/** `elasticTraceJson` into @p path (fatal on open failure). */
void writeElasticTrace(const ElasticRunResult &r, const std::string &path);

} // namespace meshslice

#endif // MESHSLICE_RUN_ELASTIC_HPP_
