/**
 * @file
 * Robustness-aware autotuning (opt-in).
 *
 * The nominal two-phase autotuner picks the mesh shape / slice counts
 * minimizing the *fault-free* estimated step time. Real clusters are
 * not fault-free, and overlap schedules are highly sensitive to
 * interference (T3, PAPERS.md): the nominally-best shape can be the
 * one whose critical rings die hardest under a slow link. The robust
 * tuner re-evaluates the top-K phase-2 candidates by *simulation*
 * under N fault scenarios (sampled from a seeded distribution, or
 * supplied explicitly) and picks by worst-case — or a configurable
 * quantile of — simulated step time instead of the nominal estimate.
 *
 * Every (candidate, scenario) evaluation and the final pick are
 * emitted through `SearchTrace` as `"phase":"robust"` /
 * `"phase":"robust_pick"` JSONL records.
 */
#ifndef MESHSLICE_TUNER_ROBUST_HPP_
#define MESHSLICE_TUNER_ROBUST_HPP_

#include <cstdint>
#include <vector>

#include "gemm/reshard.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/cost_model.hpp"

namespace meshslice {

/** Knobs of the robust objective. */
struct RobustTuneConfig
{
    /** Phase-2 candidates re-evaluated under the scenarios. */
    int topK = 3;
    /** Scenarios sampled when `scenarios` is empty. */
    int numScenarios = 4;
    /** Seed of the scenario sampler (and of each scenario's jitter). */
    std::uint64_t seed = 1;
    /** Bandwidth factor of a sampled degraded link-direction class. */
    double linkDegradeFactor = 0.5;
    /** Link-direction degradations per sampled scenario. */
    int faultsPerScenario = 1;
    /** Probability a sampled scenario includes a straggler chip. */
    double stragglerProb = 0.5;
    /** Core/HBM factor of a sampled straggler. */
    double stragglerFactor = 0.7;
    /** Launch jitter bound of sampled scenarios (0 = none). */
    Time maxLaunchJitter = 0.0;
    /**
     * Objective quantile over the per-scenario simulated times:
     * 1.0 = worst case (default), 0.95 = p95, ...
     */
    double quantile = 1.0;
    /**
     * Cap on how many of the 12 planned GeMMs are simulated per
     * (candidate, scenario) evaluation; 0 = all. Lower = faster,
     * coarser.
     */
    int maxGemmsPerEval = 0;
    /**
     * Explicit scenarios. When non-empty, used verbatim (and
     * `numScenarios`/sampling knobs are ignored).
     */
    std::vector<FaultScenario> scenarios;
    /**
     * Attach a `"phase":"explain"` record — critical-path category
     * attribution, hot spans and what-if sensitivities of the
     * fault-free run — to every shortlisted candidate. Only takes
     * effect while the search-trace sink is open; purely additive to
     * the trace (evaluations and the pick are unchanged).
     */
    bool explain = false;
};

/** One shortlisted candidate's robust evaluation. */
struct RobustCandidate
{
    AutotuneResult plan;   ///< shape + tuned slice counts
    Time nominalEst = 0.0; ///< phase-2 (fault-free) estimate
    /** Simulated step time under each scenario, scenario order. */
    std::vector<Time> scenarioTimes;
    /** `quantile` of `scenarioTimes` (the robust objective). */
    Time objective = 0.0;
};

/** Robust tuning outcome. */
struct RobustTuneResult
{
    /** The scenarios evaluated (sampled or supplied). */
    std::vector<FaultScenario> scenarios;
    /** Candidates in nominal rank order (entry 0 = nominal pick). */
    std::vector<RobustCandidate> candidates;
    /** Index (into `candidates`) of the robust pick. */
    int pickedIndex = 0;
    /** Simulator runs made: one per (candidate, scenario, distinct
     *  GeMM spec). */
    int simulations = 0;
    /** GeMM evaluations those runs served: one per (candidate,
     *  scenario, evaluated GeMM). */
    int gemmEvals = 0;

    const RobustCandidate &picked() const
    {
        return candidates.at(static_cast<size_t>(pickedIndex));
    }
    const RobustCandidate &nominal() const { return candidates.at(0); }

    /** True when robustness changed the decision (the interesting
     *  case: the nominal optimum is fragile). */
    bool pickDiffers() const { return pickedIndex != 0; }
};

/**
 * Sample @p cfg.numScenarios deterministic scenarios for a cluster of
 * @p chips chips. Each scenario degrades `faultsPerScenario` random
 * link-direction classes (E/W/S/N — shape-independent patterns, so
 * the same scenario is meaningful for every candidate mesh) and, with
 * `stragglerProb`, one random straggler chip; scenario i gets jitter
 * seed `seed + i`. Bit-identical for a given (cfg, chips).
 */
std::vector<FaultScenario> sampleScenarios(const RobustTuneConfig &cfg,
                                           int chips);

/**
 * Robust phase-2: simulate the first `cfg.topK` entries of a phase-2
 * @p shortlist (`LlmAutotuner::rankShapes`) under the scenarios and
 * pick by the quantile objective. The caller may hold a longer
 * shortlist — the PlanEngine caches one sized for every fault-aware
 * phase, so a fault-profile-only change re-ranks it without redoing
 * the shape sweep, bit-identically to a cold tune.
 *
 * A (candidate, scenario) cell's time is the sum of its GeMMs'
 * simulated times. Each distinct GeMM spec of a candidate
 * (`distinctGemmSpecs`) is simulated once per scenario, as one pool
 * task on a private cluster; the cells are then folded serially in
 * GeMM order, a repeated GeMM adding its first occurrence's time and
 * stats again. Every run is a deterministic function of (chip,
 * algorithm, spec, scenario), so times, the pick, the SearchTrace
 * file and the merged registry are bit-identical to simulating every
 * GeMM, at any thread count. When @p stats is non-null each cell's
 * per-resource accounting is merged under `robust/cand<ci>/scen<si>/...`.
 */
RobustTuneResult tuneRobustShortlist(
    const LlmAutotuner &tuner, Algorithm algo,
    const std::vector<AutotuneResult> &shortlist, int chips,
    const RobustTuneConfig &cfg, StatsRegistry *stats = nullptr);

/** The objective: @p q-quantile of @p times (1.0 = max). */
Time robustObjective(std::vector<Time> times, double q);

/**
 * Knobs of recovery-aware tuning: solve the Young–Daly checkpoint
 * interval *jointly* with the mesh shape. The nominal tuner ranks
 * shapes by fault-free step time; at scale the tiebreaker is recovery
 * economics — a shape with a slightly worse step time can win because
 * its single-failure re-shard is cheaper (less state changes owner
 * when a row/column is retired), which shrinks per-failure downtime
 * and lifts goodput.
 */
struct RecoveryTuneConfig
{
    /** Per-chip MTBF (seconds), required > 0. */
    Time chipMtbf = 0.0;
    /** Checkpoint state per chip (weights + optimizer shards), > 0. */
    Bytes checkpointBytesPerChip = 0;
    /** Failure-detection latency (heartbeat + consensus). */
    Time detectionLatency = 0.5;
    /** Job restart overhead (scheduler + binary + checkpoint read). */
    Time restartTime = 60.0;
    /** Phase-2 candidates re-ranked by recovery economics. */
    int topK = 3;
};

/** One shortlisted candidate's recovery evaluation. */
struct RecoveryCandidate
{
    AutotuneResult plan;    ///< shape + tuned slice counts
    Time stepTime = 0.0;    ///< nominal (fault-free) block FC time
    Time reshardTime = 0.0; ///< cheapest expected single-failure re-shard
    /** Modeled bytes changing owner in that re-shard (expectation over
     *  the uniformly random failed row/column). */
    double reshardBytes = 0.0;
    Time checkpointInterval = 0.0; ///< Young–Daly τ* for this shape
    double goodput = 0.0;          ///< g(τ*) at this shape's downtime
    /** The joint objective: stepTime / goodput — wall-clock seconds
     *  per useful step second once failures are priced in. */
    Time effectiveStepTime = 0.0;
};

/** Recovery-aware tuning outcome. */
struct RecoveryTuneResult
{
    /** Candidates in nominal rank order (entry 0 = nominal pick). */
    std::vector<RecoveryCandidate> candidates;
    /** Index (into `candidates`) of the recovery-aware pick. */
    int pickedIndex = 0;

    const RecoveryCandidate &picked() const
    {
        return candidates.at(static_cast<size_t>(pickedIndex));
    }
    const RecoveryCandidate &nominal() const { return candidates.at(0); }

    /** True when recovery economics changed the decision. */
    bool pickDiffers() const { return pickedIndex != 0; }
};

/**
 * Recovery-aware phase-2: price the checkpoint/restart economics of
 * the first `cfg.topK` entries of a phase-2 @p shortlist (C from the
 * chip's host-DMA bandwidth, M = chipMtbf / chips, D = detection +
 * restart + that shape's expected re-shard), solve τ* per shape, and
 * pick the minimum `effectiveStepTime`. Candidate and pick records are
 * emitted through `SearchTrace` as `"phase":"recovery"` /
 * `"phase":"recovery_pick"`.
 */
RecoveryTuneResult tuneWithRecoveryShortlist(
    const LlmAutotuner &tuner, Algorithm algo,
    const std::vector<AutotuneResult> &shortlist, int chips,
    const RecoveryTuneConfig &cfg);

/** One survivor-mesh option of a mid-run re-plan. */
struct ReplanCandidate
{
    /** The shrink under consideration (retire the dead chip's row or
     *  column). */
    SurvivorMesh mesh;
    /** False when the running spec's dimensions don't divide the
     *  survivor shape — the option is traced but never picked. */
    bool feasible = false;
    /** The running spec re-fit to the survivor mesh with a re-tuned
     *  slice count. Meaningful iff `feasible`. */
    Gemm2DSpec spec;
    Time stepTime = 0.0;       ///< cost-model step estimate on `spec`
    double reshardBytes = 0.0; ///< modeled live-state bytes changing owner
    Time reshardTime = 0.0;    ///< modeled recovery re-shard span
    /** The ranking objective: reshardTime + remaining * stepTime —
     *  pay the migration once, the degraded step rate until the end. */
    Time objective = 0.0;
};

/** Outcome of `replanAfterFailure`. */
struct ReplanResult
{
    /** All survivor options, `survivorOptionsForChip` order (retire-row
     *  first) — including infeasible ones, for the trace. */
    std::vector<ReplanCandidate> candidates;
    /** Index of the pick, or -1 when no option is feasible. */
    int pickedIndex = -1;

    bool feasible() const { return pickedIndex >= 0; }
    const ReplanCandidate &picked() const;
};

/**
 * Incremental re-plan after chip @p dead_chip fail-stops mid-run while
 * executing @p spec under @p algo. Incremental because the expensive
 * tuning phases are *reused*, not redone: phase 1's calibrated cost
 * model arrives via @p cost (the process-wide memoized calibration) and
 * phase 2's shape sweep is replaced by the survivor geometry itself —
 * the only reachable shapes are `survivorOptionsForChip`'s one-row- or
 * one-column-smaller meshes. What is redone is the *ranking*: each
 * feasible option gets a re-tuned slice count (`tuneSliceCount` on the
 * degraded shape) and is charged `reshardTime + remaining_steps *
 * stepTime`, so a cheaper migration can beat a faster degraded mesh
 * when few steps remain and vice versa. Candidates and the pick are
 * emitted through `SearchTrace` as `"phase":"replan"` /
 * `"phase":"replan_pick"` records.
 */
ReplanResult replanAfterFailure(const CostModel &cost, Algorithm algo,
                                const Gemm2DSpec &spec, int dead_chip,
                                int remaining_steps);

} // namespace meshslice

#endif // MESHSLICE_TUNER_ROBUST_HPP_
