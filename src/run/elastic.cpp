#include "run/elastic.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "core/reshard_exec.hpp"
#include "gemm/reshard.hpp"
#include "pipeline/pipeline_exec.hpp"
#include "sim/abandon.hpp"
#include "sim/stats.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/robust.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Per-step weight-update scale of the functional state. Elementwise,
 *  so the result is bit-exact across shard layouts and re-shards. */
constexpr float kElasticLr = 0.5f;

/** Outcome of one phase simulation (step / checkpoint / re-shard). */
struct PhaseOut
{
    Time span = 0.0; ///< committed span, or the detection if failed
    std::uint64_t events = 0;
    bool failed = false;
    FailStop failure;
    double cat[kSpanCategoryCount] = {0, 0, 0, 0, 0, 0, 0};
};

/**
 * One phase's simulation: a fresh `Cluster` at local t = 0, the abandon
 * scope that reclaims what a stopped phase orphaned, and the phase's
 * fault injector. A runner builds the harness, lays its body's topology
 * on `cluster()`, calls `arm()` once the topology's links exist, runs
 * the body and hands its measured end to `close()`.
 *
 * Members are destroyed in reverse declaration order: the injector,
 * then the scope, then the registry's sweep (ring ops, joins and
 * one-sided gets a mid-schedule stop orphaned), while the cluster is
 * still alive.
 */
class PhaseHarness
{
  public:
    /** @p scenario is the phase's slice to arm, or none. */
    PhaseHarness(const ChipConfig &cfg, int chips,
                 const std::optional<FaultScenario> &scenario, bool profile)
        : cluster_(cfg, chips), scope_(abandoned_),
          injector_(cluster_.sim(), cluster_.net(),
                    scenario.value_or(FaultScenario{})),
          armable_(scenario.has_value())
    {
        if (profile)
            cluster_.enableProfiler(true);
    }

    PhaseHarness(const PhaseHarness &) = delete;
    PhaseHarness &operator=(const PhaseHarness &) = delete;

    Cluster &cluster() { return cluster_; }

    /**
     * Arm and attach the phase's scenario, if it was given one, and
     * the runtime's detection watchdog over a killed chip: a kill the
     * schedule absorbs (OneSided) or parks on (a compute-only tail with
     * no collective fail-stop watch live) would otherwise drain to the
     * quiescence abort. The watchdog is armed before any op exists, so
     * it fires before any op's own watch on the same kill (those fire
     * at max(kill, launch) + detection, in scheduling order): at the
     * detection it records the failure and stops the phase, and no
     * ring op ever aborts inside an elastic phase.
     */
    void
    arm()
    {
        if (!armable_)
            return;
        injector_.arm();
        cluster_.attachFaults(&injector_);
        if (!injector_.hasKills())
            return;
        const int chip =
            readChipPattern(injector_.scenario().kills.front().pattern)
                .chip;
        const std::vector<ResourceId> watched{cluster_.coreOf(chip),
                                              cluster_.hbmOf(chip)};
        injector_.watchKills(watched, [this, watched, chip] {
            FailStop f;
            f.op = "elastic.watchdog";
            f.deadResource = cluster_.net().resourceName(watched[
                static_cast<size_t>(injector_.firstKilled(watched))]);
            f.deadChip = chip;
            f.detectedAt = cluster_.sim().now();
            detected_ = std::move(f);
            cluster_.sim().requestStop();
        });
    }

    /**
     * The phase's outcome at its @p measured end. A kill that fired
     * before that end consumed the phase: abort paths measure exactly
     * the detection, and a schedule that absorbed the kill (OneSided)
     * completed but lost its corpse-resident results. The recovery
     * transaction starts at the detection either way.
     */
    PhaseOut
    close(Time measured)
    {
        PhaseOut out;
        out.events = cluster_.sim().eventsProcessed();
        const Time kill_at = injector_.hasKills()
                                 ? injector_.scenario().kills.front().at
                                 : -1.0;
        if (kill_at >= 0.0 && kill_at < measured) {
            if (!detected_)
                panic("runElastic: the kill at %g s fired inside the "
                      "phase but was never detected", kill_at);
            out.failed = true;
            out.failure = *detected_;
            out.span = detected_->detectedAt;
        } else {
            out.span = measured;
        }
        if (cluster_.profiler().enabled()) {
            const Attribution attr =
                extractCriticalPath(cluster_.profiler().nodes());
            for (int i = 0; i < kSpanCategoryCount; ++i)
                out.cat[i] = attr.byCategory[i];
        }
        return out;
    }

  private:
    Cluster cluster_;
    AbandonRegistry abandoned_;
    ScopedAbandonRegistry scope_;
    FaultInjector injector_;
    bool armable_;
    std::optional<FailStop> detected_;
};

/** Cluster size of one step of @p run at @p spec: the pipeline's
 *  stages of `spec`'s mesh, or the mesh alone. */
int
phaseChips(const ElasticRunConfig &run, const Gemm2DSpec &spec)
{
    return run.pipeline.enabled ? run.pipeline.stages * spec.chips()
                                : spec.chips();
}

/** @p live re-based onto a phase starting at global @p wall, with the
 *  jitter seed of phase @p key; none when @p run has no scenario. */
std::optional<FaultScenario>
phaseScenario(const ElasticRunConfig &run, const FaultScenario &live,
              Time wall, std::uint64_t key)
{
    if (!run.haveScenario)
        return std::nullopt;
    return sliceScenarioForPhase(live, wall,
                                 derivePhaseSeed(run.scenario.seed, key));
}

/** One training step of @p run's body on a fresh cluster at local
 *  t = 0: @p algo's GeMM at @p spec, or the pipeline schedule with
 *  `spec` as its per-stage mesh (kill-free by validation). */
PhaseOut
runStepPhase(const ChipConfig &cfg, const ElasticRunConfig &run,
             Algorithm algo, const Gemm2DSpec &spec,
             const std::optional<FaultScenario> &sliced, bool profile)
{
    PhaseHarness h(cfg, phaseChips(run, spec), sliced, profile);
    if (!run.pipeline.enabled)
        return h.close(
            runGemmOnCluster(h.cluster(), algo, spec, [&h] { h.arm(); })
                .time);
    PipelineCluster pc(h.cluster(), run.pipeline.stages, spec.rows,
                       spec.cols);
    h.arm();
    return h.close(runPipeline(pc, run.pipeline.exec).time);
}

/**
 * One timed checkpoint on a fresh cluster. Checkpoint flows touch only
 * HBMs and the shared target, so link-pattern windows are filtered out
 * of the armed scenario (they could not resolve on this link-less
 * cluster and could not bind its flows anyway); chip-addressed windows,
 * stragglers and the kill stay live.
 */
PhaseOut
runCheckpointPhase(const ChipConfig &cfg, int chips,
                   const CheckpointSpec &spec,
                   std::optional<FaultScenario> sliced, bool profile)
{
    if (sliced) {
        std::erase_if(sliced->faults, [](const CapacityFault &f) {
            return !readChipPattern(f.pattern).chipAddressed;
        });
        if (sliced->empty())
            sliced.reset();
    }
    PhaseHarness h(cfg, chips, sliced, profile);
    h.arm();
    Cluster &cluster = h.cluster();
    bool done = false;
    Time span = 0.0;
    runCheckpoint(cluster, spec, [&](Time t) {
        done = true;
        span = t;
    });
    cluster.sim().run();
    if (!done) {
        if (!cluster.sim().stopRequested())
            panic("runElastic: checkpoint phase did not drain");
        // The watchdog stopped a checkpoint parked on a corpse.
        span = cluster.sim().now();
    }
    return h.close(span);
}

/** The enacted recovery re-shard on a fresh old-shape cluster. */
PhaseOut
runRecoveryReshardPhase(const ChipConfig &cfg, const Gemm2DSpec &spec,
                        const ReshardPlan &plan, int dead_chip,
                        Rate restore_bw, bool profile)
{
    PhaseHarness h(cfg, spec.chips(), std::nullopt, profile);
    Cluster &cluster = h.cluster();
    if (profile) {
        const int marker = cluster.profiler().addNode(
            "fail-stop abort", SpanCategory::kRecovery, 0.0, 0.0, {},
            dead_chip);
        cluster.profiler().beginRecovery(marker);
    }
    bool done = false;
    Time span = 0.0;
    runRecoveryReshard(cluster, plan, dead_chip, restore_bw,
                       [&](Time t) {
                           done = true;
                           span = t;
                       });
    cluster.sim().run();
    if (profile)
        cluster.profiler().endRecovery();
    if (!done)
        panic("runElastic: recovery re-shard did not drain");
    return h.close(span);
}

/** Functional training state: A, B and the weight accumulator W are
 *  live `DistMatrix`es; P = A*B is the dense per-step update. */
struct FunctionalState
{
    Matrix aFull, bFull, pFull, w0Full;
    DistMatrix a, b, w;
    DistMatrix ckptW; ///< W snapshot at the last checkpoint
};

void
initFunctional(FunctionalState &fs, const Gemm2DSpec &spec,
               std::uint64_t seed)
{
    const MeshShape mesh{spec.rows, spec.cols};
    fs.aFull = Matrix::random(spec.m, spec.k, seed);
    fs.bFull = Matrix::random(spec.k, spec.n, seed + 1);
    fs.w0Full = Matrix::random(spec.m, spec.n, seed + 2);
    fs.pFull = Matrix::gemm(fs.aFull, fs.bFull);
    fs.a = DistMatrix::scatter(fs.aFull, mesh);
    fs.b = DistMatrix::scatter(fs.bFull, mesh);
    fs.w = DistMatrix::scatter(fs.w0Full, mesh);
    fs.ckptW = fs.w;
}

/** W += lr * P, shard row by shard row (elementwise, so
 *  layout-independent). */
void
applyStepUpdate(FunctionalState &fs)
{
    const std::int64_t cols = fs.pFull.cols();
    fs.w.forEachShardRow([&](std::int64_t r, std::int64_t c0, float *row,
                             std::int64_t count) {
        const float *pd = fs.pFull.data() + r * cols + c0;
        for (std::int64_t c = 0; c < count; ++c)
            row[c] += kElasticLr * pd[c];
    });
}

/** True iff the final W equals its serial reference bit for bit: W0
 *  then @p steps elementwise updates, the exact per-element operation
 *  sequence the distributed run applies regardless of shard layout or
 *  mid-run re-shards. Each shard row is checked in place, a block of
 *  columns at a time, against a reference built from W0 and P. */
bool
finalWIsExact(const FunctionalState &fs, int steps)
{
    constexpr std::int64_t kBlock = 256;
    const std::int64_t cols = fs.w0Full.cols();
    std::atomic<bool> exact{true};
    fs.w.forEachShardRow([&](std::int64_t r, std::int64_t c0,
                             const float *row, std::int64_t count) {
        float ref[kBlock];
        for (std::int64_t b = 0; b < count; b += kBlock) {
            const std::int64_t len = std::min(kBlock, count - b);
            const std::int64_t at = r * cols + c0 + b;
            std::copy_n(fs.w0Full.data() + at, len, ref);
            const float *pd = fs.pFull.data() + at;
            for (int s = 0; s < steps; ++s)
                for (std::int64_t c = 0; c < len; ++c)
                    ref[c] += kElasticLr * pd[c];
            if (!sameFloats(row + b, ref, len))
                exact.store(false, std::memory_order_relaxed);
        }
    });
    return exact.load();
}

/** The trace record of a phase that began at global time @p start. */
ElasticPhase
phaseRecord(ElasticPhase::Kind kind, int index, Time start,
            const PhaseOut &out)
{
    ElasticPhase ph;
    ph.kind = kind;
    ph.index = index;
    ph.start = start;
    ph.span = out.span;
    ph.events = out.events;
    ph.committed = !out.failed;
    return ph;
}

/** Append a phase to @p r's trace, stats and critical-path seconds. */
void
recordPhase(ElasticRunResult &r, StatsRegistry &agg,
            ElasticPhase::Kind kind, int index, Time start,
            const PhaseOut &out)
{
    const std::string base =
        strprintf("elastic/phase%03d", static_cast<int>(r.phases.size()));
    agg.set(base + "/kind", static_cast<double>(kind));
    agg.set(base + "/index", index);
    agg.set(base + "/span_s", out.span);
    agg.set(base + "/events", static_cast<double>(out.events));
    agg.set(base + "/committed", out.failed ? 0.0 : 1.0);
    for (int i = 0; i < kSpanCategoryCount; ++i)
        r.pathSeconds[i] += out.cat[i];
    r.phases.push_back(phaseRecord(kind, index, start, out));
}

void
validateElasticConfig(const ElasticRunConfig &run, int chips0)
{
    if (run.steps <= 0)
        fatal("runElastic: steps must be positive (got %d)", run.steps);
    if (run.pipeline.enabled) {
        if (run.pipeline.stages < 1)
            fatal("runElastic: pipeline stages must be >= 1 (got %d)",
                  run.pipeline.stages);
        if (run.functionalState)
            fatal("runElastic: functional state is defined for the GeMM "
                  "step body, not pipeline schedules");
    }
    if (run.haveScenario) {
        validateScenario(run.scenario, "runElastic scenario");
        if (run.scenario.kills.size() > 1)
            fatal("runElastic: the elastic runtime recovers from at most "
                  "one fail-stop per run (scenario has %d kills)",
                  static_cast<int>(run.scenario.kills.size()));
        if (!run.scenario.kills.empty()) {
            if (run.pipeline.enabled)
                fatal("runElastic: fail-stop recovery is not implemented "
                      "for pipeline step bodies (stage retirement needs "
                      "a schedule re-plan) — use a kill-free scenario");
            const std::string &kill = run.scenario.kills.front().pattern;
            const ChipPattern dead = readChipPattern(kill);
            if (dead.chip < 0 || !dead.resource.empty())
                fatal("runElastic: kill pattern \"%s\" is not a whole-chip "
                      "kill (\"chip<i>.\") — the elastic runtime recovers "
                      "from chip fail-stops only", kill.c_str());
            if (dead.chip >= chips0)
                fatal("runElastic: kill pattern \"%s\" addresses a chip "
                      "outside the %d-chip cluster", kill.c_str(), chips0);
            // The shrink renumbers the survivors, which only works for
            // a pattern that names one chip ("chip1" also hits chip10+).
            for (const CapacityFault &f : run.scenario.faults) {
                const ChipPattern addr = readChipPattern(f.pattern);
                if (addr.chipAddressed && addr.chip < 0)
                    fatal("runElastic: fault pattern \"%s\" names several "
                          "chips — a recovery shrink renumbers the "
                          "survivors, so a chip-addressed pattern must name "
                          "exactly one chip (\"chip<i>.\")",
                          f.pattern.c_str());
            }
            if (!(run.scenario.detectionLatency > 0.0))
                fatal("runElastic: fail-stop recovery requires a "
                      "strictly positive detection latency");
            if (!(run.checkpointTargetBandwidth > 0.0))
                fatal("runElastic: recovery restores the corpse's blocks "
                      "from the checkpoint target — "
                      "checkpointTargetBandwidth must be positive when "
                      "the scenario kills a chip");
            if (!shapeFeasible(run.spec.m, run.spec.k, run.spec.n,
                               run.spec.rows, run.spec.cols))
                fatal("runElastic: fail-stop recovery re-shards all "
                      "three operands exactly, so m, k and n must "
                      "divide both mesh axes");
        }
    }
    if (run.functionalState &&
        !shapeFeasible(run.spec.m, run.spec.k, run.spec.n, run.spec.rows,
                       run.spec.cols))
        fatal("runElastic: functional state scatters A, B and W, so m, "
              "k and n must divide both mesh axes");
}

} // namespace

const char *
elasticPhaseKindName(ElasticPhase::Kind kind)
{
    switch (kind) {
      case ElasticPhase::Kind::kStep:
        return "step";
      case ElasticPhase::Kind::kCheckpoint:
        return "checkpoint";
      case ElasticPhase::Kind::kRecovery:
        return "recovery";
    }
    return "?";
}

ElasticRunResult
runElastic(const ChipConfig &cfg, const ElasticRunConfig &run)
{
    const int chips0 = phaseChips(run, run.spec);
    validateElasticConfig(run, chips0);

    const bool ckpt_on = run.checkpointBytesPerChip > 0 &&
                         run.checkpointTargetBandwidth > 0.0;

    // Checkpoint interval: explicit, or the Young–Daly optimum of this
    // cluster's recovery economics.
    Time interval = 0.0;
    if (ckpt_on) {
        if (run.checkpointInterval > 0.0) {
            interval = run.checkpointInterval;
        } else {
            if (!(run.chipMtbf > 0.0))
                fatal("runElastic: set checkpointInterval or a positive "
                      "chipMtbf to solve the Young-Daly interval");
            TrainingRunModel m;
            m.checkpointBytesPerChip = run.checkpointBytesPerChip;
            m.chipMtbf = run.chipMtbf;
            m.chips = chips0;
            m.detectionLatency =
                run.haveScenario ? run.scenario.detectionLatency : 0.5;
            m.restartTime = run.restartTime;
            const ReshardEstimate reshard = expectedReshard(
                cfg, MeshShape{run.spec.rows, run.spec.cols},
                liveStateBytes(run.spec));
            if (reshard.time < 0.0)
                fatal("runElastic: a %dx%d mesh has no survivor mesh to "
                      "re-shard onto, so no Young-Daly interval exists",
                      run.spec.rows, run.spec.cols);
            m.reshardTime = reshard.time;
            interval = evaluateTrainingRun(cfg, m).optimalInterval;
        }
    }

    StatsRegistry agg;
    agg.enable(true);

    FunctionalState fs;
    if (run.functionalState)
        initFunctional(fs, run.spec, run.functionalSeed);

    ElasticRunResult result;
    result.finalSpec = run.spec;
    result.finalAlgo = run.algo;

    // Fault-free probe: the measured full-mesh step time anchoring
    // both the goodput denominator and the analytic prediction. Runs
    // on its own cluster; the main loop's phases are unaffected.
    result.stepTimeFullMesh =
        runStepPhase(cfg, run, run.algo, run.spec, std::nullopt, false)
            .span;

    FaultScenario live = run.scenario; // global-time; remapped on shrink
    Gemm2DSpec spec_cur = run.spec;
    Algorithm algo_cur = run.algo;
    Time wall = 0.0;
    Time useful_since_ckpt = 0.0;
    int step = 0;
    int last_ckpt_step = 0;
    Time survivor_step_est = 0.0;
    Time survivor_reshard_est = 0.0;

    while (step < run.steps) {
        PhaseOut out = runStepPhase(
            cfg, run, algo_cur, spec_cur,
            phaseScenario(run, live, wall, static_cast<std::uint64_t>(step)),
            run.profile);
        recordPhase(result, agg, ElasticPhase::Kind::kStep, step, wall,
                    out);

        if (!out.failed) {
            wall += out.span;
            useful_since_ckpt += out.span;
            ++step;
            if (run.functionalState)
                applyStepUpdate(fs);
            if (step < run.steps && ckpt_on &&
                useful_since_ckpt >= interval) {
                CheckpointSpec cspec;
                cspec.bytesPerChip = run.checkpointBytesPerChip;
                cspec.targetBandwidth = run.checkpointTargetBandwidth;
                const PhaseOut cout = runCheckpointPhase(
                    cfg, phaseChips(run, spec_cur), cspec,
                    phaseScenario(run, live, wall,
                                  0x10000u + static_cast<std::uint64_t>(
                                                 result.checkpoints)),
                    run.profile);
                recordPhase(result, agg, ElasticPhase::Kind::kCheckpoint,
                            result.checkpoints, wall, cout);
                if (cout.failed) {
                    out = cout; // the recovery below handles it
                } else {
                    wall += cout.span;
                    ++result.checkpoints;
                    useful_since_ckpt = 0.0;
                    last_ckpt_step = step;
                    if (run.functionalState)
                        fs.ckptW = fs.w;
                }
            }
            if (!out.failed)
                continue;
        }

        // The recovery transaction. Exactly one per run: the scenario
        // carries at most one kill, and a second fail-stop would have
        // no kill left to be attributed to.
        if (result.recovered)
            fatal("runElastic: a second fail-stop was observed — the "
                  "elastic runtime recovers from one kill per run");
        const int dead = out.failure.deadChip;
        result.recovered = true;
        result.deadChip = dead;
        result.redoneSteps = step - last_ckpt_step;
        result.detectionSpan = run.scenario.detectionLatency;
        wall += out.span; // the kill's detection, phase-local

        // Incremental re-plan: phase 1/2 (calibration, shape sweep)
        // are reused — only the survivor ranking is redone. Cannon
        // cannot survive a one-line shrink (squareness), so it
        // re-plans onto MeshSlice.
        const Algorithm post_algo = algo_cur == Algorithm::kCannon
                                        ? Algorithm::kMeshSlice
                                        : algo_cur;
        const CostModel cost = CostModel::calibrated(cfg);
        const ReplanResult rp = replanAfterFailure(
            cost, post_algo, spec_cur, dead, run.steps - last_ckpt_step);
        int pick = -1;
        for (size_t i = 0; i < rp.candidates.size(); ++i) {
            const ReplanCandidate &cand = rp.candidates[i];
            const MeshShape to = cand.mesh.to();
            if (!cand.feasible || !shapeFeasible(spec_cur.m, spec_cur.k,
                                                 spec_cur.n, to.rows,
                                                 to.cols))
                continue;
            if (pick < 0 ||
                cand.objective <
                    rp.candidates[static_cast<size_t>(pick)].objective)
                pick = static_cast<int>(i);
        }
        if (pick < 0)
            fatal("runElastic: no survivor mesh of %dx%d can host the "
                  "run after chip %d died", spec_cur.rows, spec_cur.cols,
                  dead);
        const ReplanCandidate &cand =
            rp.candidates[static_cast<size_t>(pick)];
        const SurvivorMesh sv = cand.mesh;
        survivor_step_est = cand.stepTime;
        survivor_reshard_est = cand.reshardTime;
        result.replanSpan = run.restartTime;
        wall += run.restartTime;

        // The enacted re-shard: all three live operands, survivor
        // blocks over real links, corpse blocks from the checkpoint
        // target.
        const ReshardPlan plan = planReshard(
            {{spec_cur.m, spec_cur.k},
             {spec_cur.k, spec_cur.n},
             {spec_cur.m, spec_cur.n}},
            spec_cur.bytesPerElement, sv);
        const PhaseOut rout = runRecoveryReshardPhase(
            cfg, spec_cur, plan, dead, run.checkpointTargetBandwidth,
            run.profile);
        recordPhase(result, agg, ElasticPhase::Kind::kRecovery, 0, wall,
                    rout);
        result.reshardSpan = rout.span;
        wall += rout.span;
        agg.set("elastic/recovery/detect_s", result.detectionSpan);
        agg.set("elastic/recovery/replan_s", result.replanSpan);
        agg.set("elastic/recovery/reshard_s", result.reshardSpan);
        agg.set("elastic/recovery/reshard_bytes",
                static_cast<double>(plan.totalBytes));

        // Rollback: restore the last checkpoint's functional state and
        // re-shard everything onto the survivor mesh (bit-exact).
        if (run.functionalState) {
            fs.w = reshard(fs.ckptW, sv);
            fs.a = reshard(fs.a, sv);
            fs.b = reshard(fs.b, sv);
            fs.ckptW = fs.w;
            if (!fs.a.sameAs(fs.aFull) || !fs.b.sameAs(fs.bFull))
                fatal("runElastic: functional re-shard corrupted A/B — "
                      "reshard() must be a bit-exact redistribution");
        }
        if (run.haveScenario) {
            FaultScenario stripped = live;
            stripped.kills.clear();
            live = remapScenarioChips(stripped, oldToNewChipMap(sv));
        }
        spec_cur = cand.spec;
        algo_cur = post_algo;
        result.finalSpec = spec_cur;
        result.finalAlgo = algo_cur;
        step = last_ckpt_step;
        useful_since_ckpt = 0.0;
    }

    result.wall = wall;
    result.usefulTime = run.steps * result.stepTimeFullMesh;
    result.goodput = wall > 0.0 ? result.usefulTime / wall : 0.0;

    if (run.functionalState) {
        result.functionalChecked = true;
        result.functionalOk = finalWIsExact(fs, run.steps);
    }

    // Analytic mirror: measured full-mesh step time + closed-form
    // phase models walked through the same state machine.
    {
        ElasticPredictionInput pin;
        pin.steps = run.steps;
        pin.stepTime = result.stepTimeFullMesh;
        pin.survivorStepTime =
            result.recovered ? survivor_step_est : result.stepTimeFullMesh;
        if (ckpt_on) {
            pin.checkpointCost = checkpointModelCost(
                cfg, chips0, run.checkpointBytesPerChip,
                run.checkpointTargetBandwidth);
            pin.survivorCheckpointCost = checkpointModelCost(
                cfg, phaseChips(run, result.finalSpec),
                run.checkpointBytesPerChip,
                run.checkpointTargetBandwidth);
            pin.checkpointInterval = interval;
        }
        if (run.haveScenario && !run.scenario.kills.empty()) {
            pin.killTime = run.scenario.kills.front().at;
            pin.detectionLatency = run.scenario.detectionLatency;
            pin.replanTime = run.restartTime;
            pin.reshardTime = survivor_reshard_est;
        }
        result.predicted = predictElasticWall(pin);
        result.modelError =
            result.predicted.wall > 0.0
                ? std::abs(result.wall - result.predicted.wall) /
                      result.predicted.wall
                : 0.0;
    }

    agg.set("elastic/steps", run.steps);
    agg.set("elastic/wall_s", result.wall);
    agg.set("elastic/useful_s", result.usefulTime);
    agg.set("elastic/goodput", result.goodput);
    agg.set("elastic/step_full_mesh_s", result.stepTimeFullMesh);
    agg.set("elastic/checkpoints", result.checkpoints);
    agg.set("elastic/redone_steps", result.redoneSteps);
    agg.set("elastic/recovered", result.recovered ? 1.0 : 0.0);
    agg.set("elastic/predicted/wall_s", result.predicted.wall);
    agg.set("elastic/predicted/goodput", result.predicted.goodput);
    agg.set("elastic/predicted/checkpoints", result.predicted.checkpoints);
    agg.set("elastic/predicted/redone_steps",
            result.predicted.redoneSteps);
    agg.set("elastic/model_error", result.modelError);
    if (result.functionalChecked)
        agg.set("elastic/functional_ok",
                result.functionalOk ? 1.0 : 0.0);
    result.statsJson = agg.toJson();
    return result;
}

PlainRunResult
runPlainSteps(const ChipConfig &cfg, const ElasticRunConfig &run)
{
    if (run.steps <= 0)
        fatal("runPlainSteps: steps must be positive (got %d)",
              run.steps);

    PlainRunResult result;
    FunctionalState fs;
    if (run.functionalState) {
        if (run.pipeline.enabled)
            fatal("runPlainSteps: functional state is defined for the "
                  "GeMM step body, not pipeline schedules");
        initFunctional(fs, run.spec, run.functionalSeed);
    }
    Time wall = 0.0;
    for (int step = 0; step < run.steps; ++step) {
        const PhaseOut out = runStepPhase(
            cfg, run, run.algo, run.spec,
            phaseScenario(run, run.scenario, wall,
                          static_cast<std::uint64_t>(step)),
            false);
        if (out.failed)
            fatal("runPlainSteps: a fail-stop fired inside step %d — "
                  "the plain loop has no recovery; use runElastic",
                  step);
        result.steps.push_back(
            phaseRecord(ElasticPhase::Kind::kStep, step, wall, out));
        wall += out.span;
        if (run.functionalState)
            applyStepUpdate(fs);
    }
    result.wall = wall;
    if (run.functionalState) {
        result.functionalChecked = true;
        result.functionalOk = finalWIsExact(fs, run.steps);
    }
    return result;
}

std::string
elasticTraceJson(const ElasticRunResult &r)
{
    std::string out;
    for (const ElasticPhase &ph : r.phases) {
        out += strprintf(
            "{\"phase\":%s,\"index\":%d,\"start_s\":%s,\"span_s\":%s,"
            "\"events\":%llu,\"committed\":%s}\n",
            jsonString(elasticPhaseKindName(ph.kind)).c_str(), ph.index,
            jsonNumber(ph.start).c_str(), jsonNumber(ph.span).c_str(),
            static_cast<unsigned long long>(ph.events),
            ph.committed ? "true" : "false");
    }
    out += strprintf(
        "{\"phase\":\"summary\",\"wall_s\":%s,\"goodput\":%s,"
        "\"checkpoints\":%d,\"redone_steps\":%d,\"recovered\":%s,"
        "\"predicted_wall_s\":%s,\"model_error\":%s}\n",
        jsonNumber(r.wall).c_str(), jsonNumber(r.goodput).c_str(),
        r.checkpoints, r.redoneSteps, r.recovered ? "true" : "false",
        jsonNumber(r.predicted.wall).c_str(),
        jsonNumber(r.modelError).c_str());
    return out;
}

void
writeElasticTrace(const ElasticRunResult &r, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("writeElasticTrace: cannot open %s", path.c_str());
    const std::string text = elasticTraceJson(r);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace meshslice
