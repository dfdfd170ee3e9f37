/**
 * @file
 * Tests of the elastic training-run runtime (`src/run`): the enacted
 * recovery transaction (detect -> re-plan -> re-shard -> rollback ->
 * resume), the hand-computable 2-step/1-kill wall-clock identity,
 * measured-vs-analytic cross-validation, fault-free bit-identity with
 * the plain step loop, thread-count invariance, malformed-scenario
 * death tests, and the chaos soak: seeded fuzzed fault scenarios
 * across all eight algorithms (plus a pipeline schedule) asserting the
 * global invariants — completion, wall-clock conservation, bit-
 * identical seeded replay, and bit-exact functional state.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/recovery_study.hpp"
#include "core/reshard_exec.hpp"
#include "run/elastic.hpp"
#include "sim/fault.hpp"
#include "tuner/robust.hpp"
#include "util/parallel.hpp"

namespace meshslice {
namespace {

/** Round numbers for hand-checkable cost arithmetic. */
ChipConfig
simpleConfig()
{
    ChipConfig cfg;
    cfg.iciLinkBandwidth = 100.0; // 100 B/s
    cfg.hbmBandwidth = 1e9;       // never the bottleneck here
    cfg.syncLatency = 1.0;        // 1 s
    cfg.launchOverhead = 10.0;    // 10 s
    cfg.bidirectionalIci = false;
    return cfg;
}

/** A small elastic run: 2x2 mesh, dims divisible by every survivor
 *  axis (1, 2, 3, 4), functional state on. */
ElasticRunConfig
smallRun(Algorithm algo = Algorithm::kMeshSlice)
{
    ElasticRunConfig run;
    run.algo = algo;
    run.spec.m = run.spec.k = run.spec.n = 12;
    run.spec.rows = run.spec.cols = 2;
    run.spec.sliceCount = 1;
    run.steps = 4;
    run.functionalState = true;
    return run;
}

/** Wall-clock conservation: the global wall must equal the sum of all
 *  phase spans (committed and aborted — an aborted phase's span is the
 *  local kill time + detection) plus the re-plan/restart overhead. */
void
expectWallConservation(const ElasticRunResult &r, Time restart_time)
{
    Time acc = 0.0;
    for (const ElasticPhase &ph : r.phases)
        acc += ph.span;
    if (r.recovered)
        acc += restart_time;
    EXPECT_NEAR(r.wall, acc, 1e-12 * std::max(1.0, std::abs(r.wall)));
}

// ---------------------------------------------------------------------
// Fault-free elastic == plain step loop, bit for bit.

TEST(ElasticRun, FaultFreeElasticRunIsBitIdenticalToPlainStepLoop)
{
    const ChipConfig cfg = tpuV4Config();
    ElasticRunConfig run = smallRun();
    // Launch jitter exercises the per-step seed slicing: both loops
    // must derive the same per-phase jitter streams. Scale it off a
    // probe so it perturbs, not dominates.
    const ElasticRunResult probe = runElastic(cfg, run);
    run.haveScenario = true;
    run.scenario.seed = 5;
    run.scenario.maxLaunchJitter = 1e-3 * probe.stepTimeFullMesh;

    const ElasticRunResult elastic = runElastic(cfg, run);
    const PlainRunResult plain = runPlainSteps(cfg, run);

    ASSERT_EQ(elastic.phases.size(), plain.steps.size());
    for (size_t i = 0; i < plain.steps.size(); ++i) {
        EXPECT_EQ(elastic.phases[i].span, plain.steps[i].span) << i;
        EXPECT_EQ(elastic.phases[i].events, plain.steps[i].events) << i;
        EXPECT_EQ(static_cast<int>(elastic.phases[i].kind),
                  static_cast<int>(ElasticPhase::Kind::kStep));
    }
    EXPECT_EQ(elastic.wall, plain.wall);
    EXPECT_EQ(elastic.checkpoints, 0);
    EXPECT_FALSE(elastic.recovered);
    EXPECT_TRUE(elastic.functionalChecked);
    EXPECT_TRUE(elastic.functionalOk);
    EXPECT_TRUE(plain.functionalOk);
    // The probe is jitter-free, so the analytic mirror is off by the
    // jitter alone: a sub-percent effect at this amplitude.
    EXPECT_LT(elastic.modelError, 0.05);
}

TEST(ElasticRun, ScenarioFreeElasticRunPredictsExactly)
{
    const ChipConfig cfg = tpuV4Config();
    const ElasticRunConfig run = smallRun();
    const ElasticRunResult elastic = runElastic(cfg, run);
    // No scenario at all: the probe measures the very step the loop
    // replays, so the analytic mirror is exact.
    EXPECT_EQ(elastic.modelError, 0.0);
    EXPECT_EQ(elastic.wall, 4 * elastic.stepTimeFullMesh);
}

TEST(ElasticRun, CheckpointCadenceMatchesIntervalAndClosedForm)
{
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run = smallRun();
    run.steps = 4;
    run.checkpointBytesPerChip = 1000;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e-6; // every step qualifies
    const ElasticRunResult r = runElastic(cfg, run);

    // A checkpoint after every step except the last.
    EXPECT_EQ(r.checkpoints, run.steps - 1);
    // Hand-computed span: launch + bytes / min(hbm, target/chips) +
    // sync = 10 + 1000 / (1e9 / 4) + 1.
    const Time expect_ckpt = 10.0 + 1000.0 / (1e9 / 4.0) + 1.0;
    int seen = 0;
    for (const ElasticPhase &ph : r.phases)
        if (ph.kind == ElasticPhase::Kind::kCheckpoint) {
            EXPECT_NEAR(ph.span, expect_ckpt, 1e-9);
            ++seen;
        }
    EXPECT_EQ(seen, run.steps - 1);
    // The analytic mirror walks the same cadence with the same
    // closed-form cost, so the fault-free prediction stays exact.
    EXPECT_EQ(r.predicted.checkpoints, r.checkpoints);
    EXPECT_NEAR(r.modelError, 0.0, 1e-12);
    expectWallConservation(r, run.restartTime);
}

// ---------------------------------------------------------------------
// The hand-computable 2-step / 1-kill recovery identity (satellite 3).

TEST(ElasticRecovery, TwoStepOneKillWallDecomposesByHand)
{
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run = smallRun();
    run.steps = 2;
    run.checkpointBytesPerChip = 1000;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e9; // no checkpoint fits: rollback to 0
    run.restartTime = 2.0;

    // Probe the fault-free step time, then aim the kill inside step 2.
    const ElasticRunResult probe = runElastic(cfg, run);
    const Time t_step = probe.stepTimeFullMesh;
    ASSERT_GT(t_step, 0.0);

    run.haveScenario = true;
    run.scenario.seed = 3;
    run.scenario.detectionLatency = 0.25;
    run.scenario.kills.push_back(KillFault{"chip3.", 1.5 * t_step});
    const ElasticRunResult r = runElastic(cfg, run);

    ASSERT_TRUE(r.recovered);
    EXPECT_EQ(r.deadChip, 3);
    EXPECT_EQ(r.redoneSteps, 1); // step 0 done, no checkpoint -> redo it
    EXPECT_EQ(r.checkpoints, 0);
    EXPECT_TRUE(r.functionalOk);

    // Survivor step span: both post-recovery steps are bit-identical
    // phases on the shrunk mesh.
    std::vector<Time> survivor_spans;
    bool seen_abort = false;
    for (const ElasticPhase &ph : r.phases) {
        if (!ph.committed)
            seen_abort = true;
        else if (seen_abort && ph.kind == ElasticPhase::Kind::kStep)
            survivor_spans.push_back(ph.span);
    }
    ASSERT_EQ(survivor_spans.size(), 2u);
    EXPECT_EQ(survivor_spans[0], survivor_spans[1]);

    // The whole wall, by hand: the kill's global time (step 1 committed
    // plus the fraction of step 2 until the kill), plus detection,
    // re-plan/restart, the measured recovery re-shard, plus both steps
    // redone on the survivor mesh.
    const Time expect_wall = 1.5 * t_step + 0.25 + 2.0 + r.reshardSpan +
                             2.0 * survivor_spans[0];
    EXPECT_NEAR(r.wall, expect_wall, 1e-9);
    expectWallConservation(r, run.restartTime);

    // Analytic cross-validation: same state machine, modeled phase
    // costs. The survivor step & re-shard estimates carry model error;
    // hold it to the band the bench asserts.
    EXPECT_TRUE(r.predicted.recovered);
    EXPECT_EQ(r.predicted.redoneSteps, r.redoneSteps);
    EXPECT_LT(r.modelError, 0.35);
}

TEST(ElasticRecovery, KillAfterCheckpointRollsBackToCheckpoint)
{
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run = smallRun();
    run.steps = 4;
    run.checkpointBytesPerChip = 1000;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e9; // placeholder for the probe
    run.restartTime = 2.0;

    const ElasticRunResult probe = runElastic(cfg, run);
    const Time t_step = probe.stepTimeFullMesh;
    const Time t_ckpt = 10.0 + 1000.0 / (1e9 / 4.0) + 1.0;
    // Checkpoint every ~2 steps: the first fires after step 2.
    run.checkpointInterval = 1.5 * t_step;

    // Kill inside step 4: steps 1-2 are checkpointed, step 3 committed
    // after the checkpoint. Exactly one step is redone and state
    // restores from the mid-run snapshot (not from W0).
    run.haveScenario = true;
    run.scenario.seed = 9;
    run.scenario.detectionLatency = 0.25;
    run.scenario.kills.push_back(
        KillFault{"chip1.", 3.0 * t_step + t_ckpt + 0.5 * t_step});
    const ElasticRunResult r = runElastic(cfg, run);

    ASSERT_TRUE(r.recovered);
    EXPECT_EQ(r.redoneSteps, 1);
    EXPECT_TRUE(r.functionalOk) << "rollback must restore the weight "
                                   "snapshot bit-exactly";
    EXPECT_EQ(r.predicted.redoneSteps, 1);
    EXPECT_GE(r.checkpoints, 1);
    expectWallConservation(r, run.restartTime);
}

TEST(ElasticRecovery, CannonReplansOntoMeshSliceAndOneSidedAbsorbsKill)
{
    const ChipConfig cfg = simpleConfig();
    for (const Algorithm algo :
         {Algorithm::kCannon, Algorithm::kOneSided}) {
        ElasticRunConfig run = smallRun(algo);
        run.steps = 3;
        run.checkpointBytesPerChip = 500;
        run.checkpointTargetBandwidth = 1e9;
        run.checkpointInterval = 1e9;
        const ElasticRunResult probe = runElastic(cfg, run);
        run.haveScenario = true;
        run.scenario.seed = 17;
        run.scenario.detectionLatency = 0.5;
        run.scenario.kills.push_back(
            KillFault{"chip2.", 1.4 * probe.stepTimeFullMesh});
        const ElasticRunResult r = runElastic(cfg, run);
        ASSERT_TRUE(r.recovered) << algorithmName(algo);
        EXPECT_TRUE(r.functionalOk) << algorithmName(algo);
        EXPECT_EQ(r.finalSpec.chips(), 2) << algorithmName(algo);
        if (algo == Algorithm::kCannon)
            EXPECT_EQ(static_cast<int>(r.finalAlgo),
                      static_cast<int>(Algorithm::kMeshSlice))
                << "no one-line shrink of a square mesh is square";
        else
            EXPECT_EQ(static_cast<int>(r.finalAlgo),
                      static_cast<int>(algo));
        expectWallConservation(r, run.restartTime);
    }
}

TEST(ElasticRecovery, OneSidedPhaseStoppedMidGetLeaksNothing)
{
    // On real hardware the kill lands while a step's gets are still in
    // flight; the watchdog stops the phase and every orphaned get must
    // be reclaimed by the phase's abandon sweep (the address-sanitizer
    // leg reports a leak otherwise).
    const ChipConfig cfg = tpuV4Config();
    ElasticRunConfig run = smallRun(Algorithm::kOneSided);
    run.spec.m = run.spec.k = run.spec.n = 384;
    run.spec.sliceCount = 2;
    run.steps = 3;
    run.checkpointBytesPerChip = 500;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e9;
    const ElasticRunResult probe = runElastic(cfg, run);
    run.haveScenario = true;
    run.scenario.seed = 17;
    run.scenario.detectionLatency = 0.5;
    run.scenario.kills.push_back(
        KillFault{"chip2.", 1.4 * probe.stepTimeFullMesh});
    const ElasticRunResult r = runElastic(cfg, run);
    ASSERT_TRUE(r.recovered);
    EXPECT_TRUE(r.functionalOk);
    EXPECT_EQ(r.finalSpec.chips(), 2);
    expectWallConservation(r, run.restartTime);
}

TEST(ElasticRecovery, WindowEndingAtTheKillSurvivesPhaseSlicing)
{
    // A capacity window on the killed chip may end exactly at the
    // kill. Every phase shifts both by its start, and the two shifts
    // round on their own: this window starts at the kill K and lasts
    // half an ulp of K, so it ends at K globally (the sum rounds to
    // even) but an ulp past the shifted kill in any phase starting in
    // (0, K/2]. Slicing must keep it ending by the kill, or the second
    // step's injector rejects the scenario mid-run.
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run = smallRun();
    run.steps = 5;
    run.checkpointBytesPerChip = 500;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e9;
    const Time t_step = runElastic(cfg, run).stepTimeFullMesh;
    // A power of two in [2 t_step, 4 t_step): step 2 starts by K/2 and
    // the kill lands inside the run.
    const Time kill_at = std::exp2(std::ceil(std::log2(2.0 * t_step)));
    run.haveScenario = true;
    run.scenario.seed = 5;
    run.scenario.detectionLatency = 0.5;
    run.scenario.faults.push_back(CapacityFault{
        "chip1.hbm", 0.5, kill_at, std::ldexp(kill_at, -53)});
    run.scenario.kills.push_back(KillFault{"chip1.", kill_at});
    const ElasticRunResult r = runElastic(cfg, run);
    ASSERT_TRUE(r.recovered);
    EXPECT_EQ(r.deadChip, 1);
    EXPECT_TRUE(r.functionalOk);
    expectWallConservation(r, run.restartTime);
}

// ---------------------------------------------------------------------
// Thread-count invariance (satellite 3): pick, stats JSON and trace.

TEST(ElasticRun, ResultIsInvariantToThreadCount)
{
    const ChipConfig cfg = tpuV4Config();
    ElasticRunConfig run = smallRun();
    run.steps = 3;
    run.checkpointBytesPerChip = 4096;
    run.checkpointTargetBandwidth = 1e12;
    run.checkpointInterval = 1e9;
    run.restartTime = 0.01;
    run.profile = true;

    const ElasticRunResult probe = runElastic(cfg, run);
    run.haveScenario = true;
    run.scenario.seed = 21;
    run.scenario.maxLaunchJitter = 1e-6;
    run.scenario.detectionLatency = 0.001;
    run.scenario.kills.push_back(
        KillFault{"chip1.", 1.5 * probe.stepTimeFullMesh});

    ThreadPool::setGlobalThreads(1);
    const ElasticRunResult serial = runElastic(cfg, run);
    ThreadPool::setGlobalThreads(8);
    const ElasticRunResult parallel = runElastic(cfg, run);
    ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());

    EXPECT_EQ(serial.wall, parallel.wall);
    EXPECT_EQ(serial.finalSpec.rows, parallel.finalSpec.rows);
    EXPECT_EQ(serial.finalSpec.cols, parallel.finalSpec.cols);
    EXPECT_EQ(serial.finalSpec.sliceCount, parallel.finalSpec.sliceCount);
    EXPECT_EQ(serial.statsJson, parallel.statsJson);
    EXPECT_EQ(elasticTraceJson(serial), elasticTraceJson(parallel));
}

TEST(Replan, EveryFeasibleSurvivorPassesValidateSpec)
{
    const CostModel cost = CostModel::calibrated(tpuV4Config());
    Gemm2DSpec spec;
    spec.m = 1152;
    spec.k = 1024;
    spec.n = 1152;
    spec.rows = spec.cols = 4;
    // Chip 1 dies: retiring its column leaves 4x3, over which A
    // (1152x1024) does not split, and retiring its row leaves 3x4,
    // over which B (1024x1152) does not.
    const ReplanResult none =
        replanAfterFailure(cost, Algorithm::kMeshSlice, spec, 1, 10);
    ASSERT_EQ(none.candidates.size(), 2u);
    for (const ReplanCandidate &cand : none.candidates)
        EXPECT_FALSE(cand.feasible)
            << cand.mesh.to().rows << "x" << cand.mesh.to().cols;
    EXPECT_FALSE(none.feasible());

    // With k = 1152 and n = 1024 every operand splits over 3x4 only.
    spec.k = 1152;
    spec.n = 1024;
    const ReplanResult rp =
        replanAfterFailure(cost, Algorithm::kMeshSlice, spec, 1, 10);
    ASSERT_TRUE(rp.feasible());
    EXPECT_EQ(rp.picked().mesh.to(), (MeshShape{3, 4}));
    for (const ReplanCandidate &cand : rp.candidates) {
        Gemm2DSpec on = spec;
        on.rows = cand.mesh.to().rows;
        on.cols = cand.mesh.to().cols;
        EXPECT_EQ(cand.feasible, operandsShardEvenly(on));
        if (cand.feasible)
            validateSpec(cand.spec); // fatal()s on a spec it rejects
    }
}

// ---------------------------------------------------------------------
// Malformed scenarios die with positional fatals (satellite 1).

TEST(ElasticDeathTest, NegativeDetectionLatencyIsFatal)
{
    FaultScenario s;
    s.detectionLatency = -0.5;
    EXPECT_DEATH(validateScenario(s, "unit test"),
                 "detection_latency_s.* must be finite and >= 0 in "
                 "unit test");
}

TEST(ElasticDeathTest, SecondKillOfDeadResourceIsFatal)
{
    FaultScenario s;
    s.detectionLatency = 0.5;
    s.kills.push_back(KillFault{"chip1.hbm", 1.0});
    s.kills.push_back(KillFault{"chip1.hbm", 3.0});
    EXPECT_DEATH(validateScenario(s, "unit test"),
                 "kill #1 .*chip1\\.hbm.*already took down in unit test "
                 ".*dies exactly once");
}

TEST(ElasticDeathTest, KillInsideAnotherKillsDetectionWindowIsFatal)
{
    FaultScenario s;
    s.detectionLatency = 2.0;
    s.kills.push_back(KillFault{"chip1.", 1.0});
    s.kills.push_back(KillFault{"chip1.hbm", 2.5});
    EXPECT_DEATH(validateScenario(s, "unit test"),
                 "lies inside kill #0's detection window");
}

TEST(ElasticDeathTest, KillWithoutDetectionLatencyIsFatal)
{
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run = smallRun();
    run.checkpointBytesPerChip = 100;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e9;
    run.haveScenario = true;
    run.scenario.detectionLatency = 0.0;
    run.scenario.kills.push_back(KillFault{"chip1.", 1.0});
    EXPECT_DEATH(runElastic(cfg, run),
                 "strictly positive detection latency");
}

TEST(ElasticDeathTest, LinkKillIsRejectedAsNonChipFailure)
{
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run = smallRun();
    run.checkpointBytesPerChip = 100;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e9;
    run.haveScenario = true;
    run.scenario.kills.push_back(KillFault{"link.E.b0.r0.c0", 1.0});
    EXPECT_DEATH(runElastic(cfg, run), "not a whole-chip kill");
}

TEST(ElasticDeathTest, PatternNamingSeveralChipsIsRejectedUpFront)
{
    // "chip1" also matches chip10-chip19, so once a shrink renumbers
    // the survivors it cannot follow one chip: the run must refuse it
    // before its first step, not misread it after the kill.
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run = smallRun();
    run.checkpointBytesPerChip = 100;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e9;
    run.haveScenario = true;
    run.scenario.faults.push_back(CapacityFault{"chip1", 0.5, 0.0, -1.0});
    run.scenario.kills.push_back(KillFault{"chip2.", 1.0});
    EXPECT_DEATH(runElastic(cfg, run),
                 "fault pattern \"chip1\" names several chips");
}

TEST(ElasticDeathTest, KillInsideAPlainPipelineStepIsFatal)
{
    // runElastic refuses a kill with a pipeline body up front. The plain
    // loop has no recovery, so a kill inside its step ends in a
    // positional fatal, never a panic.
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run;
    run.spec.m = run.spec.k = run.spec.n = 12;
    run.spec.rows = run.spec.cols = 2;
    run.steps = 3;
    run.pipeline.enabled = true;
    run.pipeline.stages = 2;
    run.pipeline.exec.microBatches = 3;
    run.pipeline.exec.fwdTime = 2.0;
    run.pipeline.exec.bwdTime = 4.0;
    run.pipeline.exec.boundaryBytes = 400;
    run.haveScenario = true;
    run.scenario.seed = 3;
    run.scenario.detectionLatency = 0.5;
    run.scenario.kills.push_back(KillFault{"chip1.", 5.0});
    EXPECT_EXIT(runPlainSteps(cfg, run), testing::ExitedWithCode(1),
                "fatal: runPlainSteps: a fail-stop fired inside step 0");
}

// ---------------------------------------------------------------------
// Chaos soak (the tentpole harness): seeded fuzz across all eight
// algorithms + one pipeline schedule, asserting global invariants.

struct SoakScenario
{
    FaultScenario scenario;
    bool hasKill = false;
};

SoakScenario
randomSoakScenario(std::mt19937_64 &rng, int trial, bool ring_links,
                   bool allow_kill, Time probe_span)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    SoakScenario out;
    FaultScenario &s = out.scenario;
    s.seed = static_cast<std::uint64_t>(trial) * 7919 + 13;
    s.detectionLatency = 0.25 * probe_span;
    if (unit(rng) < 0.5)
        s.maxLaunchJitter = 1e-3 * probe_span * (1.0 + unit(rng));
    // Transient degradation windows on link-direction classes.
    const char *torus[] = {"link.E", "link.W", "link.S", "link.N"};
    const char *ring[] = {"link.CW", "link.CCW"};
    const int nfaults = static_cast<int>(unit(rng) * 3.0);
    for (int i = 0; i < nfaults; ++i) {
        CapacityFault f;
        f.pattern = ring_links
                        ? ring[static_cast<size_t>(unit(rng) * 2.0)]
                        : torus[static_cast<size_t>(unit(rng) * 4.0)];
        const double roll = unit(rng);
        f.factor = roll < 0.25 ? 0.0 : 0.25 * std::ceil(roll * 3.0);
        f.start = unit(rng) * 2.0 * probe_span;
        f.duration = (0.2 + unit(rng)) * probe_span;
        s.faults.push_back(std::move(f));
    }
    if (unit(rng) < 0.4) {
        StragglerFault st;
        st.chip = 0;
        st.computeFactor = 0.5;
        st.hbmFactor = 0.5 + 0.5 * unit(rng);
        st.start = unit(rng) * probe_span;
        st.duration = (1.0 + unit(rng)) * probe_span;
        s.stragglers.push_back(std::move(st));
    }
    if (allow_kill && unit(rng) < 0.6) {
        KillFault k;
        const int chip = 1 + static_cast<int>(unit(rng) * 3.0);
        k.pattern = "chip" + std::to_string(chip) + ".";
        k.at = (0.3 + 2.2 * unit(rng)) * probe_span;
        s.kills.push_back(std::move(k));
        out.hasKill = true;
    }
    return out;
}

TEST(ElasticChaosSoak, AllAlgorithmsSurviveFuzzedScenarios)
{
    const ChipConfig cfg = simpleConfig();
    const std::vector<Algorithm> algos = allAlgorithms();
    std::mt19937_64 rng(20260809);
    int recoveries = 0;
    for (int trial = 0; trial < 16; ++trial) {
        const Algorithm algo = algos[static_cast<size_t>(trial) %
                                     algos.size()];
        const bool is_1d = algo == Algorithm::kOneDTP ||
                           algo == Algorithm::kFsdp;
        ElasticRunConfig run = smallRun(algo);
        if (is_1d) {
            run.spec.rows = 4;
            run.spec.cols = 1;
        }
        run.steps = 3;
        run.checkpointBytesPerChip = 800;
        run.checkpointTargetBandwidth = 1e9;
        run.checkpointInterval = 1e-6; // checkpoint after every step
        run.restartTime = 1.0;

        const ElasticRunResult probe = runElastic(cfg, run);
        ASSERT_GT(probe.stepTimeFullMesh, 0.0);

        const SoakScenario soak = randomSoakScenario(
            rng, trial, is_1d, true, probe.stepTimeFullMesh);
        run.haveScenario = true;
        run.scenario = soak.scenario;

        // Scenario JSON must round-trip byte-identically.
        const std::string json = run.scenario.toJson();
        EXPECT_EQ(FaultScenario::fromJson(json, "soak").toJson(), json);

        const ElasticRunResult r = runElastic(cfg, run);
        const std::string label = std::string(algorithmName(algo)) +
                                  " trial " + std::to_string(trial);
        // Completion & conservation.
        EXPECT_GT(r.wall, 0.0) << label;
        expectWallConservation(r, run.restartTime);
        EXPECT_TRUE(r.functionalOk) << label << " scenario " << json;
        // A kill early enough to land inside the run must recover; one
        // past the wall is legitimately unobserved.
        if (r.recovered) {
            ++recoveries;
            EXPECT_GE(r.deadChip, 0) << label;
            EXPECT_LT(r.finalSpec.chips(), run.spec.chips()) << label;
            EXPECT_TRUE(r.predicted.recovered) << label;
        } else {
            EXPECT_FALSE(soak.hasKill &&
                         run.scenario.kills.front().at < r.wall)
                << label << ": kill at "
                << run.scenario.kills.front().at
                << " inside wall " << r.wall << " was not recovered";
        }
        // Bit-identical seeded replay.
        const ElasticRunResult replay = runElastic(cfg, run);
        EXPECT_EQ(r.wall, replay.wall) << label;
        EXPECT_EQ(r.statsJson, replay.statsJson) << label;
        EXPECT_EQ(elasticTraceJson(r), elasticTraceJson(replay)) << label;
    }
    // The kill distribution must actually exercise the recovery
    // transaction, not just fault-free runs.
    EXPECT_GE(recoveries, 3);
}

TEST(ElasticChaosSoak, PipelineScheduleRunsElastically)
{
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run;
    run.spec.m = run.spec.k = run.spec.n = 12;
    run.spec.rows = run.spec.cols = 2;
    run.steps = 3;
    run.pipeline.enabled = true;
    run.pipeline.stages = 2;
    run.pipeline.exec.microBatches = 3;
    run.pipeline.exec.fwdTime = 2.0;
    run.pipeline.exec.bwdTime = 4.0;
    run.pipeline.exec.boundaryBytes = 400;
    run.checkpointBytesPerChip = 1000;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e-6;

    const ElasticRunResult probe = runElastic(cfg, run);
    ASSERT_GT(probe.stepTimeFullMesh, 0.0);

    // Kill-free chaos: jitter + boundary-link degradation windows.
    std::mt19937_64 rng(31337);
    const SoakScenario soak = randomSoakScenario(
        rng, 0, false, false, probe.stepTimeFullMesh);
    run.haveScenario = true;
    run.scenario = soak.scenario;
    for (CapacityFault &f : run.scenario.faults)
        f.pattern = f.pattern == "link.E" || f.pattern == "link.S"
                        ? "link.pp+"
                        : "link.pp-";

    const ElasticRunResult r = runElastic(cfg, run);
    EXPECT_EQ(r.checkpoints, run.steps - 1);
    EXPECT_FALSE(r.recovered);
    expectWallConservation(r, run.restartTime);

    const ElasticRunResult replay = runElastic(cfg, run);
    EXPECT_EQ(r.wall, replay.wall);
    EXPECT_EQ(elasticTraceJson(r), elasticTraceJson(replay));

    // Fault-free pipeline elastic run == plain pipeline step loop.
    run.haveScenario = false;
    run.checkpointBytesPerChip = 0;
    const ElasticRunResult ff = runElastic(cfg, run);
    const PlainRunResult plain = runPlainSteps(cfg, run);
    EXPECT_EQ(ff.wall, plain.wall);
}

// ---------------------------------------------------------------------
// Profiler integration: recovery & checkpoint span categories.

TEST(ElasticProfile, PathSecondsIncludeCheckpointAndRecoveryCategories)
{
    const ChipConfig cfg = simpleConfig();
    ElasticRunConfig run = smallRun();
    run.steps = 3;
    run.checkpointBytesPerChip = 1000;
    run.checkpointTargetBandwidth = 1e9;
    run.checkpointInterval = 1e-6;
    run.profile = true;

    const ElasticRunResult probe = runElastic(cfg, run);
    run.haveScenario = true;
    run.scenario.seed = 2;
    run.scenario.detectionLatency = 0.5;
    run.scenario.kills.push_back(
        KillFault{"chip3.", 1.5 * probe.stepTimeFullMesh});
    const ElasticRunResult r = runElastic(cfg, run);

    ASSERT_TRUE(r.recovered);
    EXPECT_GT(r.pathSeconds[static_cast<int>(SpanCategory::kCheckpoint)],
              0.0);
    EXPECT_GT(r.pathSeconds[static_cast<int>(SpanCategory::kRecovery)],
              0.0);
    // The re-shard phase's critical path is exactly the recovery span.
    EXPECT_NEAR(r.pathSeconds[static_cast<int>(SpanCategory::kRecovery)],
                r.reshardSpan, 1e-9);
}

} // namespace
} // namespace meshslice
