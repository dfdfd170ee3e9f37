/**
 * @file
 * Tests of the pipeline-parallelism subsystem: schedule structure,
 * closed-form degeneracies of the discrete-event executor, the
 * activation-stash memory model, cross-mesh remap accounting, and the
 * phase-3 (TP x PP x DP) tuner — including the contract that a pp=1
 * plan reproduces the plain 2D autotuner output bit-identically, and
 * property checks over random feasible (pp, m) decompositions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "core/memory_model.hpp"
#include "gemm/reshard.hpp"
#include "pipeline/pipeline_exec.hpp"
#include "pipeline/stage_model.hpp"
#include "tuner/pipeline_tuner.hpp"

namespace meshslice {
namespace {

/** A small transformer whose dimensions divide small meshes, so the
 *  full 3-phase tuner runs in milliseconds. */
TransformerConfig
tinyModel()
{
    TransformerConfig cfg;
    cfg.name = "tiny";
    cfg.layers = 8;
    cfg.hiddenDim = 1024;
    cfg.heads = 16;
    cfg.ffnDim = 4096;
    return cfg;
}

TrainingConfig
tinyTrain()
{
    return TrainingConfig{16, 512};
}

const CostModel &
testCost()
{
    static CostModel cost = CostModel::calibrated(tpuV4Config());
    return cost;
}

double
relDiff(double a, double b)
{
    const double scale = std::max(std::abs(a), std::abs(b));
    return scale > 0.0 ? std::abs(a - b) / scale : 0.0;
}

// ---------------------------------------------------------------------
// Schedule structure.

TEST(PipelineSchedule, ProgramShapeAndStash)
{
    const int stages = 4;
    const int micro = 8;
    const PipelineProgram gpipe =
        buildPipelineProgram(PipelineSchedule::kGPipe, stages, micro);
    const PipelineProgram ofob =
        buildPipelineProgram(PipelineSchedule::k1F1B, stages, micro);
    EXPECT_EQ(gpipe.tasks.size(), 2u * micro * stages);
    EXPECT_EQ(ofob.tasks.size(), 2u * micro * stages);
    // GPipe stashes every micro-batch; 1F1B at most P - stage.
    EXPECT_EQ(peakInFlight(gpipe, 0), micro);
    EXPECT_EQ(peakInFlight(ofob, 0), std::min(micro, stages));
    EXPECT_EQ(peakInFlight(ofob, stages - 1), 1);
}

TEST(PipelineScheduleDeath, InterleavedNeedsMicroBatchDivisibility)
{
    EXPECT_DEATH(buildPipelineProgram(PipelineSchedule::kInterleaved1F1B,
                                      4, 6, 2),
                 "");
}

// ---------------------------------------------------------------------
// Discrete-event execution degeneracies.

TEST(PipelineExec, GPipeBubbleMatchesClosedForm)
{
    const ChipConfig cfg = tpuV4Config();
    const int stages = 4;
    const int micro = 6;
    PipelineExecSpec spec;
    spec.schedule = PipelineSchedule::kGPipe;
    spec.microBatches = micro;
    spec.fwdTime = 1e-3;
    spec.bwdTime = 2e-3;
    spec.boundaryBytes = 0; // uniform, zero-comm: the textbook case
    Cluster cluster(cfg, stages);
    PipelineCluster pc(cluster, stages, 1, 1);
    const PipelineRunResult run = runPipeline(pc, spec);
    EXPECT_NEAR(run.time,
                (micro + stages - 1) * (spec.fwdTime + spec.bwdTime),
                1e-12);
    EXPECT_NEAR(run.bubbleFraction, gpipeBubbleFraction(stages, micro),
                1e-9);
}

TEST(PipelineExec, SimulatorMatchesAnalyticalSpanWithTransfers)
{
    const ChipConfig cfg = tpuV4Config();
    for (const PipelineSchedule sched :
         {PipelineSchedule::kGPipe, PipelineSchedule::k1F1B}) {
        PipelineExecSpec spec;
        spec.schedule = sched;
        spec.microBatches = 4;
        spec.fwdTime = 0.8e-3;
        spec.bwdTime = 1.7e-3;
        spec.boundaryBytes = MiB(8);
        spec.chargeLaunch = true;
        const int stages = 3;
        Cluster cluster(cfg, stages * 2);
        PipelineCluster pc(cluster, stages, 1, 2);
        const PipelineRunResult run = runPipeline(pc, spec);
        const PipelineProgram program = buildPipelineProgram(
            sched, stages, spec.microBatches, spec.chunks);
        const Time analytic =
            analyticalSpan(program, timeModelFor(spec, cfg, 1, 2));
        EXPECT_LT(relDiff(run.time, analytic), 1e-9)
            << pipelineScheduleName(sched);
        EXPECT_GT(run.interStageBytes, 0);
    }
}

TEST(PipelineExec, InterleavedMatchesAnalyticalSpan)
{
    const ChipConfig cfg = tpuV4Config();
    PipelineExecSpec spec;
    spec.schedule = PipelineSchedule::kInterleaved1F1B;
    spec.microBatches = 4;
    spec.chunks = 2;
    spec.fwdTime = 1e-3;
    spec.bwdTime = 2e-3;
    spec.boundaryBytes = MiB(4);
    const int stages = 2;
    Cluster cluster(cfg, stages * 2);
    PipelineCluster pc(cluster, stages, 2, 1);
    const PipelineRunResult run = runPipeline(pc, spec);
    const PipelineProgram program = buildPipelineProgram(
        spec.schedule, stages, spec.microBatches, spec.chunks);
    const Time analytic =
        analyticalSpan(program, timeModelFor(spec, cfg, 2, 1));
    EXPECT_LT(relDiff(run.time, analytic), 1e-9);
}

// ---------------------------------------------------------------------
// Property checks over random feasible (pp, m).

TEST(PipelineProperty, OneFOneBStashNeverExceedsGPipe)
{
    std::mt19937 rng(42);
    std::uniform_int_distribution<int> stage_dist(2, 8);
    std::uniform_int_distribution<int> micro_dist(1, 16);
    for (int trial = 0; trial < 50; ++trial) {
        const int stages = stage_dist(rng);
        const int micro = micro_dist(rng);
        const PipelineProgram gpipe =
            buildPipelineProgram(PipelineSchedule::kGPipe, stages, micro);
        const PipelineProgram ofob =
            buildPipelineProgram(PipelineSchedule::k1F1B, stages, micro);
        for (int s = 0; s < stages; ++s)
            EXPECT_LE(peakInFlight(ofob, s), peakInFlight(gpipe, s))
                << "stages=" << stages << " micro=" << micro
                << " stage=" << s;
    }
}

TEST(PipelineProperty, SimulatedStepNeverBelowLowerBound)
{
    const ChipConfig cfg = tpuV4Config();
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> stage_dist(1, 5);
    std::uniform_int_distribution<int> micro_dist(1, 8);
    std::uniform_real_distribution<double> time_dist(0.3e-3, 3e-3);
    std::uniform_int_distribution<int> mib_dist(0, 16);
    std::uniform_int_distribution<int> sched_dist(0, 1);
    for (int trial = 0; trial < 20; ++trial) {
        PipelineExecSpec spec;
        spec.schedule = sched_dist(rng) == 0 ? PipelineSchedule::kGPipe
                                             : PipelineSchedule::k1F1B;
        const int stages = stage_dist(rng);
        spec.microBatches = micro_dist(rng);
        spec.fwdTime = time_dist(rng);
        spec.bwdTime = time_dist(rng);
        spec.boundaryBytes = MiB(1) * mib_dist(rng);
        spec.chargeLaunch = true;
        Cluster cluster(cfg, stages * 2);
        PipelineCluster pc(cluster, stages, 1, 2);
        const PipelineRunResult run = runPipeline(pc, spec);
        const PipelineProgram program = buildPipelineProgram(
            spec.schedule, stages, spec.microBatches, spec.chunks);
        const Time bound =
            pipelineLowerBound(program, timeModelFor(spec, cfg, 1, 2));
        EXPECT_GE(run.time, bound * (1.0 - 1e-9))
            << pipelineScheduleName(spec.schedule) << " stages=" << stages
            << " micro=" << spec.microBatches;
    }
}

// ---------------------------------------------------------------------
// Activation-stash memory model.

TEST(PipelineMemory, RecomputeStashesOnlyBoundaries)
{
    const ChipConfig cfg = tpuV4Config();
    PipelineStageMemorySpec spec;
    spec.residentBytes = GiB(4);
    spec.activationBytes = GiB(8);
    spec.boundaryBytes = MiB(64);
    spec.peakInFlight = 4;
    spec.recompute = false;
    const PipelineMemoryFootprint full = pipelineStageMemory(spec);
    EXPECT_EQ(full.stash, 4 * GiB(8));
    EXPECT_FALSE(pipelineFitsInMemory(cfg, spec)); // 36 GiB > 32 GiB
    spec.recompute = true;
    const PipelineMemoryFootprint cheap = pipelineStageMemory(spec);
    EXPECT_EQ(cheap.stash, 4 * MiB(64));
    EXPECT_LT(cheap.total(), full.total());
    EXPECT_TRUE(pipelineFitsInMemory(cfg, spec));
}

// ---------------------------------------------------------------------
// Cross-mesh boundary remap.

TEST(PipelineRemap, EqualMeshesMoveNothing)
{
    const MeshShape mesh{2, 4};
    const RemapPlan plan = planRemap(64, 64, 2, mesh, mesh);
    EXPECT_EQ(plan.movedBytes, 0);
    EXPECT_EQ(plan.matchedBytes, plan.totalBytes);
    EXPECT_DOUBLE_EQ(remapBytesModel(1e9, mesh, mesh), 0.0);
}

TEST(PipelineRemap, DiscreteRemapMatchesContinuousModel)
{
    const MeshShape from{2, 4};
    const MeshShape to{4, 2};
    const std::int64_t rows = 64, cols = 64;
    const RemapPlan plan = planRemap(rows, cols, 2, from, to);
    const double modeled = remapBytesModel(
        static_cast<double>(plan.totalBytes), from, to);
    EXPECT_NEAR(static_cast<double>(plan.movedBytes), modeled,
                1e-6 * modeled + 1.0);

    // Every from/to pair of meshes with rows and cols <= 6, on
    // non-square dimensions that divide both.
    std::vector<MeshShape> meshes;
    for (int r = 1; r <= 6; ++r)
        for (int c = 1; c <= 6; ++c)
            meshes.push_back(MeshShape{r, c});
    for (const MeshShape &a : meshes)
        for (const MeshShape &b : meshes) {
            const std::int64_t r = 2 * std::lcm(a.rows, b.rows);
            const std::int64_t c = 3 * std::lcm(a.cols, b.cols);
            const RemapPlan p = planRemap(r, c, 2, a, b);
            const double m =
                remapBytesModel(static_cast<double>(p.totalBytes), a, b);
            EXPECT_NEAR(static_cast<double>(p.movedBytes), m,
                        1e-6 * m + 1.0)
                << a.rows << "x" << a.cols << " -> " << b.rows << "x"
                << b.cols;
        }
}

// ---------------------------------------------------------------------
// Phase-3 tuner.

TEST(PipelineTuner, Pp1ReproducesThe2DAutotunerBitIdentically)
{
    const ChipConfig cfg = tpuV4Config();
    const LlmAutotuner tuner(testCost());
    const TransformerConfig model = tinyModel();
    const TrainingConfig train = tinyTrain();
    const int chips = 8;

    PipelineAxes axes;
    axes.pp = 1;
    axes.dp = 1;
    axes.microBatches = 1;
    axes.tpRows = 1;
    axes.tpCols = chips;
    PipelineTuneConfig pcfg;
    const PipelineCandidate cand = evaluatePipelineCandidate(
        tuner, model, train, axes, pcfg, /*simulate=*/true);
    ASSERT_TRUE(cand.feasible) << cand.reason;
    ASSERT_FALSE(cand.axes.recompute); // tiny stash fits without it

    const AutotuneResult direct = tuner.tune(model, train, chips);
    EXPECT_EQ(cand.tpPlan.rows, direct.rows);
    EXPECT_EQ(cand.tpPlan.cols, direct.cols);
    EXPECT_EQ(cand.tpPlan.blockFcTime, direct.blockFcTime); // bitwise
    const std::vector<GemmPlan> got = cand.tpPlan.allPlans();
    const std::vector<GemmPlan> want = direct.allPlans();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dataflow, want[i].dataflow) << i;
        EXPECT_EQ(got[i].sliceCount, want[i].sliceCount) << i;
        EXPECT_EQ(got[i].estTime, want[i].estTime) << i; // bitwise
    }

    // With pp = dp = m = 1 the program is one forward and one backward
    // task with no sends, so the span is exactly the 2D step formula.
    const Time bt =
        direct.blockFcTime + nonFcBlockTime(cfg, model, train, chips);
    const Time fwd = (1.0 / 3.0) * bt;
    const Time bwd = bt - fwd;
    const double blocks = static_cast<double>(model.layers);
    EXPECT_EQ(cand.estPipeline, blocks * fwd + blocks * bwd); // bitwise
    EXPECT_EQ(cand.estDp, 0.0);
    // The simulator replays the same two tasks as fluid flows.
    EXPECT_LT(relDiff(cand.simTotal, cand.estTotal), 1e-9);
}

TEST(PipelineTuner, SearchPicksFeasiblePlanAndEstimatesTrackSim)
{
    const LlmAutotuner tuner(testCost());
    const PipelineTuneResult result = tunePipeline(
        tuner, tinyModel(), tinyTrain(), 8, PipelineTuneConfig{});
    ASSERT_FALSE(result.candidates.empty());
    const PipelineCandidate &picked = result.picked();
    EXPECT_TRUE(picked.feasible);
    EXPECT_EQ(picked.axes.chips(), 8);
    EXPECT_GE(picked.simTotal, 0.0);
    // Candidates are ranked by analytic estimate, deterministically.
    for (size_t i = 1; i < result.candidates.size(); ++i)
        EXPECT_LE(result.candidates[i - 1].estTotal,
                  result.candidates[i].estTotal);
    // Every simulated shortlist entry's analytic estimate is close.
    int simulated = 0;
    for (const PipelineCandidate &cand : result.candidates) {
        if (cand.simTotal < 0.0)
            continue;
        ++simulated;
        EXPECT_LE(std::abs(cand.estTotal - cand.simTotal),
                  0.15 * cand.simTotal)
            << "pp=" << cand.axes.pp << " dp=" << cand.axes.dp
            << " m=" << cand.axes.microBatches;
    }
    EXPECT_GT(simulated, 0);
    for (const PipelineCandidate &cand : result.pruned)
        EXPECT_FALSE(cand.reason.empty());
}

TEST(PipelineTuner, ImpossibleTpDegreeIsPrunedNotFatal)
{
    const LlmAutotuner tuner(testCost());
    PipelineAxes axes;
    axes.pp = 1;
    axes.dp = 1;
    axes.microBatches = 1;
    axes.tpRows = 1;
    axes.tpCols = 7; // divides no dimension of the tiny model
    const PipelineCandidate cand = evaluatePipelineCandidate(
        tuner, tinyModel(), tinyTrain(), axes, PipelineTuneConfig{},
        /*simulate=*/false);
    EXPECT_FALSE(cand.feasible);
    EXPECT_NE(cand.reason.find("mesh shape"), std::string::npos)
        << cand.reason;
}

} // namespace
} // namespace meshslice
