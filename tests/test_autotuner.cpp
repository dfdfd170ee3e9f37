/**
 * @file
 * Tests of the two-phase LLM autotuner: stationary/dataflow selection
 * (Table 1 rules), plan structure, mesh-shape search, slice-count
 * tuning, the dataflow-optimization speedup (Table 2 direction) and
 * the phase-2 sweep's contract (`tuneForAlgorithm` is the head of
 * `rankShapes`, and every candidate shape is traced).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "tuner/autotuner.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/math.hpp"

namespace meshslice {
namespace {

class AutotunerTest : public ::testing::Test
{
  protected:
    static CostModel &
    cost()
    {
        static CostModel model = CostModel::calibrated(tpuV4Config());
        return model;
    }
};

TEST_F(AutotunerTest, ChooseStationaryPicksLargestMatrix)
{
    // Y (m*n) largest:
    EXPECT_EQ(chooseStationary(1024, 64, 512), Stationary::kY);
    // X (m*k) largest:
    EXPECT_EQ(chooseStationary(1024, 512, 64), Stationary::kX);
    // W (k*n) largest:
    EXPECT_EQ(chooseStationary(64, 1024, 512), Stationary::kW);
    // Ties go to the transpose-free Y default:
    EXPECT_EQ(chooseStationary(64, 64, 64), Stationary::kY);
}

TEST_F(AutotunerTest, Table1RowsKeepStationaryMatrixFixed)
{
    const FcGemm fwd{"ffn1.fwd", 262144, 12288, 49152, Pass::kForward, 2};
    // Y-stn: fwd OS, bwd-data LS, bwd-weight RS (Table 1, row 1).
    auto y_plans = dataflowsForLayer(Stationary::kY, fwd);
    ASSERT_EQ(y_plans.size(), 3u);
    EXPECT_EQ(y_plans[0].dataflow, Dataflow::kOS);
    EXPECT_EQ(y_plans[1].dataflow, Dataflow::kLS);
    EXPECT_EQ(y_plans[2].dataflow, Dataflow::kRS);
    // X-stn: fwd LS, bwd-data OS, bwd-weight RS (row 2).
    auto x_plans = dataflowsForLayer(Stationary::kX, fwd);
    EXPECT_EQ(x_plans[0].dataflow, Dataflow::kLS);
    EXPECT_EQ(x_plans[1].dataflow, Dataflow::kOS);
    EXPECT_EQ(x_plans[2].dataflow, Dataflow::kRS);
    // W-stn: fwd RS, bwd-data LS, bwd-weight OS (row 3).
    auto w_plans = dataflowsForLayer(Stationary::kW, fwd);
    EXPECT_EQ(w_plans[0].dataflow, Dataflow::kRS);
    EXPECT_EQ(w_plans[1].dataflow, Dataflow::kLS);
    EXPECT_EQ(w_plans[2].dataflow, Dataflow::kOS);
}

TEST_F(AutotunerTest, BackwardShapesAreConsistent)
{
    const FcGemm fwd{"proj.fwd", 4096, 1024, 2048, Pass::kForward, 1};
    for (Stationary st :
         {Stationary::kY, Stationary::kX, Stationary::kW}) {
        auto plans = dataflowsForLayer(st, fwd);
        // Every pass computes the same FLOPs as the forward pass.
        for (const GemmPlan &p : plans)
            EXPECT_DOUBLE_EQ(p.gemm.flops(), fwd.flops())
                << stationaryName(st);
    }
}

TEST_F(AutotunerTest, TunePicksFeasibleShapeAndSliceCounts)
{
    const LlmAutotuner tuner(cost());
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(64);
    const AutotuneResult result = tuner.tune(model, train, 64);
    EXPECT_EQ(result.rows * result.cols, 64);
    EXPECT_EQ(result.layers.size(), 4u);
    EXPECT_EQ(result.allPlans().size(), 12u);
    for (const GemmPlan &p : result.allPlans()) {
        EXPECT_GE(p.sliceCount, 1);
        EXPECT_GT(p.estTime, 0.0);
        EXPECT_TRUE(shapeFeasible(p.gemm, result.rows, result.cols));
    }
    EXPECT_GT(result.blockFcTime, 0.0);
}

TEST_F(AutotunerTest, OptimizedDataflowNoWorseThanDefault)
{
    const LlmAutotuner tuner(cost());
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(256);
    const AutotuneResult opt = tuner.tune(model, train, 256, true);
    const AutotuneResult base = tuner.tune(model, train, 256, false);
    EXPECT_LE(opt.blockFcTime, base.blockFcTime * (1.0 + 1e-9));
    for (const FcLayerPlan &layer : base.layers)
        EXPECT_EQ(layer.stationary, Stationary::kY);
}

TEST_F(AutotunerTest, ChosenShapeBeatsExtremeShapes)
{
    const LlmAutotuner tuner(cost());
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(256);
    const AutotuneResult best = tuner.tune(model, train, 256);
    const AutotuneResult ring = tuner.planAtShape(
        Algorithm::kMeshSlice, model, train, 1, 256, true);
    EXPECT_LT(best.blockFcTime, ring.blockFcTime);
}

TEST_F(AutotunerTest, CannonRestrictedToSquareShapes)
{
    const LlmAutotuner tuner(cost());
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(64);
    const AutotuneResult result =
        tuner.tuneForAlgorithm(Algorithm::kCannon, model, train, 64);
    EXPECT_EQ(result.rows, 8);
    EXPECT_EQ(result.cols, 8);
    for (const GemmPlan &p : result.allPlans())
        EXPECT_EQ(p.dataflow, Dataflow::kOS);
}

TEST_F(AutotunerTest, ForcedSliceCountIsApplied)
{
    const LlmAutotuner tuner(cost());
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(256);
    const AutotuneResult plan = tuner.planAtShape(
        Algorithm::kMeshSlice, model, train, 32, 8, true, 4);
    for (const GemmPlan &p : plan.allPlans())
        EXPECT_EQ(p.sliceCount, 4);
}

TEST_F(AutotunerTest, MakeSpecCopiesGeometry)
{
    const FcGemm gemm{"qkv.fwd", 262144, 12288, 36864, Pass::kForward, 0};
    const Gemm2DSpec spec = makeSpec(gemm, Dataflow::kLS, 16, 4, 8);
    EXPECT_EQ(spec.m, gemm.m);
    EXPECT_EQ(spec.k, gemm.k);
    EXPECT_EQ(spec.n, gemm.n);
    EXPECT_EQ(spec.dataflow, Dataflow::kLS);
    EXPECT_EQ(spec.chips(), 64);
    EXPECT_EQ(spec.sliceCount, 8);
}

TEST_F(AutotunerTest, TuneForAlgorithmIsTheHeadOfRankShapes)
{
    const LlmAutotuner tuner(cost());
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(64);
    for (Algorithm algo : all2DAlgorithms()) {
        SCOPED_TRACE(algorithmName(algo));
        const AutotuneResult tuned =
            tuner.tuneForAlgorithm(algo, model, train, 64);
        const AutotuneResult head =
            tuner.rankShapes(algo, model, train, 64, 3).front();
        EXPECT_EQ(tuned.rows, head.rows);
        EXPECT_EQ(tuned.cols, head.cols);
        EXPECT_EQ(tuned.blockFcTime, head.blockFcTime);
        const std::vector<GemmPlan> a = tuned.allPlans();
        const std::vector<GemmPlan> b = head.allPlans();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].gemm.name, b[i].gemm.name);
            EXPECT_EQ(a[i].dataflow, b[i].dataflow);
            EXPECT_EQ(a[i].sliceCount, b[i].sliceCount);
            EXPECT_EQ(a[i].estTime, b[i].estTime);
        }
    }
}

TEST_F(AutotunerTest, RankShapesTracesEveryMeshShape)
{
    const LlmAutotuner tuner(cost());
    const TransformerConfig model = gpt3Config();
    // 32 tokens: the 1x64 and 64x1 meshes do not divide the token
    // dimension, so the pre-check prunes them.
    const TrainingConfig train{1, 32};
    const std::string path = testing::TempDir() + "rank_shapes_trace.jsonl";
    for (Algorithm algo : {Algorithm::kMeshSlice, Algorithm::kCannon}) {
        SCOPED_TRACE(algorithmName(algo));
        ASSERT_TRUE(SearchTrace::global().open(path));
        (void)tuner.rankShapes(algo, model, train, 64, 3);
        SearchTrace::global().close();

        std::map<std::pair<int, int>, std::vector<bool>> traced;
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);) {
            const JsonValue rec = parseJson(line, "trace", path);
            if (rec.find("phase")->str != "shape")
                continue;
            const std::pair<int, int> shape{
                static_cast<int>(rec.find("rows")->number),
                static_cast<int>(rec.find("cols")->number)};
            traced[shape].push_back(rec.find("feasible")->boolean);
        }

        size_t want = 0;
        for (auto [rows, cols] : meshShapesOf(64)) {
            if (algo == Algorithm::kCannon && rows != cols)
                continue;
            ++want;
            const std::pair<int, int> shape{static_cast<int>(rows),
                                            static_cast<int>(cols)};
            bool divides = true;
            for (const FcGemm &gemm : blockFcGemms(model, train))
                divides = divides &&
                          shapeFeasible(gemm, shape.first, shape.second);
            ASSERT_EQ(traced[shape].size(), 1u)
                << rows << "x" << cols << " traced once";
            EXPECT_EQ(traced[shape][0], divides) << rows << "x" << cols;
        }
        EXPECT_EQ(traced.size(), want);
        if (algo == Algorithm::kMeshSlice) {
            EXPECT_FALSE(traced[std::make_pair(1, 64)].at(0));
            EXPECT_TRUE(traced[std::make_pair(8, 8)].at(0));
        }
    }
    std::remove(path.c_str());
}

TEST_F(AutotunerTest, ShapeFeasibilityChecksDivisibility)
{
    const FcGemm gemm{"x", 1000, 1000, 1000, Pass::kForward, 0};
    EXPECT_TRUE(shapeFeasible(gemm, 10, 10));
    EXPECT_FALSE(shapeFeasible(gemm, 3, 10));
}

} // namespace
} // namespace meshslice
