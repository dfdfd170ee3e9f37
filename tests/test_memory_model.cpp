/**
 * @file
 * Tests of the per-chip memory-footprint model: slicing's buffer
 * reduction, the 1D memory cliff, algorithm orderings and the HBM
 * capacity gate used by the autotuner.
 */
#include <gtest/gtest.h>

#include "core/memory_model.hpp"
#include "tuner/cost_model.hpp"

namespace meshslice {
namespace {

Gemm2DSpec
bigSpec(int s = 1)
{
    Gemm2DSpec spec;
    spec.m = 262144; // GPT-3 weak-scaling tokens at 256 chips
    spec.k = 12288;
    spec.n = 49152;
    spec.rows = 32;
    spec.cols = 8;
    spec.sliceCount = s;
    return spec;
}

TEST(MemoryModel, SlicingShrinksGatherBuffers)
{
    const MemoryFootprint s1 =
        gemmMemoryFootprint(Algorithm::kMeshSlice, bigSpec(1));
    const MemoryFootprint s8 =
        gemmMemoryFootprint(Algorithm::kMeshSlice, bigSpec(8));
    EXPECT_EQ(s1.residentShards, s8.residentShards);
    EXPECT_EQ(s1.gatherBuffers, 8 * s8.gatherBuffers);
}

TEST(MemoryModel, CollectiveMaterializesFullPanels)
{
    const Gemm2DSpec spec = bigSpec(1);
    const MemoryFootprint coll =
        gemmMemoryFootprint(Algorithm::kCollective, spec);
    const FlowSide h = horizontalFlow(spec);
    const FlowSide v = verticalFlow(spec);
    EXPECT_EQ(coll.gatherBuffers,
              h.matrixBytes / spec.rows + v.matrixBytes / spec.cols);
}

TEST(MemoryModel, MeshSliceWithDeepSlicingBeatsCollective)
{
    const MemoryFootprint ms =
        gemmMemoryFootprint(Algorithm::kMeshSlice, bigSpec(16));
    const MemoryFootprint coll =
        gemmMemoryFootprint(Algorithm::kCollective, bigSpec(1));
    EXPECT_LT(ms.total(), coll.total());
}

TEST(MemoryModel, SummaUsesSmallPanels)
{
    const MemoryFootprint summa =
        gemmMemoryFootprint(Algorithm::kSumma, bigSpec(8));
    const MemoryFootprint coll =
        gemmMemoryFootprint(Algorithm::kCollective, bigSpec(1));
    EXPECT_LT(summa.gatherBuffers, coll.gatherBuffers);
}

TEST(MemoryModel, SummaPanelsFollowTheExecutorsIterationCount)
{
    // On 2x3 SUMMA broadcasts lcm(2, 3) = 6 panels per direction, so
    // each double-buffered panel is a sixth of the row/column share.
    Gemm2DSpec spec;
    spec.m = spec.k = spec.n = 6144;
    spec.rows = 2;
    spec.cols = 3;
    const Bytes h_panel = spec.m * spec.k * 2 / spec.rows;
    const Bytes v_panel = spec.k * spec.n * 2 / spec.cols;
    EXPECT_EQ(gemmMemoryFootprint(Algorithm::kSumma, spec).gatherBuffers,
              2 * (h_panel + v_panel) / 6);
}

TEST(MemoryModel, CannonBuffersAreShardSized)
{
    Gemm2DSpec spec = bigSpec(1);
    spec.rows = spec.cols = 16;
    const MemoryFootprint cannon =
        gemmMemoryFootprint(Algorithm::kCannon, spec);
    const Bytes shards =
        (spec.m * spec.k + spec.k * spec.n) * 2 / spec.chips();
    EXPECT_EQ(cannon.gatherBuffers, shards);
}

TEST(MemoryModel, OneDFootprintHitsTheCliff)
{
    // 1D TP must materialize the whole gathered activation matrix —
    // far larger than any 2D footprint at the same scale.
    Gemm1DSpec one_d;
    one_d.m = 262144;
    one_d.k = 12288;
    one_d.n = 49152;
    one_d.chips = 256;
    one_d.commBytes = one_d.m * one_d.k * 2;
    one_d.local = GemmWork{one_d.m, one_d.k, one_d.n / 256};
    const MemoryFootprint fp1d = gemmMemoryFootprint1D(one_d);
    const MemoryFootprint fp2d =
        gemmMemoryFootprint(Algorithm::kMeshSlice, bigSpec(8));
    EXPECT_GT(fp1d.total(), 5 * fp2d.total());
}

TEST(MemoryModel, FitsInMemoryGate)
{
    ChipConfig cfg = tpuV4Config();
    EXPECT_TRUE(fitsInMemory(cfg, Algorithm::kMeshSlice, bigSpec(8)));
    cfg.hbmCapacity = MB(64); // pathological tiny HBM
    EXPECT_FALSE(fitsInMemory(cfg, Algorithm::kMeshSlice, bigSpec(8)));
}

TEST(MemoryModel, TunerSkipsOverCapacityConfigs)
{
    ChipConfig cfg = tpuV4Config();
    // Capacity that only deeply sliced configs satisfy.
    const MemoryFootprint s1 =
        gemmMemoryFootprint(Algorithm::kMeshSlice, bigSpec(1));
    cfg.hbmCapacity = s1.total() / 2;
    const CostModel model = CostModel::calibrated(cfg);
    auto [s, t] = model.tuneSliceCount(Algorithm::kMeshSlice, bigSpec(1));
    EXPECT_LT(t, 1e300);
    EXPECT_TRUE(fitsInMemory(cfg, Algorithm::kMeshSlice, bigSpec(s)));
    EXPECT_GT(s, 1);
}

} // namespace
} // namespace meshslice
