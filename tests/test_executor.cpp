/**
 * @file
 * Timing-invariant tests of the algorithm executors: lower bounds,
 * Collective == MeshSlice(S=1), overlap benefits, traffic closed
 * forms, SUMMA's O(P^2) synchronization growth, Cannon's square-mesh
 * constraint and the no-overlap (real TPUv4) mode.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/mesh_ops.hpp"
#include "hw/compute_model.hpp"
#include "sim/trace.hpp"

namespace meshslice {
namespace {

Gemm2DSpec
testSpec(int rows = 4, int cols = 4, int s = 4,
         Dataflow df = Dataflow::kOS)
{
    Gemm2DSpec spec;
    spec.m = 16384;
    spec.k = 4096;
    spec.n = 8192;
    spec.dataflow = df;
    spec.rows = rows;
    spec.cols = cols;
    spec.sliceCount = s;
    return spec;
}

GemmRunResult
runOn(const ChipConfig &cfg, Algorithm algo, const Gemm2DSpec &spec)
{
    Cluster cluster(cfg, spec.chips());
    TorusMesh mesh(cluster, spec.rows, spec.cols);
    GemmExecutor exec(mesh);
    return exec.run(algo, spec);
}

TEST(Executor, CollectiveEqualsMeshSliceWithOneSlice)
{
    const ChipConfig cfg = tpuV4Config();
    Gemm2DSpec spec = testSpec();
    spec.sliceCount = 1;
    const GemmRunResult ms = runOn(cfg, Algorithm::kMeshSlice, spec);
    spec.sliceCount = 7; // Collective must ignore this
    const GemmRunResult coll = runOn(cfg, Algorithm::kCollective, spec);
    EXPECT_NEAR(ms.time, coll.time, 1e-9);
}

TEST(Executor, TimeNeverBeatsComputeLowerBound)
{
    const ChipConfig cfg = tpuV4Config();
    for (Algorithm algo : all2DAlgorithms()) {
        const Gemm2DSpec spec = testSpec();
        const GemmRunResult res = runOn(cfg, algo, spec);
        const Time bound = gemmIdealTime(
            cfg, GemmWork{spec.m / spec.rows, spec.k, spec.n / spec.cols});
        EXPECT_GE(res.time, bound * 0.999) << algorithmName(algo);
        EXPECT_LE(res.utilization(cfg, spec.chips()), 1.0)
            << algorithmName(algo);
    }
}

TEST(Executor, MeshSliceOverlapBeatsCollective)
{
    const ChipConfig cfg = tpuV4Config();
    const GemmRunResult ms =
        runOn(cfg, Algorithm::kMeshSlice, testSpec(4, 4, 8));
    const GemmRunResult coll =
        runOn(cfg, Algorithm::kCollective, testSpec(4, 4, 1));
    EXPECT_LT(ms.time, coll.time);
}

TEST(Executor, AllDataflowsProduceFiniteSchedules)
{
    const ChipConfig cfg = tpuV4Config();
    for (Dataflow df : {Dataflow::kOS, Dataflow::kLS, Dataflow::kRS}) {
        for (Algorithm algo :
             {Algorithm::kMeshSlice, Algorithm::kCollective,
              Algorithm::kWang, Algorithm::kSumma}) {
            const GemmRunResult res =
                runOn(cfg, algo, testSpec(4, 8, 4, df));
            EXPECT_GT(res.time, 0.0)
                << algorithmName(algo) << "/" << dataflowName(df);
            EXPECT_GT(res.flops, 0.0);
        }
    }
}

TEST(Executor, TrafficMatchesClosedForm)
{
    // Unidirectional AG: each link carries (P-1) sub-shards per
    // iteration; bytesPerLink over S iterations must equal
    // (P-1)/P * rowShare(matrix).
    ChipConfig cfg = tpuV4Config();
    cfg.bidirectionalIci = false;
    const Gemm2DSpec spec = testSpec(4, 4, 4);
    const GemmRunResult res = runOn(cfg, Algorithm::kMeshSlice, spec);
    const FlowSide h = horizontalFlow(spec);
    const Bytes expected_h =
        h.matrixBytes / spec.chips() * (spec.cols - 1);
    EXPECT_EQ(res.horizontal.bytesPerLink, expected_h);
    const FlowSide v = verticalFlow(spec);
    const Bytes expected_v =
        v.matrixBytes / spec.chips() * (spec.rows - 1);
    EXPECT_EQ(res.vertical.bytesPerLink, expected_v);
}

TEST(Executor, BidirectionalHalvesPerLinkBytes)
{
    ChipConfig uni = tpuV4Config();
    uni.bidirectionalIci = false;
    ChipConfig bi = tpuV4Config();
    bi.bidirectionalIci = true;
    const Gemm2DSpec spec = testSpec(4, 4, 2);
    const GemmRunResult r_uni = runOn(uni, Algorithm::kCollective, spec);
    const GemmRunResult r_bi = runOn(bi, Algorithm::kCollective, spec);
    EXPECT_LT(r_bi.horizontal.bytesPerLink,
              r_uni.horizontal.bytesPerLink);
    EXPECT_LT(r_bi.time, r_uni.time);
}

TEST(Executor, SummaSyncCountGrowsQuadratically)
{
    const ChipConfig cfg = tpuV4Config();
    Gemm2DSpec small = testSpec(4, 4, 4);
    Gemm2DSpec big = testSpec(8, 8, 4);
    const GemmRunResult r_small = runOn(cfg, Algorithm::kSumma, small);
    const GemmRunResult r_big = runOn(cfg, Algorithm::kSumma, big);
    // P doubles: iterations double and hops double -> ~4x syncs
    // (packet-count tuning makes it approximate).
    const double ratio =
        static_cast<double>(r_big.vertical.syncCount +
                            r_big.horizontal.syncCount) /
        (r_small.vertical.syncCount + r_small.horizontal.syncCount);
    EXPECT_GE(ratio, 2.5);
}

TEST(Executor, SummaMirrorImagesAreBitIdentical)
{
    // Transposing the problem (M <-> N) swaps the mesh directions of a
    // square mesh, so the OS schedule must take exactly the same time:
    // a compute group waits for *both* directions' broadcasts.
    const ChipConfig cfg = tpuV4Config();
    for (int s : {1, 2, 4}) {
        Gemm2DSpec tall = testSpec(4, 4, s);
        tall.m = 6144;
        tall.k = 1536;
        tall.n = 1536;
        Gemm2DSpec wide = tall;
        wide.m = 1536;
        wide.n = 6144;
        EXPECT_EQ(runOn(cfg, Algorithm::kSumma, tall).time,
                  runOn(cfg, Algorithm::kSumma, wide).time)
            << "S=" << s;
    }
}

/** Chip 0's spans on @p lane whose name is @p name, in record order. */
std::vector<TraceRecorder::Span>
chip0Spans(const std::vector<TraceRecorder::Span> &spans, int lane,
           const std::string &name)
{
    std::vector<TraceRecorder::Span> out;
    for (const TraceRecorder::Span &span : spans)
        if (span.pid == 0 && span.tid == lane && span.name == name)
            out.push_back(span);
    return out;
}

TEST(Executor, SummaTraceHonoursDependencies)
{
    // SUMMA runs P = lcm(rows, cols) communication iterations and
    // unrolls its computation into S groups; group g holds iterations
    // [g*P/S, (g+1)*P/S).
    const ChipConfig cfg = tpuV4Config();
    auto traced = [&cfg](const Gemm2DSpec &spec) {
        Cluster cluster(cfg, spec.chips());
        TorusMesh mesh(cluster, spec.rows, spec.cols);
        cluster.trace().enable(true);
        GemmExecutor(mesh).run(Algorithm::kSumma, spec);
        return cluster.trace().spans();
    };
    auto group_lo = [](int g, int p, int s) { return g * p / s; };

    // OS: every compute starts after both lanes' broadcasts of its
    // iterations.
    {
        Gemm2DSpec spec = testSpec(4, 4, 4);
        spec.m = 6144;
        spec.k = 1536;
        spec.n = 1536;
        const auto spans = traced(spec);
        const auto gemms = chip0Spans(spans, kLaneCompute, "gemm");
        const int p = 4;
        ASSERT_EQ(gemms.size(), 4u);
        for (int lane : {kLaneHorizontalComm, kLaneVerticalComm}) {
            const auto bcasts = chip0Spans(spans, lane, "broadcast");
            ASSERT_EQ(bcasts.size(), static_cast<size_t>(p));
            for (int g = 0; g < 4; ++g)
                for (int it = group_lo(g, p, 4); it < group_lo(g + 1, p, 4);
                     ++it)
                    EXPECT_GE(gemms[static_cast<size_t>(g)].begin,
                              bcasts[static_cast<size_t>(it)].end)
                        << "lane " << lane << " group " << g << " iter "
                        << it;
        }
    }
    // LS and RS on 2x3 (P = 6, S = 4 does not divide it): every reduce
    // starts after the compute of the group that holds its iteration.
    for (Dataflow df : {Dataflow::kLS, Dataflow::kRS}) {
        Gemm2DSpec spec = testSpec(2, 3, 4, df);
        spec.m = spec.k = spec.n = 6144;
        const auto spans = traced(spec);
        const auto gemms = chip0Spans(spans, kLaneCompute, "gemm");
        const int p = 6;
        ASSERT_EQ(gemms.size(), 4u);
        std::vector<TraceRecorder::Span> reduces;
        for (int lane : {kLaneHorizontalComm, kLaneVerticalComm}) {
            const auto on_lane = chip0Spans(spans, lane, "reduce");
            if (!on_lane.empty())
                reduces = on_lane;
        }
        ASSERT_EQ(reduces.size(), static_cast<size_t>(p));
        for (int g = 0; g < 4; ++g)
            for (int it = group_lo(g, p, 4); it < group_lo(g + 1, p, 4);
                 ++it)
                EXPECT_GE(reduces[static_cast<size_t>(it)].begin,
                          gemms[static_cast<size_t>(g)].end)
                    << dataflowName(df) << " group " << g << " iter " << it;
    }
}

TEST(Executor, MeshSliceSyncsScaleWithSliceCount)
{
    const ChipConfig cfg = tpuV4Config();
    const GemmRunResult s2 =
        runOn(cfg, Algorithm::kMeshSlice, testSpec(4, 4, 2));
    const GemmRunResult s8 =
        runOn(cfg, Algorithm::kMeshSlice, testSpec(4, 4, 8));
    EXPECT_EQ(s8.horizontal.syncCount, 4 * s2.horizontal.syncCount);
    EXPECT_EQ(s8.horizontal.launch, 4 * s2.horizontal.launch);
}

TEST(Executor, WangBlockingSideLaunchesOnce)
{
    const ChipConfig cfg = tpuV4Config();
    // Horizontal traffic (A = M*K) exceeds vertical (B = K*N) here, so
    // Wang overlaps horizontally and runs one blocking vertical AG.
    Gemm2DSpec spec = testSpec(4, 4, 4);
    spec.m = 32768;
    spec.n = 4096;
    const GemmRunResult res = runOn(cfg, Algorithm::kWang, spec);
    EXPECT_NEAR(res.vertical.launch, cfg.launchOverhead, 1e-12);
    EXPECT_NEAR(res.horizontal.launch, 4 * cfg.launchOverhead, 1e-12);
}

TEST(ExecutorDeath, CannonRequiresSquareMesh)
{
    const ChipConfig cfg = tpuV4Config();
    EXPECT_EXIT(runOn(cfg, Algorithm::kCannon, testSpec(4, 8, 4)),
                testing::ExitedWithCode(1), "Cannon requires a square mesh");
}

TEST(ExecutorDeath, OneSidedRequiresOutputStationary)
{
    const ChipConfig cfg = tpuV4Config();
    EXPECT_EXIT(runOn(cfg, Algorithm::kOneSided,
                      testSpec(2, 2, 2, Dataflow::kLS)),
                testing::ExitedWithCode(1), "dataflow must be OS, got LS");
}

TEST(ExecutorDeath, CannonRequiresOutputStationary)
{
    // The timed Cannon ignores the dataflow, so LS/RS would silently
    // time the OS schedule.
    const ChipConfig cfg = tpuV4Config();
    for (Dataflow df : {Dataflow::kLS, Dataflow::kRS})
        EXPECT_EXIT(runOn(cfg, Algorithm::kCannon, testSpec(4, 4, 4, df)),
                    testing::ExitedWithCode(1),
                    std::string("dataflow must be OS, got ") +
                        dataflowName(df));
}

TEST(ExecutorDeath, RejectsSliceCountsThatDropWork)
{
    // Each algorithm is held to the slice count it runs: Wang S=7 and
    // SUMMA min(5, lcm(8, 4)) = 5 do not divide K = 12288, and Cannon
    // runs P = 4 steps, which do not divide K = 1030.
    const ChipConfig cfg = tpuV4Config();
    Gemm2DSpec spec = testSpec(8, 4, 7);
    spec.m = 65536;
    spec.k = spec.n = 12288;
    EXPECT_EXIT(runOn(cfg, Algorithm::kWang, spec),
                testing::ExitedWithCode(1), "K=12288 is not divisible by "
                                            "sliceCount=7");
    spec.sliceCount = 5;
    EXPECT_EXIT(runOn(cfg, Algorithm::kSumma, spec),
                testing::ExitedWithCode(1), "K=12288 is not divisible by "
                                            "sliceCount=5");
    Gemm2DSpec cannon = testSpec(4, 4, 1);
    cannon.m = cannon.n = 1024;
    cannon.k = 1030;
    EXPECT_EXIT(runOn(cfg, Algorithm::kCannon, cannon),
                testing::ExitedWithCode(1), "K=1030 is not divisible by "
                                            "sliceCount=4");
}

TEST(Executor, CannonPaysSkewPrologue)
{
    const ChipConfig cfg = tpuV4Config();
    const GemmRunResult cannon =
        runOn(cfg, Algorithm::kCannon, testSpec(4, 4, 4));
    const GemmRunResult ms =
        runOn(cfg, Algorithm::kMeshSlice, testSpec(4, 4, 4));
    EXPECT_GT(cannon.time, ms.time);
}

TEST(Executor, NoOverlapModeIsSlower)
{
    ChipConfig overlap = tpuV4Config();
    ChipConfig serial = tpuV4Config();
    serial.allowCollectiveOverlap = false;
    const Gemm2DSpec spec = testSpec(4, 4, 4);
    const GemmRunResult r_ov = runOn(overlap, Algorithm::kMeshSlice, spec);
    const GemmRunResult r_ser =
        runOn(serial, Algorithm::kMeshSlice, spec);
    EXPECT_GT(r_ser.time, r_ov.time);
}

TEST(Executor, NoOverlapMeshSliceNearCollective)
{
    // Without overlap, MeshSlice's slicing only adds fine-grain
    // overheads over Collective (Table 3: ~4.5%).
    ChipConfig serial = tpuV4Config();
    serial.allowCollectiveOverlap = false;
    serial.bidirectionalIci = false;
    const Gemm2DSpec spec = testSpec(4, 4, 4);
    const GemmRunResult ms = runOn(serial, Algorithm::kMeshSlice, spec);
    const GemmRunResult coll =
        runOn(serial, Algorithm::kCollective, spec);
    EXPECT_GE(ms.time, coll.time);
    EXPECT_LT(ms.time, coll.time * 1.25);
}

TEST(Executor, SendRecvArtifactModeSerializesWang)
{
    // With the Sec 5.3.1 XLA artifact modelled, Wang loses its overlap
    // and lands near Collective (Table 3's observation).
    ChipConfig cfg = tpuV4Config();
    cfg.allowCollectiveOverlap = false;
    cfg.bidirectionalIci = false;
    ChipConfig artifact = cfg;
    artifact.allowSendRecvOverlap = false;
    const Gemm2DSpec spec = testSpec(4, 4, 4);
    const GemmRunResult wang_free = runOn(cfg, Algorithm::kWang, spec);
    const GemmRunResult wang_ser =
        runOn(artifact, Algorithm::kWang, spec);
    const GemmRunResult coll = runOn(cfg, Algorithm::kCollective, spec);
    EXPECT_GT(wang_ser.time, wang_free.time);
    EXPECT_NEAR(wang_ser.time, coll.time, 0.2 * coll.time);
}

TEST(Executor1D, OneDTPAndFsdpComplete)
{
    const ChipConfig cfg = tpuV4Config();
    Gemm1DSpec spec;
    spec.m = 16384;
    spec.k = 4096;
    spec.n = 8192;
    spec.chips = 16;
    spec.sliceCount = 4;
    spec.commBytes = spec.m * spec.k * 2; // 1D TP: gather activations
    spec.local = GemmWork{spec.m, spec.k, spec.n / spec.chips};
    Cluster cluster(cfg, 16);
    RingNetwork net(cluster);
    const GemmRunResult res = runGemm1D(net, spec);
    EXPECT_GT(res.time, 0.0);
    EXPECT_LE(res.utilization(cfg, 16), 1.0);
}

TEST(Executor1D, ReduceVariantOrdersShiftAfterCompute)
{
    const ChipConfig cfg = tpuV4Config();
    Gemm1DSpec spec;
    spec.m = 4096;
    spec.k = 16384;
    spec.n = 4096;
    spec.chips = 8;
    spec.sliceCount = 2;
    spec.commBytes = spec.m * spec.n * 2;
    spec.commIsReduce = true;
    spec.local = GemmWork{spec.m, spec.k / spec.chips, spec.n};
    Cluster cluster(cfg, 8);
    RingNetwork net(cluster);
    const GemmRunResult res = runGemm1D(net, spec);
    // Epilogue shift cannot be hidden: time exceeds pure compute.
    const Time compute =
        gemmIdealTime(cfg, GemmWork{spec.m, spec.k / 8, spec.n});
    EXPECT_GT(res.time, compute);
}

} // namespace
} // namespace meshslice
