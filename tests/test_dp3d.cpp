/**
 * @file
 * Tests of the 3D-cluster composition (Sec 7): topology structure,
 * MeshSlice+DP vs 2.5D GeMM execution, traffic relationships, the
 * square-mesh restriction 2.5D inherits from Cannon, and completion
 * (not drain) timing under a fault window that outlives the run.
 */
#include <gtest/gtest.h>

#include "core/dp3d.hpp"
#include "sim/fault.hpp"

namespace meshslice {
namespace {

TEST(Torus3D, TopologyIndexing)
{
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 2 * 4 * 3);
    Torus3D torus(cluster, 2, 4, 3);
    EXPECT_EQ(torus.chips(), 24);
    EXPECT_EQ(torus.layer(0).chipAt(0, 0), 0);
    EXPECT_EQ(torus.layer(1).chipAt(0, 0), 8);
    EXPECT_EQ(torus.layer(2).chipAt(1, 3), 2 * 8 + 7);
    const Ring &depth = torus.depthRing(1, 2);
    EXPECT_EQ(depth.size(), 3);
    EXPECT_EQ(depth.chips[0], 6);
    EXPECT_EQ(depth.chips[1], 14);
    EXPECT_EQ(depth.chips[2], 22);
}

TEST(Torus3DDeath, RejectsMismatchedChipCount)
{
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 10);
    EXPECT_DEATH(Torus3D(cluster, 2, 2, 2), "chips");
}

TEST(Dp3D, MeshSliceDPCompletesAndReportsTraffic)
{
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 4 * 2 * 2);
    Torus3D torus(cluster, 4, 2, 2);
    Gemm2DSpec spec;
    spec.m = 8192; // per-replica batch share
    spec.k = 4096;
    spec.n = 4096;
    spec.rows = 4;
    spec.cols = 2;
    spec.sliceCount = 4;
    const Bytes w_grad = spec.k * spec.n * 2 / spec.chips();
    Gemm3DResult res =
        runMeshSliceDP(torus, Algorithm::kMeshSlice, spec, w_grad);
    EXPECT_GT(res.time, 0.0);
    // Both replicas computed the full per-layer GeMM.
    EXPECT_DOUBLE_EQ(res.flops, 2.0 * spec.totalFlops());
    EXPECT_GT(res.interLayer.total, 0.0); // the DP all-reduce happened
    EXPECT_LE(res.utilization(cfg, torus.chips()), 1.0);
}

TEST(Dp3D, DepthOneMatchesThePlain2DExecutor)
{
    // A depth-1 "3D" cluster is one 2D torus: MeshSlice+DP must
    // degenerate to the plain 2D executor exactly — same simulated
    // time, same FLOPs, no depth-ring traffic.
    const ChipConfig cfg = tpuV4Config();
    Gemm2DSpec spec;
    spec.m = 8192;
    spec.k = 4096;
    spec.n = 4096;
    spec.rows = 4;
    spec.cols = 2;
    spec.sliceCount = 4;
    const Bytes w_grad = spec.k * spec.n * 2 / spec.chips();

    Cluster c3(cfg, 4 * 2 * 1);
    Torus3D torus(c3, 4, 2, 1);
    Gemm3DResult r3 =
        runMeshSliceDP(torus, Algorithm::kMeshSlice, spec, w_grad);

    Cluster c2(cfg, 4 * 2);
    TorusMesh mesh(c2, 4, 2);
    GemmExecutor exec(mesh);
    GemmRunResult r2 = exec.run(Algorithm::kMeshSlice, spec);

    EXPECT_DOUBLE_EQ(r3.time, r2.time);
    EXPECT_DOUBLE_EQ(r3.flops, r2.flops);
    EXPECT_DOUBLE_EQ(r3.interLayer.total, 0.0); // no DP all-reduce
    EXPECT_DOUBLE_EQ(r3.intraLayer.total,
                     r2.horizontal.total + r2.vertical.total);
}

TEST(Dp3D, TwoPointFiveDCompletesOnSquareBase)
{
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 4 * 4 * 2);
    Torus3D torus(cluster, 4, 4, 2);
    Gemm3DResult res = run25DGemm(torus, 16384, 8192, 4096);
    EXPECT_GT(res.time, 0.0);
    EXPECT_GT(res.intraLayer.total, 0.0);
    EXPECT_GT(res.interLayer.total, 0.0);
    EXPECT_LE(res.utilization(cfg, torus.chips()), 1.0);
}

TEST(Dp3DDeath, TwoPointFiveDRejectsNonSquareBase)
{
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 2 * 4 * 2);
    Torus3D torus(cluster, 2, 4, 2);
    EXPECT_DEATH(run25DGemm(torus, 4096, 4096, 4096), "square");
}

TEST(Dp3D, DeeperReplicationCutsIterationTraffic)
{
    // 2.5D's point: c copies reduce the Cannon steps to P/c. Per-link
    // shift traffic must shrink with depth.
    const ChipConfig cfg = tpuV4Config();
    const std::int64_t m = 16384, k = 8192, n = 4096;

    Cluster c1(cfg, 4 * 4 * 1);
    Torus3D t1(c1, 4, 4, 1);
    Gemm3DResult r1 = run25DGemm(t1, m, k, n);

    Cluster c4(cfg, 4 * 4 * 4);
    Torus3D t4(c4, 4, 4, 4);
    Gemm3DResult r4 = run25DGemm(t4, m, k, n);

    // intraLayer accumulates across layers; normalize to a single
    // layer's links before comparing.
    EXPECT_LT(r4.intraLayer.bytesPerLink / 4,
              r1.intraLayer.bytesPerLink);
}

TEST(Dp3D, MeshSliceDPBeats25DOnImbalancedShapes)
{
    // The Sec 7 example, scaled down: a skinny (M >> N) GeMM on 64
    // chips. MeshSlice+DP picks a 8x2x4 arrangement; 2.5D is stuck
    // with 4x4x4 and Cannon traffic.
    const ChipConfig cfg = tpuV4Config();
    const std::int64_t m = 65536, k = 6144, n = 1536;

    Cluster c25(cfg, 4 * 4 * 4);
    Torus3D t25(c25, 4, 4, 4);
    Gemm3DResult r25 = run25DGemm(t25, m, k, n);

    Cluster cms(cfg, 8 * 2 * 4);
    Torus3D tms(cms, 8, 2, 4);
    Gemm2DSpec spec;
    spec.m = m / 4; // DP splits the batch
    spec.k = k;
    spec.n = n;
    spec.rows = 8;
    spec.cols = 2;
    spec.sliceCount = 4;
    spec.dataflow = Dataflow::kLS; // X-stationary style
    const Bytes w_grad = k * n * 2 / spec.chips();
    Gemm3DResult rms =
        runMeshSliceDP(tms, Algorithm::kMeshSlice, spec, w_grad);

    EXPECT_LT(rms.time, r25.time);
}

/** Run @p fn on a fresh 4x4x2 torus whose depth links (link.D+) run at
 *  half bandwidth from t = 0 for @p duration seconds (< 0 = for good),
 *  and return the reported time. */
template <typename Fn>
Time
timeUnderDepthLinkWindow(Time duration, Fn fn)
{
    Cluster cluster(tpuV4Config(), 4 * 4 * 2);
    Torus3D torus(cluster, 4, 4, 2);
    FaultScenario scenario;
    scenario.faults.push_back(CapacityFault{"link.D+", 0.5, 0.0, duration});
    FaultInjector injector(cluster.sim(), cluster.net(), scenario);
    injector.arm();
    cluster.attachFaults(&injector);
    return fn(torus).time;
}

TEST(Dp3D, ReportsCompletionNotDrainTime)
{
    // A window that ends at 10 s covers the whole (millisecond) run, so
    // the run sees exactly the capacity of a persistent window; only
    // the simulator's drain differs, and it must not be reported.
    auto dp = [](Torus3D &torus) {
        Gemm2DSpec spec;
        spec.m = 8192;
        spec.k = 4096;
        spec.n = 4096;
        spec.rows = 4;
        spec.cols = 4;
        spec.sliceCount = 4;
        return runMeshSliceDP(torus, Algorithm::kMeshSlice, spec,
                              spec.k * spec.n * 2 / spec.chips());
    };
    auto two_point_five = [](Torus3D &torus) {
        return run25DGemm(torus, 16384, 8192, 4096);
    };
    const Time dp_persistent = timeUnderDepthLinkWindow(-1.0, dp);
    EXPECT_LT(dp_persistent, 1.0);
    EXPECT_EQ(timeUnderDepthLinkWindow(10.0, dp), dp_persistent);
    const Time p25_persistent =
        timeUnderDepthLinkWindow(-1.0, two_point_five);
    EXPECT_LT(p25_persistent, 1.0);
    EXPECT_EQ(timeUnderDepthLinkWindow(10.0, two_point_five),
              p25_persistent);
}

} // namespace
} // namespace meshslice
