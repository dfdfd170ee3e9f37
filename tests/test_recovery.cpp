/**
 * @file
 * Tests of the fail-stop recovery subsystem: elastic re-shard
 * correctness against hand-computed byte counts and a single-chip
 * GeMM reference, the continuous-vs-discrete traffic model identity,
 * the Young–Daly goodput model against a grid optimum, the collective
 * timeout → abort → rebuild → retry transaction (including the
 * bit-identical fault-free contract and thread-count invariance),
 * kill-scenario JSON round-trip, the timing-vs-functional dead-link
 * cross-check, and the death-test audit of every unrecoverable path
 * (each fatal must name the dead resource or the broken invariant).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/recovery_study.hpp"
#include "core/functional.hpp"
#include "gemm/reshard.hpp"
#include "gemm/ring_collectives.hpp"
#include "net/collectives.hpp"
#include "net/topology.hpp"
#include "sim/fault.hpp"
#include "util/parallel.hpp"

namespace meshslice {
namespace {

constexpr double kTol = 2e-3; // float accumulation-order slack

/** Round numbers for hand-checkable cost arithmetic (matches
 *  test_collectives.cpp / test_fault.cpp). */
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

/** Ring fixture with an optional armed fault scenario (the
 *  test_fault.cpp idiom). */
struct FaultedRing
{
    FaultedRing(const ChipConfig &cfg, int chips,
                const FaultScenario &scenario)
        : cluster(cfg, chips), net(cluster),
          injector(cluster.sim(), cluster.net(), scenario)
    {
        injector.arm();
        cluster.attachFaults(&injector);
    }

    CommStats
    run(std::function<void(CommDone)> op)
    {
        CommStats out;
        bool done = false;
        op([&](const CommStats &stats) {
            out = stats;
            done = true;
        });
        cluster.sim().run();
        EXPECT_TRUE(done);
        return out;
    }

    Cluster cluster;
    RingNetwork net;
    FaultInjector injector;
};

// ---------------------------------------------------------------------
// Elastic re-shard: hand-computed traffic.

TEST(Reshard, RetireRowOf4x4HandComputedBytes)
{
    // 24x8 float32 matrix (768 B) on a 4x4 mesh, row 1 retired.
    // Columns are untouched (both meshes cut 4 column blocks). Rows:
    // old blocks of 6 {0:0-5, 1:6-11, 2:12-17, 3:18-23}, new blocks
    // of 8 {0:0-7, 1:8-15, 2:16-23}; survivors renumber 0->0, 2->1,
    // 3->2. Rows 6-11 (dead owner) and 16-17 (survivor 1's block but
    // new owner 2) move: 8 of 24 rows = 1/3 of 768 B.
    SurvivorMesh sv;
    sv.from = {4, 4};
    sv.failedRow = 1;
    const ReshardPlan plan = planReshard({{24, 8}}, 4, sv);
    EXPECT_EQ(plan.to.rows, 3);
    EXPECT_EQ(plan.to.cols, 4);
    EXPECT_EQ(plan.totalBytes, 256);
    EXPECT_EQ(plan.localBytes, 512);
    Bytes sum = 0;
    for (const ReshardMove &mv : plan.moves) {
        EXPECT_NE(mv.srcChip, mv.dstChip);
        EXPECT_GT(mv.bytes, 0);
        sum += mv.bytes;
    }
    EXPECT_EQ(sum, plan.totalBytes);
    // The continuous model agrees exactly when dims divide evenly.
    EXPECT_NEAR(reshardBytesModel(768.0, sv), 256.0, 1e-9);
}

TEST(Reshard, RetireColOf4x4HandComputedBytes)
{
    // The transposed case: 8x24 matrix, column 1 retired. Same
    // arithmetic along the column axis: 8 of 24 columns move.
    SurvivorMesh sv;
    sv.from = {4, 4};
    sv.failedCol = 1;
    const ReshardPlan plan = planReshard({{8, 24}}, 4, sv);
    EXPECT_EQ(plan.to.rows, 4);
    EXPECT_EQ(plan.to.cols, 3);
    EXPECT_EQ(plan.totalBytes, 256);
    EXPECT_EQ(plan.localBytes, 512);
    EXPECT_NEAR(reshardBytesModel(768.0, sv), 256.0, 1e-9);
}

TEST(Reshard, RetireColOf2x8HandComputedBytes)
{
    // 4x56 matrix (896 B) on a 2x8 mesh, column 3 retired. Old column
    // blocks of 7, new blocks of 8; walking the 56 columns, 16 change
    // owner (columns 7, 14-15, 21-27, 32-34, 40-41, 48): 2/7 of 896.
    SurvivorMesh sv;
    sv.from = {2, 8};
    sv.failedCol = 3;
    const ReshardPlan plan = planReshard({{4, 56}}, 4, sv);
    EXPECT_EQ(plan.to.rows, 2);
    EXPECT_EQ(plan.to.cols, 7);
    EXPECT_EQ(plan.totalBytes, 256);
    EXPECT_EQ(plan.localBytes, 640);
    EXPECT_NEAR(reshardBytesModel(896.0, sv), 256.0, 1e-9);
}

// ---------------------------------------------------------------------
// Elastic re-shard: functional correctness.

struct ReshardCase
{
    MeshShape from;
    int failedRow;
    int failedCol;
    std::int64_t dims; // square global matrices, divisible by both meshes
};

const ReshardCase kReshardCases[] = {
    {{4, 4}, 1, -1, 48},  // 4x4 -> 3x4
    {{4, 4}, -1, 1, 48},  // 4x4 -> 4x3
    {{2, 8}, -1, 3, 56},  // 2x8 -> 2x7
};

TEST(Reshard, FunctionalReshardPreservesEveryElement)
{
    for (const ReshardCase &c : kReshardCases) {
        SurvivorMesh sv;
        sv.from = c.from;
        sv.failedRow = c.failedRow;
        sv.failedCol = c.failedCol;
        const Matrix full = Matrix::random(c.dims, c.dims, 11);
        const DistMatrix after =
            reshard(DistMatrix::scatter(full, c.from), sv);
        EXPECT_EQ(after.mesh().rows, sv.to().rows);
        EXPECT_EQ(after.mesh().cols, sv.to().cols);
        const Matrix round = after.gather();
        ASSERT_EQ(round.rows(), full.rows());
        ASSERT_EQ(round.cols(), full.cols());
        // Pure data movement: bit-exact, not approximately equal.
        EXPECT_EQ(round.maxAbsDiff(full), 0.0)
            << c.from.rows << "x" << c.from.cols;
    }
}

/** The re-shard's definition: every element copied on its own, in
 *  global coordinates. */
DistMatrix
elementwiseReshard(const DistMatrix &m, const SurvivorMesh &sv)
{
    const MeshShape to = sv.to();
    const std::int64_t nr1 = m.shardRows(), nc1 = m.shardCols();
    const std::int64_t nr2 = m.rows() / to.rows, nc2 = m.cols() / to.cols;
    DistMatrix out(to, m.rows(), m.cols());
    for (std::int64_t r = 0; r < m.rows(); ++r)
        for (std::int64_t c = 0; c < m.cols(); ++c)
            out.shardAt(static_cast<int>(r / nr2), static_cast<int>(c / nc2))
                .at(r % nr2, c % nc2) =
                m.shardAt(static_cast<int>(r / nr1), static_cast<int>(c / nc1))
                    .at(r % nr1, c % nc1);
    return out;
}

bool
sameBytes(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(),
                       static_cast<size_t>(x.rows() * x.cols()) *
                           sizeof(float)) == 0;
}

/** Shard by shard, byte for byte. */
bool
sameShards(const DistMatrix &x, const DistMatrix &y)
{
    if (!(x.mesh() == y.mesh()) || x.rows() != y.rows() ||
        x.cols() != y.cols())
        return false;
    for (int i = 0; i < x.mesh().rows; ++i)
        for (int j = 0; j < x.mesh().cols; ++j)
            if (!sameBytes(x.shardAt(i, j), y.shardAt(i, j)))
                return false;
    return true;
}

TEST(Reshard, RowRunsMatchTheElementwiseDefinitionOnNonSquareOperands)
{
    struct Case
    {
        MeshShape from;
        int failedRow;
        int failedCol;
        std::int64_t rows, cols;
    };
    const Case cases[] = {
        {{4, 4}, 1, -1, 1152, 1024}, // A of OS 1152x1024x1152 -> 3x4
        {{4, 4}, -1, 1, 1024, 1152}, // its B -> 4x3
        {{4, 4}, -1, 3, 96, 48},     // last column retired
        {{2, 8}, -1, 3, 30, 112},    // 2x8 -> 2x7
        {{2, 8}, 0, -1, 30, 112},    // 2x8 -> 1x8
    };
    for (const Case &c : cases) {
        SurvivorMesh sv;
        sv.from = c.from;
        sv.failedRow = c.failedRow;
        sv.failedCol = c.failedCol;
        const Matrix full = Matrix::random(c.rows, c.cols, 13);
        const DistMatrix before = DistMatrix::scatter(full, c.from);
        const DistMatrix after = reshard(before, sv);
        const std::string what = std::to_string(c.rows) + "x" +
                                 std::to_string(c.cols) + " from " +
                                 std::to_string(c.from.rows) + "x" +
                                 std::to_string(c.from.cols);
        EXPECT_TRUE(sameShards(after, elementwiseReshard(before, sv)))
            << what;
        EXPECT_TRUE(sameShards(after, DistMatrix::scatter(full, sv.to())))
            << what;
        EXPECT_TRUE(after.sameAs(full)) << what;
        // Scatter and gather round trips, on both meshes.
        EXPECT_TRUE(sameBytes(before.gather(), full)) << what;
        EXPECT_TRUE(sameBytes(after.gather(), full)) << what;
        EXPECT_TRUE(sameShards(DistMatrix::scatter(after.gather(), sv.to()),
                               after))
            << what;
    }
}

TEST(Reshard, SameAsFailsOnOneFlippedSignOrNaN)
{
    const Matrix full = Matrix::random(12, 16, 5);
    DistMatrix d = DistMatrix::scatter(full, MeshShape{3, 4});
    EXPECT_TRUE(d.sameAs(full));
    float &v = d.shardAt(2, 3).at(3, 3);
    const float kept = v;
    v = -v;
    EXPECT_FALSE(d.sameAs(full));
    v = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(d.sameAs(full));
    v = kept;
    EXPECT_TRUE(d.sameAs(full));
    EXPECT_FALSE(d.sameAs(full.transpose()));
}

TEST(Reshard, GemmOnSurvivorMeshMatchesReference)
{
    // The whole point of re-sharding: after redistribution the
    // survivor mesh must still compute the right product.
    for (const ReshardCase &c : kReshardCases) {
        SurvivorMesh sv;
        sv.from = c.from;
        sv.failedRow = c.failedRow;
        sv.failedCol = c.failedCol;
        const std::int64_t d = c.dims;
        const Matrix a = Matrix::random(d, d, 21);
        const Matrix b = Matrix::random(d, d, 22);
        const Matrix ref = Matrix::gemm(a, b);
        const DistMatrix a2 = reshard(DistMatrix::scatter(a, c.from), sv);
        const DistMatrix b2 = reshard(DistMatrix::scatter(b, c.from), sv);
        const DistMatrix prod =
            funcGemm(Algorithm::kMeshSlice, Dataflow::kOS, a2, b2, 2, 2);
        EXPECT_TRUE(prod.gather().allClose(ref, kTol))
            << "max diff " << prod.gather().maxAbsDiff(ref) << " on "
            << sv.to().rows << "x" << sv.to().cols;
    }
}

/** Every survivor of every mesh with rows and cols <= 6: each failed
 *  row, then each failed column. */
std::vector<SurvivorMesh>
smallSurvivorMeshes()
{
    std::vector<SurvivorMesh> out;
    for (int rows = 1; rows <= 6; ++rows)
        for (int cols = 1; cols <= 6; ++cols) {
            for (int f = 0; rows >= 2 && f < rows; ++f)
                out.push_back(SurvivorMesh{{rows, cols}, f, -1});
            for (int f = 0; cols >= 2 && f < cols; ++f)
                out.push_back(SurvivorMesh{{rows, cols}, -1, f});
        }
    return out;
}

/** Non-square global dimensions that divide both @p from and @p to. */
std::pair<std::int64_t, std::int64_t>
dividingDims(MeshShape from, MeshShape to)
{
    return {2 * std::lcm(from.rows, to.rows),
            3 * std::lcm(from.cols, to.cols)};
}

TEST(Reshard, ContinuousModelMatchesDiscretePlanAcrossShapes)
{
    // Whenever the dimensions divide both meshes the measure-theoretic
    // form must equal the enumerated plan exactly — the tuner's
    // closed-form sweeps depend on this identity.
    for (const ReshardCase &c : kReshardCases) {
        SurvivorMesh sv;
        sv.from = c.from;
        sv.failedRow = c.failedRow;
        sv.failedCol = c.failedCol;
        const int e = 4;
        const ReshardPlan plan = planReshard({{c.dims, c.dims}}, e, sv);
        const double total =
            static_cast<double>(c.dims) * c.dims * e;
        EXPECT_NEAR(reshardBytesModel(total, sv),
                    static_cast<double>(plan.totalBytes),
                    1e-9 * total + 1e-9);
    }
    for (const SurvivorMesh &sv : smallSurvivorMeshes()) {
        const int e = 2;
        const auto [rows, cols] = dividingDims(sv.from, sv.to());
        const ReshardPlan plan = planReshard({{rows, cols}}, e, sv);
        const double total = static_cast<double>(rows) * cols * e;
        EXPECT_NEAR(reshardBytesModel(total, sv),
                    static_cast<double>(plan.totalBytes),
                    1e-9 * total + 1e-9)
            << sv.from.rows << "x" << sv.from.cols << " retiring row "
            << sv.failedRow << " / col " << sv.failedCol;
    }
}

TEST(Reshard, ListPlanIsTheConcatenationOfSingleMatrixPlans)
{
    // A, B and W of a 48x24x96 GeMM: every dimension divides 4x4,
    // 3x4 and 4x3.
    const std::vector<std::pair<std::int64_t, std::int64_t>> live = {
        {48, 24}, {24, 96}, {48, 96}};
    for (const SurvivorMesh &sv :
         {SurvivorMesh{{4, 4}, 1, -1}, SurvivorMesh{{4, 4}, -1, 3}}) {
        const ReshardPlan all = planReshard(live, 2, sv);
        std::vector<ReshardMove> moves;
        Bytes total = 0, local = 0;
        std::vector<Bytes> ingress(16, 0), egress(16, 0);
        for (const auto &matrix : live) {
            const ReshardPlan one = planReshard({matrix}, 2, sv);
            moves.insert(moves.end(), one.moves.begin(), one.moves.end());
            total += one.totalBytes;
            local += one.localBytes;
            for (const ReshardMove &mv : one.moves) {
                ingress[static_cast<size_t>(mv.dstChip)] += mv.bytes;
                egress[static_cast<size_t>(mv.srcChip)] += mv.bytes;
            }
        }
        ASSERT_EQ(all.moves.size(), moves.size());
        for (size_t i = 0; i < moves.size(); ++i) {
            EXPECT_EQ(all.moves[i].srcChip, moves[i].srcChip) << i;
            EXPECT_EQ(all.moves[i].dstChip, moves[i].dstChip) << i;
            EXPECT_EQ(all.moves[i].bytes, moves[i].bytes) << i;
        }
        EXPECT_TRUE(all.from == sv.from);
        EXPECT_TRUE(all.to == sv.to());
        EXPECT_EQ(all.totalBytes, total);
        EXPECT_EQ(all.localBytes, local);
        EXPECT_EQ(all.maxChipIngress,
                  *std::max_element(ingress.begin(), ingress.end()));
        EXPECT_EQ(all.maxChipEgress,
                  *std::max_element(egress.begin(), egress.end()));
    }
}

/** The mean `planReshard` moved bytes of a (rows x cols) matrix over
 *  every failed row (or column) of @p mesh. */
double
meanPlanBytes(MeshShape mesh, bool retire_row, std::int64_t rows,
              std::int64_t cols, int bytes_per_element)
{
    const int lines = retire_row ? mesh.rows : mesh.cols;
    double sum = 0.0;
    for (int f = 0; f < lines; ++f) {
        const SurvivorMesh sv{mesh, retire_row ? f : -1,
                              retire_row ? -1 : f};
        sum += static_cast<double>(
            planReshard({{rows, cols}}, bytes_per_element, sv).totalBytes);
    }
    return sum / lines;
}

TEST(Reshard, ExpectedReshardIsTheMeanPlanOfTheCheaperOrientation)
{
    const ChipConfig cfg = tpuV4Config();
    struct Case
    {
        MeshShape mesh;
        bool retireRow; ///< the orientation expected to win
    };
    const Case cases[] = {
        {{4, 4}, true},  // a square mesh ties, and rows win the tie
        {{2, 6}, false}, // a column of 6 moves less than a row of 2
        {{6, 2}, true},
        {{3, 5}, false},
        {{1, 6}, false}, // one row: columns only
        {{5, 1}, true},
    };
    for (const Case &c : cases) {
        const MeshShape m = c.mesh;
        // Dimensions that divide the mesh and both survivor shapes.
        const auto [rows, cols] = dividingDims(
            m, MeshShape{std::max(m.rows - 1, 1), std::max(m.cols - 1, 1)});
        const int e = 2;
        const double total = static_cast<double>(rows) * cols * e;
        const ReshardEstimate est = expectedReshard(cfg, m, total);
        const std::string what =
            std::to_string(m.rows) + "x" + std::to_string(m.cols);

        const double bytes = meanPlanBytes(m, c.retireRow, rows, cols, e);
        const int survivors = c.retireRow ? (m.rows - 1) * m.cols
                                          : m.rows * (m.cols - 1);
        EXPECT_NEAR(est.bytes, bytes, 1e-9 * total) << what;
        EXPECT_NEAR(est.time, reshardTimeModel(cfg, bytes, survivors),
                    1e-12)
            << what;
        // The other orientation, where it exists, is no cheaper.
        if ((c.retireRow ? m.cols : m.rows) >= 2) {
            const double other =
                meanPlanBytes(m, !c.retireRow, rows, cols, e);
            const int other_survivors = c.retireRow
                                            ? m.rows * (m.cols - 1)
                                            : (m.rows - 1) * m.cols;
            EXPECT_LE(est.time,
                      reshardTimeModel(cfg, other, other_survivors) + 1e-12)
                << what;
        }
    }
    // A 1x1 mesh has no survivor mesh in either orientation.
    EXPECT_LT(expectedReshard(cfg, MeshShape{1, 1}, 1e9).time, 0.0);
}

TEST(Reshard, TimeModelIsFiniteAndOrdered)
{
    const ChipConfig cfg = tpuV4Config();
    SurvivorMesh sv;
    sv.from = {4, 4};
    sv.failedRow = 1;
    const ReshardPlan plan = planReshard({{48, 48}}, 4, sv);
    const Time exact = reshardTime(cfg, plan);
    const Time modeled = reshardTimeModel(
        cfg, static_cast<double>(plan.totalBytes), sv.to().chips());
    EXPECT_GT(exact, 0.0);
    EXPECT_GT(modeled, 0.0);
    // The balanced approximation can only be optimistic relative to
    // the bottleneck-chip form.
    EXPECT_LE(modeled, exact + 1e-12);
}

// ---------------------------------------------------------------------
// Checkpoint/restart goodput: Young–Daly against a grid optimum.

TEST(RecoveryStudy, YoungDalyMatchesGridOptimum)
{
    GoodputModel m;
    m.checkpointWrite = 100.0;
    m.mtbf = 86400.0;
    m.downtime = 120.0;
    const Time closed = youngDalyInterval(m);
    // sqrt(C^2 + 2C(M+D)) by hand.
    EXPECT_NEAR(closed,
                std::sqrt(100.0 * 100.0 +
                          2.0 * 100.0 * (86400.0 + 120.0)),
                1e-9);
    // Dense log-grid over [closed/32, closed*32]: the argmax must sit
    // within one grid step of the closed form.
    const int points = 4000;
    Time best_tau = 0.0;
    double best_g = -1.0;
    for (int i = 0; i < points; ++i) {
        const double frac = static_cast<double>(i) / (points - 1);
        const Time tau =
            closed / 32.0 * std::pow(32.0 * 32.0, frac);
        const double g = goodputAt(m, tau);
        if (g > best_g) {
            best_g = g;
            best_tau = tau;
        }
    }
    const double step = std::pow(32.0 * 32.0, 1.0 / (points - 1));
    EXPECT_LT(best_tau / closed, step * 1.0000001);
    EXPECT_GT(best_tau / closed, 1.0 / step / 1.0000001);
    // And the closed form is at least as good as its neighbourhood.
    EXPECT_GE(goodputAt(m, closed) + 1e-12, goodputAt(m, closed * 0.9));
    EXPECT_GE(goodputAt(m, closed) + 1e-12, goodputAt(m, closed * 1.1));
}

TEST(RecoveryStudy, GoodputMonotoneNonIncreasingAsMtbfShrinks)
{
    const ChipConfig cfg = tpuV4Config();
    TrainingRunModel run;
    run.checkpointBytesPerChip = GiB(4);
    run.chips = 64;
    run.restartTime = 60.0;
    run.reshardTime = 2.0;
    double prev = 1.0;
    for (const double mtbf_days : {512.0, 128.0, 32.0, 8.0, 2.0, 0.5}) {
        run.chipMtbf = mtbf_days * 86400.0;
        const TrainingGoodput g = evaluateTrainingRun(cfg, run);
        EXPECT_GT(g.goodput, 0.0);
        EXPECT_LT(g.goodput, 1.0);
        EXPECT_LE(g.goodput, prev * (1.0 + 1e-12)) << mtbf_days;
        EXPECT_NEAR(g.jobMtbf, run.chipMtbf / run.chips, 1e-6);
        prev = g.goodput;
    }
}

// ---------------------------------------------------------------------
// Collective timeout -> abort -> rebuild -> retry.

FaultScenario
killChipScenario(int chip, Time at = 1e-4)
{
    FaultScenario s;
    s.kills.push_back(KillFault{
        "chip" + std::to_string(chip) + ".hbm", at});
    s.detectionLatency = 0.5;
    return s;
}

TEST(RecoveryStudy, KilledChipTriggersExactlyOneRetry)
{
    const ChipConfig cfg = tpuV4Config();
    const FaultScenario kill = killChipScenario(1);
    const CollectiveRecoveryResult nominal =
        runCollectiveRecovery(cfg, 2, 4, MiB(8), nullptr);
    const CollectiveRecoveryResult recovered =
        runCollectiveRecovery(cfg, 2, 4, MiB(8), &kill);
    EXPECT_FALSE(nominal.outcome.retried);
    ASSERT_TRUE(recovered.outcome.retried);
    EXPECT_EQ(recovered.outcome.failure.deadChip, 1);
    EXPECT_EQ(recovered.outcome.failure.deadResource, "chip1.hbm");
    EXPECT_GE(recovered.outcome.failure.detectedAt,
              kill.kills[0].at + kill.detectionLatency - 1e-12);
    // The transaction pays at least the detection latency on top of a
    // fault-free run.
    EXPECT_GT(recovered.outcome.totalTime,
              nominal.outcome.totalTime + kill.detectionLatency - 1e-12);
}

TEST(RecoveryStudy, FaultFreeRecoveryRunIsBitIdentical)
{
    // nullptr scenario, an armed-but-empty scenario, and a replay must
    // agree on the full (events, final time, stats JSON) triple.
    const ChipConfig cfg = tpuV4Config();
    const FaultScenario empty;
    ASSERT_TRUE(empty.empty());
    const CollectiveRecoveryResult none =
        runCollectiveRecovery(cfg, 4, 4, MiB(8), nullptr);
    const CollectiveRecoveryResult with =
        runCollectiveRecovery(cfg, 4, 4, MiB(8), &empty);
    const CollectiveRecoveryResult replay =
        runCollectiveRecovery(cfg, 4, 4, MiB(8), nullptr);
    EXPECT_EQ(none.finalTime, with.finalTime);
    EXPECT_EQ(none.eventsProcessed, with.eventsProcessed);
    EXPECT_EQ(none.statsJson, with.statsJson);
    EXPECT_EQ(none.finalTime, replay.finalTime);
    EXPECT_EQ(none.eventsProcessed, replay.eventsProcessed);
    EXPECT_EQ(none.statsJson, replay.statsJson);
}

TEST(RecoveryStudy, RecoveryRunInvariantUnderThreadCount)
{
    // The recovery simulation is a single event queue; the worker pool
    // must not be able to perturb it (MESHSLICE_THREADS=1 vs 8).
    const ChipConfig cfg = tpuV4Config();
    const FaultScenario kill = killChipScenario(2);
    ThreadPool::setGlobalThreads(1);
    const CollectiveRecoveryResult serial =
        runCollectiveRecovery(cfg, 2, 4, MiB(8), &kill);
    ThreadPool::setGlobalThreads(8);
    const CollectiveRecoveryResult threaded =
        runCollectiveRecovery(cfg, 2, 4, MiB(8), &kill);
    ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());
    EXPECT_EQ(serial.finalTime, threaded.finalTime);
    EXPECT_EQ(serial.eventsProcessed, threaded.eventsProcessed);
    EXPECT_EQ(serial.statsJson, threaded.statsJson);
    EXPECT_EQ(serial.outcome.retried, threaded.outcome.retried);
}

TEST(RecoveryStudy, KillScenarioJsonRoundTrips)
{
    FaultScenario s;
    s.seed = 99;
    s.kills.push_back(KillFault{"chip3.hbm", 0.25});
    s.kills.push_back(KillFault{"link.E.b0.r1.c2", 1.5});
    s.detectionLatency = 0.125;
    const FaultScenario back =
        FaultScenario::fromJson(s.toJson(), "round-trip");
    EXPECT_EQ(back.seed, s.seed);
    ASSERT_EQ(back.kills.size(), s.kills.size());
    for (size_t i = 0; i < s.kills.size(); ++i) {
        EXPECT_EQ(back.kills[i].pattern, s.kills[i].pattern);
        EXPECT_EQ(back.kills[i].at, s.kills[i].at);
    }
    EXPECT_EQ(back.detectionLatency, s.detectionLatency);
}

// ---------------------------------------------------------------------
// Timing vs functional: the same dead-link schedule.

TEST(RecoveryStudy, DegradedTimingScheduleMatchesFunctionalSteps)
{
    // Bidirectional 4-ring AG with one dead CW link: the timing layer
    // falls back to a single CCW chain of P-1 = 3 steps pushing the
    // whole 1000 B shard each step. The functional AG implements the
    // very same unidirectional schedule; its per-step transcript must
    // agree on both the step count and the per-step transfer sizes.
    ChipConfig cfg = simpleConfig();
    cfg.bidirectionalIci = true;
    FaultScenario dead_link;
    dead_link.faults.push_back(CapacityFault{"link.CW.1", 0.0, 0.0, -1.0});
    FaultedRing f(cfg, 4, dead_link);
    const Bytes shard_bytes = 1000;
    const CommStats stats = f.run([&](CommDone done) {
        ringAllGather(f.cluster, f.net.ring(), shard_bytes, 0,
                      std::move(done));
    });
    EXPECT_EQ(stats.syncCount, 3);
    EXPECT_EQ(stats.bytesPerLink, 3000);

    // Functional shards of the same byte size: 5x50 floats = 1000 B.
    const int bytes_per_element = 4;
    std::vector<Matrix> shards;
    for (int i = 0; i < 4; ++i)
        shards.push_back(Matrix::random(5, 50, 100 + i));
    RingStepTrace steps;
    const std::vector<Matrix> gathered =
        ringAllGatherFunctional(shards, &steps);
    ASSERT_EQ(static_cast<int>(steps.size()), stats.syncCount);
    for (const std::int64_t elems : steps) {
        EXPECT_EQ(elems * bytes_per_element,
                  stats.bytesPerLink / stats.syncCount);
    }
    // And the functional result is the actual all-gather.
    const Matrix expect = Matrix::vcat(shards);
    for (const Matrix &per_chip : gathered)
        EXPECT_EQ(per_chip.maxAbsDiff(expect), 0.0);
}

TEST(RecoveryStudy, DegradedReduceScatterMatchesFunctionalSteps)
{
    // Same cross-check for RdS: 3 steps, full shard per step.
    ChipConfig cfg = simpleConfig();
    cfg.bidirectionalIci = true;
    FaultScenario dead_link;
    dead_link.faults.push_back(CapacityFault{"link.CW.2", 0.0, 0.0, -1.0});
    FaultedRing f(cfg, 4, dead_link);
    const CommStats stats = f.run([&](CommDone done) {
        ringReduceScatter(f.cluster, f.net.ring(), 1000, 0,
                          std::move(done));
    });
    EXPECT_EQ(stats.syncCount, 3);
    EXPECT_EQ(stats.bytesPerLink, 3000);
    // Partials of 4 stacked 5x50 blocks: one 250-element (1000 B)
    // block moves per chip per step.
    std::vector<Matrix> partials;
    for (int i = 0; i < 4; ++i)
        partials.push_back(Matrix::random(20, 50, 200 + i));
    RingStepTrace steps;
    ringReduceScatterFunctional(partials, &steps);
    ASSERT_EQ(static_cast<int>(steps.size()), stats.syncCount);
    for (const std::int64_t elems : steps)
        EXPECT_EQ(elems * 4, stats.bytesPerLink / stats.syncCount);
}

// ---------------------------------------------------------------------
// Death-test audit: every unrecoverable path names its corpse.

TEST(RecoveryDeathTest, NonRecoverableCollectiveNamesTheDeadChip)
{
    // Slow hand-arithmetic hardware (43 s per AG) so the collective is
    // still in flight when the 0.5 s detection timeout fires.
    const ChipConfig cfg = simpleConfig();
    EXPECT_DEATH(
        {
            FaultedRing f(cfg, 4, killChipScenario(1));
            f.run([&](CommDone done) {
                ringAllGather(f.cluster, f.net.ring(), 1000, 0,
                              std::move(done));
            });
        },
        "failed permanently.*chip1\\.hbm|chip1\\.hbm.*failed permanently");
}

TEST(RecoveryDeathTest, SecondKillExhaustsTheRetryBudget)
{
    const ChipConfig cfg = tpuV4Config();
    FaultScenario two;
    two.kills.push_back(KillFault{"chip1.hbm", 1e-4});
    two.kills.push_back(KillFault{"chip2.hbm", 1e-4});
    two.detectionLatency = 0.5;
    EXPECT_DEATH(runCollectiveRecovery(cfg, 2, 4, MiB(8), &two),
                 "one retry is the recovery budget");
}

TEST(RecoveryDeathTest, KillPatternMatchingNoResourceIsFatal)
{
    const ChipConfig cfg = tpuV4Config();
    FaultScenario bogus;
    bogus.kills.push_back(KillFault{"chip99.bogus", 0.0});
    EXPECT_DEATH(runCollectiveRecovery(cfg, 2, 2, MiB(1), &bogus),
                 "matche[sd] no resource");
}

TEST(RecoveryDeathTest, SurvivorMeshRejectsAmbiguousRetirement)
{
    SurvivorMesh both;
    both.from = {4, 4};
    both.failedRow = 1;
    both.failedCol = 1;
    EXPECT_DEATH(planReshard({{48, 48}}, 4, both),
                 "exactly one of failedRow");
}

TEST(RecoveryDeathTest, SurvivorMeshRejectsEmptySurvivorSet)
{
    SurvivorMesh none;
    none.from = {1, 4};
    none.failedRow = 0;
    EXPECT_DEATH(planReshard({{8, 8}}, 4, none), "no survivors would remain");
}

TEST(RecoveryDeathTest, KillOverlappingCapacityFaultIsRejected)
{
    FaultScenario s;
    s.kills.push_back(KillFault{"link.CW.1", 1.0});
    s.faults.push_back(CapacityFault{"link.CW.1", 0.5, 0.0, -1.0});
    const std::string json = s.toJson();
    EXPECT_DEATH(FaultScenario::fromJson(json, "overlap-test"),
                 "overlaps capacity fault");
}

} // namespace
} // namespace meshslice
