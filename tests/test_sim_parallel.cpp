/**
 * @file
 * The parallel-simulation PR's contract: concurrent candidate
 * simulations are safe (run this under TSan) and bit-deterministic —
 * tuner picks, SearchTrace files and merged stats registries must not
 * depend on the thread count — and the batched fluid accounting is
 * observationally identical to the legacy eager sweep while keeping
 * the busy+idle==wall conservation law exact. Also covers the event
 * queue's lazy-cancellation heap against a reference ordering and the
 * arena allocator backing per-run event/flow storage.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/fault_study.hpp"
#include "core/taskgraph.hpp"
#include "hw/chip_config.hpp"
#include "hw/cluster.hpp"
#include "model/transformer.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "tuner/robust.hpp"
#include "tuner/search_trace.hpp"
#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace meshslice {
namespace {

const CostModel &
testCost()
{
    static CostModel cost = CostModel::calibrated(tpuV4Config());
    return cost;
}

/** Small model whose dimensions divide small meshes (fast full tune). */
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

/** Restores the default pool size when a test body exits. */
struct PoolGuard
{
    ~PoolGuard()
    {
        ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------------
// Event queue: lazy-cancellation heap vs a reference ordering.

TEST(SimParallel, EventQueueMatchesReferenceOrdering)
{
    // Schedule a few hundred events at colliding timestamps, cancel a
    // deterministic subset, and check the survivors fire in (time,
    // scheduling order) — the contract the old std::multimap queue
    // gave and everything downstream depends on.
    Simulator sim;
    std::vector<int> fired;
    std::vector<EventId> ids;
    std::vector<std::pair<double, int>> expected;
    std::uint64_t rng = 12345;
    const auto next = [&rng] {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        return rng >> 33;
    };
    constexpr int kEvents = 400;
    for (int i = 0; i < kEvents; ++i) {
        // 16 distinct timestamps -> heavy same-time collisions.
        const double when = static_cast<double>(next() % 16) * 1e-3;
        ids.push_back(sim.schedule(when, [&fired, i] {
            fired.push_back(i);
        }));
        expected.emplace_back(when, i);
    }
    // Cancel every third event (deterministic subset).
    std::vector<bool> cancelled(kEvents, false);
    for (int i = 0; i < kEvents; i += 3) {
        EXPECT_TRUE(sim.cancel(ids[static_cast<size_t>(i)]));
        // Double-cancel must be a harmless no-op.
        EXPECT_FALSE(sim.cancel(ids[static_cast<size_t>(i)]));
        cancelled[static_cast<size_t>(i)] = true;
    }
    sim.run();

    std::vector<int> want;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (const auto &[when, i] : expected)
        if (!cancelled[static_cast<size_t>(i)])
            want.push_back(i);
    EXPECT_EQ(fired, want);
    // Cancelled events never count as processed, and the pool recycles
    // their slots rather than leaking live entries.
    EXPECT_EQ(sim.eventsProcessed(), want.size());
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimParallel, CancelAfterHeapEntrySurfacesDoesNotCount)
{
    // Cancel from inside a same-timestamp callback that runs first
    // (scheduling order): the victim's heap entry is already in the
    // heap when the slot is invalidated, so the entry surfaces stale
    // and must be discarded without counting as processed.
    Simulator sim;
    int ran = 0;
    EventId victim;
    sim.schedule(1e-3, [&] {
        ++ran;
        EXPECT_TRUE(sim.cancel(victim));
    });
    victim = sim.schedule(1e-3, [&ran] { ran += 100; });
    sim.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.eventsProcessed(), 1u);
}

// ---------------------------------------------------------------------
// Arena allocator (per-run event/flow storage).

TEST(SimParallel, ArenaRecyclesFreedBlocks)
{
    Arena arena(1024);
    void *a = arena.allocate(64, 8);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(arena.bytesInUse(), 64u);
    arena.deallocate(a, 64);
    EXPECT_EQ(arena.bytesInUse(), 0u);
    // Same size class -> the free list must hand the block back.
    void *b = arena.allocate(64, 8);
    EXPECT_EQ(b, a);
    arena.deallocate(b, 64);

    // An STL container on the arena allocator round-trips.
    std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(v[999], 999);
    EXPECT_GT(arena.bytesReserved(), 0u);
}

// ---------------------------------------------------------------------
// Batched fluid accounting: identical to eager, conservation exact.

struct TorusRun
{
    Time time = 0.0;
    std::uint64_t events = 0;
};

TorusRun
runTorusGemm(bool eager, FluidNetwork **net_out = nullptr,
             Cluster *cluster = nullptr)
{
    static const ChipConfig cfg = tpuV4Config();
    Cluster local(cfg, 64);
    Cluster &cl = cluster ? *cluster : local;
    cl.net().setEagerAccounting(eager);
    TorusMesh mesh(cl, 8, 8);
    Gemm2DSpec spec;
    spec.m = 4096;
    spec.k = 2048;
    spec.n = 4096;
    spec.rows = 8;
    spec.cols = 8;
    spec.sliceCount = 2;
    GemmExecutor exec(mesh);
    exec.run(Algorithm::kMeshSlice, spec);
    if (net_out)
        *net_out = &cl.net();
    return {cl.sim().now(), cl.sim().eventsProcessed()};
}

TEST(SimParallel, EagerAndBatchedAccountingBitIdentical)
{
    // Lazy settlement must not change what the simulation *does* —
    // flow completion times and the event schedule are bit-identical.
    const TorusRun batched = runTorusGemm(/*eager=*/false);
    const TorusRun eager = runTorusGemm(/*eager=*/true);
    EXPECT_EQ(batched.time, eager.time);
    EXPECT_EQ(batched.events, eager.events);
    EXPECT_GT(batched.events, 0u);
}

TEST(SimParallel, ConservationExactUnderBatchedAccounting)
{
    // resourceStats() folds the unsettled tail on read, so
    // busy + idle == wall must hold for every resource even though
    // most were never touched by the final settlement sweep.
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 64);
    const TorusRun run =
        runTorusGemm(/*eager=*/false, nullptr, &cluster);
    ASSERT_GT(run.time, 0.0);
    const FluidNetwork &net = cluster.net();
    ASSERT_GT(net.resourceCount(), 0u);
    for (size_t id = 0; id < net.resourceCount(); ++id) {
        const ResourceStats rs =
            net.resourceStats(static_cast<ResourceId>(id));
        const double wall = run.time - rs.createdAt;
        EXPECT_NEAR(rs.busyTime + rs.idleTime, wall, 1e-9 * wall + 1e-15)
            << rs.name;
    }
}

// ---------------------------------------------------------------------
// Concurrent candidate simulations (the TSan hammer).

TEST(SimParallel, ConcurrentScenarioRunsAreIndependent)
{
    // 32 full simulator runs on private clusters, concurrently on the
    // pool, each with a private stats registry. Under TSan this is the
    // race detector for the whole per-run state (simulator heap, fluid
    // scratch, arena, calibration cache); in any build the results
    // must all be bit-identical to the serial reference.
    PoolGuard guard;
    const ChipConfig cfg = tpuV4Config();
    Gemm2DSpec spec;
    spec.m = 2048;
    spec.k = 1024;
    spec.n = 2048;
    spec.rows = 4;
    spec.cols = 4;
    spec.sliceCount = 2;

    StatsRegistry ref_stats;
    const GemmRunResult ref = runGemmUnderScenario(
        cfg, Algorithm::kMeshSlice, spec, nullptr, &ref_stats);
    const std::string ref_json = ref_stats.toJson();

    constexpr int kRuns = 32;
    std::vector<GemmRunResult> results(kRuns);
    std::vector<std::string> stats_json(kRuns);
    ThreadPool::setGlobalThreads(8);
    parallelFor(kRuns, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
            StatsRegistry reg;
            results[static_cast<size_t>(i)] = runGemmUnderScenario(
                cfg, Algorithm::kMeshSlice, spec, nullptr, &reg);
            stats_json[static_cast<size_t>(i)] = reg.toJson();
        }
    });
    for (int i = 0; i < kRuns; ++i) {
        EXPECT_EQ(results[static_cast<size_t>(i)].time, ref.time) << i;
        EXPECT_EQ(stats_json[static_cast<size_t>(i)], ref_json) << i;
    }
}

// ---------------------------------------------------------------------
// Thread-count invariance of tuner picks, merged stats and traces.

TEST(SimParallel, RecoveryTunePickInvariantUnderThreadCount)
{
    PoolGuard guard;
    const LlmAutotuner tuner(testCost());
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train{32, 2048};
    RecoveryTuneConfig rcfg;
    rcfg.chipMtbf = 5.0e6;
    rcfg.checkpointBytesPerChip = 4.0 * 1024 * 1024 * 1024;
    rcfg.topK = 3;

    auto tune = [&] {
        return tuneWithRecoveryShortlist(
            tuner, Algorithm::kMeshSlice,
            tuner.rankShapes(Algorithm::kMeshSlice, model, train, 16,
                             rcfg.topK),
            16, rcfg);
    };
    ThreadPool::setGlobalThreads(1);
    const RecoveryTuneResult serial = tune();
    ThreadPool::setGlobalThreads(8);
    const RecoveryTuneResult threaded = tune();

    ASSERT_EQ(serial.candidates.size(), threaded.candidates.size());
    EXPECT_EQ(serial.pickedIndex, threaded.pickedIndex);
    for (size_t i = 0; i < serial.candidates.size(); ++i) {
        EXPECT_EQ(serial.candidates[i].plan.rows,
                  threaded.candidates[i].plan.rows);
        EXPECT_EQ(serial.candidates[i].plan.cols,
                  threaded.candidates[i].plan.cols);
        EXPECT_EQ(serial.candidates[i].effectiveStepTime,
                  threaded.candidates[i].effectiveStepTime);
    }
}

TEST(SimParallel, RobustTuneMergedStatsInvariantUnderThreadCount)
{
    // The merged registry is folded from per-cell snapshots in serial
    // cell order, so its JSON must be byte-identical across thread
    // counts.
    PoolGuard guard;
    const LlmAutotuner tuner(testCost());
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train{32, 2048};
    RobustTuneConfig rcfg;
    rcfg.topK = 2;
    rcfg.numScenarios = 2;
    rcfg.maxGemmsPerEval = 2;

    auto tune = [&](StatsRegistry *stats) {
        return tuneRobustShortlist(
            tuner, Algorithm::kMeshSlice,
            tuner.rankShapes(Algorithm::kMeshSlice, model, train, 16,
                             rcfg.topK),
            16, rcfg, stats);
    };
    ThreadPool::setGlobalThreads(1);
    StatsRegistry serial_stats;
    serial_stats.enable(true);
    const RobustTuneResult serial = tune(&serial_stats);
    ThreadPool::setGlobalThreads(8);
    StatsRegistry threaded_stats;
    threaded_stats.enable(true);
    const RobustTuneResult threaded = tune(&threaded_stats);

    EXPECT_EQ(serial.pickedIndex, threaded.pickedIndex);
    EXPECT_GT(serial_stats.size(), 0u);
    EXPECT_EQ(serial_stats.toJson(), threaded_stats.toJson());
}

TEST(SimParallel, PipelineTunePickAndStatsInvariantUnderThreadCount)
{
    PoolGuard guard;
    const LlmAutotuner tuner(testCost());
    const TransformerConfig model = tinyModel();
    const TrainingConfig train{16, 512};
    const PipelineTuneConfig pcfg;

    ThreadPool::setGlobalThreads(1);
    StatsRegistry serial_stats;
    serial_stats.enable(true);
    const PipelineTuneResult serial =
        tunePipeline(tuner, model, train, 8, pcfg, &serial_stats);
    ThreadPool::setGlobalThreads(8);
    StatsRegistry threaded_stats;
    threaded_stats.enable(true);
    const PipelineTuneResult threaded =
        tunePipeline(tuner, model, train, 8, pcfg, &threaded_stats);

    ASSERT_EQ(serial.candidates.size(), threaded.candidates.size());
    EXPECT_EQ(serial.pickedIndex, threaded.pickedIndex);
    for (size_t i = 0; i < serial.candidates.size(); ++i)
        EXPECT_EQ(serial.candidates[i].simTotal,
                  threaded.candidates[i].simTotal)
            << i;
    EXPECT_GT(serial_stats.size(), 0u);
    EXPECT_EQ(serial_stats.toJson(), threaded_stats.toJson());
}

TEST(SimParallel, SearchTraceFileByteIdenticalAcrossThreadCounts)
{
    // The strongest determinism claim: the JSONL search trace — shape
    // and slice records from the parallel phase-2 loops, pipeline
    // records from the top-K loop, with nested captures flushed in
    // index order — is byte-identical to a single-threaded run.
    PoolGuard guard;
    const LlmAutotuner tuner(testCost()); // calibrate before tracing
    const TransformerConfig model = tinyModel();
    const TrainingConfig train{16, 512};
    const std::string path1 = "/tmp/meshslice_sim_parallel_t1.jsonl";
    const std::string path8 = "/tmp/meshslice_sim_parallel_t8.jsonl";

    ThreadPool::setGlobalThreads(1);
    ASSERT_TRUE(SearchTrace::global().open(path1));
    (void)tuner.tune(model, train, 16);
    (void)tunePipeline(tuner, model, train, 8, PipelineTuneConfig{});
    SearchTrace::global().close();

    ThreadPool::setGlobalThreads(8);
    ASSERT_TRUE(SearchTrace::global().open(path8));
    (void)tuner.tune(model, train, 16);
    (void)tunePipeline(tuner, model, train, 8, PipelineTuneConfig{});
    SearchTrace::global().close();

    const std::string t1 = readFile(path1);
    const std::string t8 = readFile(path8);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, t8);
    std::remove(path1.c_str());
    std::remove(path8.c_str());
}

} // namespace
} // namespace meshslice
