/**
 * @file
 * The parallel-simulation PR's contract: concurrent candidate
 * simulations are safe (run this under TSan) and bit-deterministic —
 * tuner picks, SearchTrace files and merged stats registries must not
 * depend on the thread count — and the batched fluid accounting keeps
 * the busy+idle==wall conservation law exact. The robust re-rank and
 * the explain layer simulate each distinct GeMM spec once; their folds
 * must equal a per-GeMM loop bit for bit. Also covers the event
 * queue's lazy-cancellation heap against a reference ordering.
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
#include "tuner/explain.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "tuner/robust.hpp"
#include "tuner/search_trace.hpp"
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

/** The robust re-rank's outputs that must not depend on how it
 *  schedules its simulations. */
struct RobustOutcome
{
    std::vector<std::vector<Time>> scenarioTimes;
    std::vector<Time> objectives;
    int pickedIndex = 0;
    std::string statsJson;
};

RobustOutcome
outcomeOf(const RobustTuneResult &result, const StatsRegistry &stats)
{
    RobustOutcome out;
    for (const RobustCandidate &cand : result.candidates) {
        out.scenarioTimes.push_back(cand.scenarioTimes);
        out.objectives.push_back(cand.objective);
    }
    out.pickedIndex = result.pickedIndex;
    out.statsJson = stats.toJson();
    return out;
}

/**
 * Reference re-rank: every GeMM of every (candidate, scenario) cell
 * simulated on its own, in order, each cell's stats gathered in a cell
 * registry and merged under its prefix.
 */
RobustOutcome
perGemmRobust(const ChipConfig &chip, Algorithm algo,
              const std::vector<AutotuneResult> &shortlist,
              const std::vector<FaultScenario> &scenarios,
              const RobustTuneConfig &rcfg)
{
    RobustOutcome out;
    StatsRegistry stats;
    stats.enable(true);
    for (size_t ci = 0; ci < shortlist.size(); ++ci) {
        const AutotuneResult &plan = shortlist[ci];
        std::vector<Time> times;
        for (size_t si = 0; si < scenarios.size(); ++si) {
            StatsRegistry cell;
            Time step = 0.0;
            for (const GemmPlan &g : plan.allPlans()) {
                const Gemm2DSpec spec =
                    makeSpec(g.gemm, g.dataflow, plan.rows, plan.cols,
                             g.sliceCount, chip.bytesPerElement);
                step += runGemmUnderScenario(chip, algo, spec,
                                             &scenarios[si], &cell)
                            .time;
            }
            times.push_back(step);
            stats.merge(cell.snapshot(),
                        "robust/cand" + std::to_string(ci) + "/scen" +
                            std::to_string(si) + "/");
        }
        out.objectives.push_back(robustObjective(times, rcfg.quantile));
        out.scenarioTimes.push_back(std::move(times));
    }
    for (size_t i = 1; i < out.objectives.size(); ++i)
        if (out.objectives[i] <
            out.objectives[static_cast<size_t>(out.pickedIndex)])
            out.pickedIndex = static_cast<int>(i);
    out.statsJson = stats.toJson();
    return out;
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
// Batched fluid accounting: conservation exact.

TEST(SimParallel, ConservationExactUnderBatchedAccounting)
{
    // resourceStats() folds the unsettled tail on read, so
    // busy + idle == wall must hold for every resource even though
    // most were never touched by the final settlement sweep.
    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, 64);
    TorusMesh mesh(cluster, 8, 8);
    Gemm2DSpec spec;
    spec.m = 4096;
    spec.k = 2048;
    spec.n = 4096;
    spec.rows = 8;
    spec.cols = 8;
    spec.sliceCount = 2;
    GemmExecutor(mesh).run(Algorithm::kMeshSlice, spec);
    const Time time = cluster.sim().now();
    ASSERT_GT(time, 0.0);
    const FluidNetwork &net = cluster.net();
    ASSERT_GT(net.resourceCount(), 0u);
    for (size_t id = 0; id < net.resourceCount(); ++id) {
        const ResourceStats rs =
            net.resourceStats(static_cast<ResourceId>(id));
        const double wall = time - rs.createdAt;
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
    // flow table and scratch, calibration cache); in any build the
    // results must all be bit-identical to the serial reference.
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

// ---------------------------------------------------------------------
// One simulation per distinct GeMM spec, folded per GeMM.

TEST(SimParallel, DistinctSpecsOfTheGpt3ShortlistRepeatFfn1)
{
    // The GPT-3 / 256-chip top-3 shortlist of a cold fault-aware plan:
    // in each candidate FFN2's forward, input-gradient and
    // weight-gradient GeMMs (plan entries 9-11) repeat FFN1's
    // input-gradient, forward and weight-gradient GeMMs (entries 7, 6
    // and 8), so 9 of the 12 specs are distinct.
    const LlmAutotuner tuner(testCost());
    const int bpe = testCost().chip().bytesPerElement;
    const std::vector<AutotuneResult> shortlist = tuner.rankShapes(
        Algorithm::kMeshSlice, gpt3Config(),
        TrainingConfig::weakScaling(256), 256, 3);
    ASSERT_EQ(shortlist.size(), 3u);
    for (const AutotuneResult &plan : shortlist) {
        const std::vector<GemmPlan> gemms = plan.allPlans();
        ASSERT_EQ(gemms.size(), 12u);
        const DistinctGemmSpecs distinct =
            distinctGemmSpecs(plan, gemms, bpe);
        EXPECT_EQ(distinct.specs.size(), 9u);
        ASSERT_EQ(distinct.slot.size(), gemms.size());
        size_t seen = 0; // distinct specs met so far
        for (size_t j = 0; j < gemms.size(); ++j) {
            const Gemm2DSpec spec =
                makeSpec(gemms[j].gemm, gemms[j].dataflow, plan.rows,
                         plan.cols, gemms[j].sliceCount, bpe);
            ASSERT_LT(distinct.slot[j], distinct.specs.size());
            EXPECT_EQ(distinct.specs[distinct.slot[j]], spec) << j;
            // A first occurrence opens the next slot; a repeat maps to
            // the slot of the first GeMM with its spec.
            size_t first = 0;
            while (!(makeSpec(gemms[first].gemm, gemms[first].dataflow,
                              plan.rows, plan.cols,
                              gemms[first].sliceCount, bpe) == spec))
                ++first;
            if (first == j)
                EXPECT_EQ(distinct.slot[j], seen++) << j;
            else
                EXPECT_EQ(distinct.slot[j], distinct.slot[first]) << j;
        }
        EXPECT_EQ(distinct.slot[9], distinct.slot[7]);
        EXPECT_EQ(distinct.slot[10], distinct.slot[6]);
        EXPECT_EQ(distinct.slot[11], distinct.slot[8]);
    }
}

TEST(SimParallel, SpecEqualitySeesTheElementSize)
{
    Gemm2DSpec a;
    a.m = a.k = a.n = 1024;
    Gemm2DSpec b = a;
    EXPECT_EQ(a, b);
    b.bytesPerElement = 4;
    EXPECT_NE(a, b);
    EXPECT_EQ(a.str(), b.str()); // why the helper does not key on str()

    // The same GeMMs at two element sizes are two distinct spec lists.
    AutotuneResult plan;
    plan.rows = plan.cols = 2;
    GemmPlan g;
    g.gemm = FcGemm{"fc", 256, 256, 256};
    const std::vector<GemmPlan> gemms = {g, g};
    EXPECT_EQ(distinctGemmSpecs(plan, gemms, 2).specs.size(), 1u);
    EXPECT_NE(distinctGemmSpecs(plan, gemms, 2).specs,
              distinctGemmSpecs(plan, gemms, 4).specs);
}

TEST(SimParallel, RobustFoldOverRepeatsMatchesThePerGemmLoop)
{
    // Every GeMM evaluated, stats on: the fold over distinct-spec runs
    // must reproduce a per-GeMM loop bit for bit — scenario times,
    // objectives, the pick and the merged registry — at 1 and 4
    // threads.
    PoolGuard guard;
    const LlmAutotuner tuner(testCost());
    const ChipConfig &chip = testCost().chip();
    RobustTuneConfig rcfg;
    rcfg.topK = 2;
    rcfg.numScenarios = 2;
    rcfg.maxGemmsPerEval = 0;
    rcfg.maxLaunchJitter = 2e-6; // seeded per scenario
    const std::vector<AutotuneResult> shortlist =
        tuner.rankShapes(Algorithm::kMeshSlice, tinyModel(),
                         TrainingConfig{16, 512}, 16, rcfg.topK);
    ASSERT_EQ(static_cast<int>(shortlist.size()), rcfg.topK);
    int simulations = 0;
    for (const AutotuneResult &plan : shortlist) {
        const DistinctGemmSpecs distinct = distinctGemmSpecs(
            plan, plan.allPlans(), chip.bytesPerElement);
        EXPECT_LT(distinct.specs.size(), 12u); // the fold sees repeats
        simulations +=
            rcfg.numScenarios * static_cast<int>(distinct.specs.size());
    }
    const RobustOutcome want =
        perGemmRobust(chip, Algorithm::kMeshSlice, shortlist,
                      sampleScenarios(rcfg, 16), rcfg);

    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        StatsRegistry stats;
        stats.enable(true);
        const RobustTuneResult result = tuneRobustShortlist(
            tuner, Algorithm::kMeshSlice, shortlist, 16, rcfg, &stats);
        const RobustOutcome got = outcomeOf(result, stats);
        EXPECT_EQ(got.scenarioTimes, want.scenarioTimes) << threads;
        EXPECT_EQ(got.objectives, want.objectives) << threads;
        EXPECT_EQ(got.pickedIndex, want.pickedIndex) << threads;
        EXPECT_EQ(got.statsJson, want.statsJson) << threads;
        EXPECT_EQ(result.simulations, simulations);
        EXPECT_EQ(result.gemmEvals, rcfg.topK * rcfg.numScenarios * 12);
    }
}

TEST(SimParallel, ExplainFoldOverRepeatsMatchesThePerGemmLoop)
{
    const LlmAutotuner tuner(testCost());
    const ChipConfig &chip = testCost().chip();
    const AutotuneResult plan =
        tuner.rankShapes(Algorithm::kMeshSlice, tinyModel(),
                         TrainingConfig{16, 512}, 16, 1)
            .front();
    const std::vector<GemmPlan> gemms = plan.allPlans();
    ASSERT_LT(distinctGemmSpecs(plan, gemms, chip.bytesPerElement)
                  .specs.size(),
              gemms.size());

    ExplainRecord want;
    Time want_time = 0.0;
    for (const GemmPlan &g : gemms) {
        ExplainRecord rec;
        want_time +=
            runGemmUnderScenario(
                chip, Algorithm::kMeshSlice,
                makeSpec(g.gemm, g.dataflow, plan.rows, plan.cols,
                         g.sliceCount, chip.bytesPerElement),
                nullptr, nullptr, &rec)
                .time;
        mergeExplain(want, rec);
    }
    Time got_time = 0.0;
    const ExplainRecord got = explainPlanGemms(
        chip, Algorithm::kMeshSlice, plan, gemms, &got_time);
    EXPECT_EQ(got_time, want_time);
    // %.17g round-trips every double, so equal JSON is equal bits.
    EXPECT_EQ(explainRecordJson("test", Algorithm::kMeshSlice, 16, 0,
                                plan.rows, plan.cols, got_time, got),
              explainRecordJson("test", Algorithm::kMeshSlice, 16, 0,
                                plan.rows, plan.cols, want_time, want));
}

} // namespace
} // namespace meshslice
