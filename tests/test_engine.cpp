/**
 * @file
 * PlanEngine subsystem tests: content-addressed key stability and
 * sensitivity, deterministic plan JSON round-trips, LRU cache
 * behavior and persistence, cache-hit / single-flight / incremental
 * serving identity, thread invariance, the concurrency safety of
 * the comm-calibration memoization the engine hammers, and `fatal`
 * exits for serve-path inputs the planner cannot plan for.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "engine/plan_cache.hpp"
#include "engine/plan_engine.hpp"
#include "engine/plan_json.hpp"
#include "tuner/cost_model.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace meshslice {
namespace {

/** A query small enough to cold-tune in tens of milliseconds. */
PlanQuery
tinyQuery(std::uint64_t fault_seed = 7)
{
    PlanQuery q;
    q.model.name = "tiny-test";
    q.model.layers = 2;
    q.model.hiddenDim = 1024;
    q.model.heads = 8;
    q.model.ffnDim = 4096;
    q.chips = 8;
    q.train = TrainingConfig::weakScaling(q.chips);
    q.chip = tpuV4Config();
    q.runRobust = true;
    q.robust.topK = 2;
    q.robust.numScenarios = 2;
    q.robust.maxGemmsPerEval = 2;
    q.robust.seed = fault_seed;
    q.runRecovery = true;
    q.recovery.chipMtbf = 30.0 * 24 * 3600;
    q.recovery.checkpointBytesPerChip = GiB(1.0);
    q.recovery.topK = 2;
    return q;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

TEST(PlanKey, StableAcrossThreadCounts)
{
    ThreadPool::setGlobalThreads(1);
    const PlanKey serial = planKeyOf(tinyQuery());
    ThreadPool::setGlobalThreads(8);
    const PlanKey threaded = planKeyOf(tinyQuery());
    EXPECT_EQ(serial.full(), threaded.full());
    EXPECT_EQ(serial.digest(), threaded.digest());
}

TEST(PlanKey, ChipConfigFingerprintSeesEveryField)
{
    ChipConfig a = tpuV4Config();
    ChipConfig b = a;
    EXPECT_EQ(chipConfigFingerprint(a), chipConfigFingerprint(b));
    // A relative perturbation far below any decimal print precision
    // must still change the key (hex-float encoding is exact).
    b.syncLatency *= 1.0 + 1e-15;
    EXPECT_NE(chipConfigFingerprint(a), chipConfigFingerprint(b));
}

TEST(PlanKey, EveryComponentIsSensitive)
{
    const PlanKey base = planKeyOf(tinyQuery());

    PlanQuery q = tinyQuery();
    q.model.hiddenDim += 128;
    EXPECT_NE(planKeyOf(q).model, base.model);
    EXPECT_FALSE(planKeyOf(q).sameBase(base));

    q = tinyQuery();
    q.chips = 16;
    q.train = TrainingConfig::weakScaling(q.chips);
    EXPECT_NE(planKeyOf(q).cluster, base.cluster);

    q = tinyQuery();
    q.chip.syncLatency *= 2.0;
    EXPECT_NE(planKeyOf(q).cluster, base.cluster);

    // Objective knobs live in the *tune* component: changing them is
    // not a fault-only delta and must not be incremental-eligible.
    q = tinyQuery();
    q.recovery.chipMtbf *= 2.0;
    EXPECT_NE(planKeyOf(q).tune, base.tune);
    EXPECT_FALSE(planKeyOf(q).sameBase(base));

    q = tinyQuery();
    q.robust.quantile = 0.9;
    EXPECT_FALSE(planKeyOf(q).sameBase(base));
}

TEST(PlanKey, FaultOnlyDeltaIsIncrementalEligible)
{
    const PlanKey base = planKeyOf(tinyQuery(7));
    const PlanKey reseeded = planKeyOf(tinyQuery(8));
    EXPECT_TRUE(reseeded.sameBase(base));
    EXPECT_NE(reseeded.fault, base.fault);
    EXPECT_NE(reseeded.full(), base.full());

    // Explicit scenarios key on their full content: nudging one fault
    // window start is a (fault-only) different key.
    PlanQuery qa = tinyQuery();
    FaultScenario scenario;
    scenario.faults.push_back({"link.E", 0.5, 0.0, 1.0});
    qa.robust.scenarios.push_back(scenario);
    PlanQuery qb = qa;
    qb.robust.scenarios[0].faults[0].start = 1e-9;
    const PlanKey ka = planKeyOf(qa), kb = planKeyOf(qb);
    EXPECT_TRUE(kb.sameBase(ka));
    EXPECT_NE(kb.fault, ka.fault);
}

TEST(PlanKey, ShortlistSizeIsMaxOfEnabledConsumers)
{
    PlanQuery q = tinyQuery();
    q.robust.topK = 2;
    q.recovery.topK = 5;
    EXPECT_EQ(shortlistSizeFor(q), 5);
    q.runRecovery = false;
    EXPECT_EQ(shortlistSizeFor(q), 2);
    q.runRobust = false;
    EXPECT_EQ(shortlistSizeFor(q), 1);
}

TEST(PlanJson, PlanRoundTripIsByteIdentical)
{
    PlanEngine engine;
    const PlanResult r = engine.plan(tinyQuery());
    EXPECT_TRUE(r.plan.hasRobust);
    EXPECT_TRUE(r.plan.hasRecovery);
    const EnginePlan parsed = enginePlanFromJson(r.planJson, "test");
    EXPECT_EQ(enginePlanToJson(parsed), r.planJson);

    // The pipeline section round-trips too (filled by hand so the test
    // does not pay for a 3D tune).
    EnginePlan withPipeline = parsed;
    withPipeline.hasPipeline = true;
    withPipeline.axes.tpRows = 2;
    withPipeline.axes.tpCols = 2;
    withPipeline.axes.pp = 2;
    withPipeline.axes.dp = 1;
    withPipeline.axes.microBatches = 8;
    withPipeline.axes.schedule = PipelineSchedule::k1F1B;
    withPipeline.pipelineEstTotal = 0.125;
    withPipeline.pipelineSimTotal = 0.25;
    withPipeline.stageMemoryBytes = 1 << 20;
    withPipeline.peakStash = 3;
    const std::string json = enginePlanToJson(withPipeline);
    EXPECT_EQ(enginePlanToJson(enginePlanFromJson(json, "test")), json);
}

TEST(PlanJson, ShortlistRoundTripIsByteIdentical)
{
    const PlanQuery q = tinyQuery();
    const LlmAutotuner tuner(CostModel::calibrated(q.chip));
    const std::vector<AutotuneResult> shortlist =
        tuner.rankShapes(q.algo, q.model, q.train, q.chips, 3, true);
    ASSERT_FALSE(shortlist.empty());
    const std::string json = shortlistToJson(shortlist);
    const std::vector<AutotuneResult> parsed =
        shortlistFromJson(json, "test");
    EXPECT_EQ(parsed.size(), shortlist.size());
    EXPECT_EQ(shortlistToJson(parsed), json);
}

TEST(PlanJsonDeathTest, ErrorsArePositionalAndNamed)
{
    EXPECT_DEATH(enginePlanFromJson("{\"cluster\":", "unit test"),
                 "at byte");
    EXPECT_DEATH(enginePlanFromJson("{}", "unit test"), "cluster");
    EXPECT_DEATH(shortlistFromJson("[{\"rows\": true}]", "unit test"),
                 "rows");
    EXPECT_DEATH(
        planQueryFromJson("{\"mdoel\": \"gpt3\"}", tpuV4Config(), "q.json"),
        "mdoel");
}

TEST(PlanCacheTest, LruEvictionAndCounters)
{
    StatsRegistry stats;
    stats.enable(true);
    PlanCache cache(2, &stats);
    cache.insert("a#f1", "a", "planA", "shortA");
    cache.insert("b#f1", "b", "planB", "shortB");

    std::string out;
    EXPECT_TRUE(cache.lookup("a#f1", &out)); // touches a → b is LRU
    EXPECT_EQ(out, "planA");
    cache.insert("c#f1", "c", "planC", "shortC");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.lookup("b#f1", &out)); // evicted
    EXPECT_TRUE(cache.lookup("c#f1", &out));

    EXPECT_EQ(stats.counter("engine/cache/insert"), 3.0);
    EXPECT_EQ(stats.counter("engine/cache/eviction"), 1.0);
    EXPECT_EQ(stats.counter("engine/cache/miss"), 1.0);
    EXPECT_EQ(stats.counter("engine/cache/hit"), 2.0);

    std::string shortlist;
    EXPECT_TRUE(cache.shortlistForBase("a", &shortlist));
    EXPECT_EQ(shortlist, "shortA");
    EXPECT_FALSE(cache.shortlistForBase("b", &shortlist));
}

TEST(PlanCacheTest, PersistenceRoundTripIsByteIdentical)
{
    PlanCache cache(8, nullptr);
    cache.insert("zeta#f", "zeta", "{\"p\":1}", "[1]");
    cache.insert("alpha#f", "alpha", "{\"p\":2}", "[2]");
    const std::string text = cache.serialize();

    PlanCache reloaded(8, nullptr);
    reloaded.load(text, "unit test");
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.serialize(), text); // sorted by key, stable

    const std::string path = tempPath("plan_cache_roundtrip.json");
    cache.saveFile(path);
    PlanCache from_disk(8, nullptr);
    EXPECT_TRUE(from_disk.loadFileIfExists(path));
    EXPECT_EQ(from_disk.serialize(), text);
    std::remove(path.c_str());
    PlanCache missing(8, nullptr);
    EXPECT_FALSE(missing.loadFileIfExists(path));
}

TEST(PlanEngineTest, PhaseSequenceIsDeclared)
{
    const std::vector<std::string> names = PlanEngine::phaseNames();
    const std::vector<std::string> want = {
        "phase1-shortlist", "phase2-dataflow-slice", "robust-rerank",
        "recovery-pricing", "pipeline-3d"};
    EXPECT_EQ(names, want);
}

TEST(PlanEngineTest, CacheHitIsByteIdenticalAndComputesOnce)
{
    PlanEngine engine;
    const PlanResult cold = engine.plan(tinyQuery());
    EXPECT_EQ(cold.source, PlanSource::kCold);
    const PlanResult hit = engine.plan(tinyQuery());
    EXPECT_EQ(hit.source, PlanSource::kCacheHit);
    EXPECT_EQ(hit.planJson, cold.planJson);
    EXPECT_EQ(hit.key.full(), cold.key.full());
    EXPECT_EQ(engine.computedCount(), 1);
    EXPECT_EQ(engine.stats().counter("engine/cache/hit"), 1.0);
}

TEST(PlanEngineTest, IncrementalRetuneMatchesColdBitIdentically)
{
    PlanEngine::Options options;
    options.verifyIncremental = true; // panics internally on mismatch
    PlanEngine engine(options);
    const PlanResult cold = engine.plan(tinyQuery(7));
    EXPECT_EQ(cold.source, PlanSource::kCold);
    const PlanResult incremental = engine.plan(tinyQuery(8));
    EXPECT_EQ(incremental.source, PlanSource::kIncremental);
    EXPECT_EQ(
        engine.stats().counter("engine/serve/incremental_verified"), 1.0);

    // Independent cross-check: a fresh engine cold-tunes the variant.
    PlanEngine fresh;
    const PlanResult fresh_cold = fresh.plan(tinyQuery(8));
    EXPECT_EQ(fresh_cold.source, PlanSource::kCold);
    EXPECT_EQ(incremental.planJson, fresh_cold.planJson);
}

TEST(PlanEngineTest, SingleFlightComputesIdenticalQueriesOnce)
{
    ThreadPool::setGlobalThreads(8);
    PlanEngine engine;
    const std::vector<PlanQuery> queries(8, tinyQuery());
    const std::vector<PlanResult> results = engine.planMany(queries);
    ASSERT_EQ(results.size(), queries.size());
    EXPECT_EQ(engine.computedCount(), 1);
    for (const PlanResult &r : results)
        EXPECT_EQ(r.planJson, results[0].planJson);
}

TEST(PlanEngineTest, PlanManyIsThreadCountInvariant)
{
    const std::vector<PlanQuery> queries = {tinyQuery(7), tinyQuery(8),
                                            tinyQuery(7), tinyQuery(9)};
    ThreadPool::setGlobalThreads(1);
    PlanEngine serial;
    const std::vector<PlanResult> a = serial.planMany(queries);
    ThreadPool::setGlobalThreads(8);
    PlanEngine threaded;
    const std::vector<PlanResult> b = threaded.planMany(queries);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].planJson, b[i].planJson) << "query " << i;
}

TEST(PlanEngineTest, WarmStartsFromPersistedCache)
{
    const std::string path = tempPath("plan_engine_warmstart.json");
    std::remove(path.c_str());
    PlanEngine::Options options;
    options.persistPath = path;
    std::string cold_json;
    {
        PlanEngine writer(options);
        cold_json = writer.plan(tinyQuery()).planJson;
        writer.persist();
    }
    PlanEngine reader(options);
    const PlanResult r = reader.plan(tinyQuery());
    EXPECT_EQ(r.source, PlanSource::kCacheHit);
    EXPECT_EQ(r.planJson, cold_json);
    EXPECT_EQ(reader.computedCount(), 0);
    std::remove(path.c_str());
}

TEST(PlanEngineTest, CalibrationMemoizationIsConcurrencySafe)
{
    // The engine calibrates a CostModel per serve; distinct chip
    // configs must calibrate exactly once each no matter how many
    // threads race (run under TSan in the sanitizer CI leg).
    clearCalibrationCache();
    const long before = calibrationRunCount();
    std::vector<ChipConfig> configs(3, tpuV4Config());
    configs[1].syncLatency *= 1.5;
    configs[2].launchOverhead *= 1.5;

    std::vector<std::thread> threads;
    for (int t = 0; t < 16; ++t)
        threads.emplace_back([&configs] {
            for (const ChipConfig &cfg : configs)
                CostModel::calibrated(cfg);
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(calibrationRunCount() - before, 3);
}

// ---------------------------------------------------------------------
// Serve-path inputs the planner cannot plan for exit through `fatal`.

TEST(PlanEngineDeathTest, NoDividingMeshShapeIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const PlanQuery q = planQueryFromJson(
        "{\"model\":\"gpt3\",\"chips\":7}", tpuV4Config(), "q.json");
    EXPECT_EXIT(PlanEngine().plan(q), testing::ExitedWithCode(1),
                "mesh shape of 7 chips divides every FC GeMM of GPT-3");
}

TEST(PlanEngineDeathTest, NoSliceCountFittingHbmIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const PlanQuery q = planQueryFromJson(
        "{\"model\":\"gpt3\",\"chips\":4,\"train\":{\"batch\":4096}}",
        tpuV4Config(), "q.json");
    EXPECT_EXIT(PlanEngine().plan(q), testing::ExitedWithCode(1),
                "no slice count fits GPT-3 .batch 4096.*of 4 chips");
}

TEST(PlanEngineDeathTest, EmptyCachedShortlistIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = tempPath("plan_cache_empty_shortlist.json");
    const PlanKey key = planKeyOf(tinyQuery(7));
    PlanCache cache(8, nullptr);
    cache.insert(key.full(), key.base(), "{}", "[]");
    cache.saveFile(path);
    PlanEngine::Options options;
    options.persistPath = path;
    // The fault-only variant is served incrementally off that entry.
    EXPECT_EXIT(PlanEngine(options).plan(tinyQuery(8)),
                testing::ExitedWithCode(1),
                "PlanCache shortlist [0-9a-f]+: the array is empty");
    std::remove(path.c_str());
}

TEST(PlanEngineDeathTest, ZeroBatchIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Weak scaling gives one chip a batch of 0 sequences.
    const PlanQuery q = planQueryFromJson(
        "{\"model\":\"gpt3\",\"chips\":1}", tpuV4Config(), "q.json");
    EXPECT_EXIT(PlanEngine().plan(q), testing::ExitedWithCode(1),
                "GPT-3 on 1 chips needs a positive batch");
}

} // namespace
} // namespace meshslice
