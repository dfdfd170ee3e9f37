/**
 * @file
 * PlanEngine subsystem tests: content-addressed key stability and
 * sensitivity, deterministic plan JSON round-trips, LRU cache
 * behavior and persistence, cache-hit / single-flight / incremental
 * serving identity, thread invariance, the concurrency safety of
 * the comm-calibration memoization the engine hammers, the robust
 * re-rank's simulator-run counters, crash-safe cache saves, the
 * planner stamp of persisted caches, and `fatal` exits for serve-path
 * inputs the planner cannot plan for.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/plan_cache.hpp"
#include "engine/plan_engine.hpp"
#include "engine/plan_json.hpp"
#include "tuner/cost_model.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path) << text;
}

/** A hand-built plan tagged by its mesh shape, parsed and as JSON —
 *  the two forms a cache entry holds. */
struct CachedTestPlan
{
    std::shared_ptr<const EnginePlan> plan;
    std::string json;
};

CachedTestPlan
testPlan(int rows)
{
    EnginePlan plan;
    plan.cluster.tpRows = plan.tp.rows = rows;
    plan.cluster.tpCols = plan.tp.cols = 1;
    plan.pickedBy = "test";
    return {std::make_shared<const EnginePlan>(plan),
            enginePlanToJson(plan)};
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

TEST(PlanJsonDeathTest, ModelSizesArePositiveAndHeadsDivideHiddenDim)
{
    const auto parse = [](const char *sizes) {
        return planQueryFromJson(
            strprintf("{\"model\": {\"name\": \"m\", %s}}", sizes),
            tpuV4Config(), "q.json");
    };
    EXPECT_EQ(parse("\"layers\": 2, \"hiddenDim\": 1024, \"heads\": 8, "
                    "\"ffnDim\": 4096")
                  .model.headDim(),
              128);
    EXPECT_EXIT(parse("\"layers\": 2, \"hiddenDim\": 1024, \"heads\": 0, "
                      "\"ffnDim\": 4096"),
                testing::ExitedWithCode(1),
                "q.json: \"model.heads\" must be positive \\(got 0\\)");
    EXPECT_EXIT(parse("\"layers\": 0, \"hiddenDim\": 1024, \"heads\": 8, "
                      "\"ffnDim\": 4096"),
                testing::ExitedWithCode(1),
                "q.json: \"model.layers\" must be positive \\(got 0\\)");
    EXPECT_EXIT(parse("\"layers\": 2, \"hiddenDim\": 1024, \"heads\": -4, "
                      "\"ffnDim\": 4096"),
                testing::ExitedWithCode(1),
                "q.json: \"model.heads\" must be positive \\(got -4\\)");
    EXPECT_EXIT(parse("\"layers\": 2, \"hiddenDim\": 0, \"heads\": 8, "
                      "\"ffnDim\": 4096"),
                testing::ExitedWithCode(1),
                "\"model.hiddenDim\" must be positive");
    EXPECT_EXIT(parse("\"layers\": 2, \"hiddenDim\": 1024, \"heads\": 8, "
                      "\"ffnDim\": -1"),
                testing::ExitedWithCode(1),
                "\"model.ffnDim\" must be positive");
    EXPECT_EXIT(parse("\"layers\": 2, \"hiddenDim\": 1024, \"heads\": 8, "
                      "\"ffnDim\": 4096, \"vocab\": 0"),
                testing::ExitedWithCode(1), "\"model.vocab\" must be positive");
    EXPECT_EXIT(parse("\"layers\": 2, \"hiddenDim\": 1000, \"heads\": 3, "
                      "\"ffnDim\": 4096"),
                testing::ExitedWithCode(1),
                "q.json: \"model.heads\" \\(3\\) must divide "
                "\"model.hiddenDim\" \\(1000\\)");
}

TEST(PlanCacheTest, LruEvictionAndCounters)
{
    StatsRegistry stats;
    stats.enable(true);
    PlanCache cache(2, &stats);
    const CachedTestPlan plan_a = testPlan(1), plan_b = testPlan(2),
                         plan_c = testPlan(3);
    cache.insert("a#f1", "a", plan_a.plan, plan_a.json, "shortA");
    cache.insert("b#f1", "b", plan_b.plan, plan_b.json, "shortB");

    std::string out;
    std::shared_ptr<const EnginePlan> parsed;
    EXPECT_TRUE(cache.lookup("a#f1", &out, &parsed)); // b is now LRU
    EXPECT_EQ(out, plan_a.json);
    EXPECT_EQ(parsed, plan_a.plan); // shared, not re-parsed
    cache.insert("c#f1", "c", plan_c.plan, plan_c.json, "shortC");
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

TEST(PlanCacheTest, FileFromAnotherPlannerLoadsEmpty)
{
    PlanCache cache(8, nullptr);
    const CachedTestPlan plan = testPlan(1);
    cache.insert("alpha#f", "alpha", plan.plan, plan.json, "[1]");
    const std::string text = cache.serialize();
    const std::string stamp_line =
        "\n  \"planner\": " + jsonString(kPlannerStamp) + ",";
    const size_t at = text.find(stamp_line);
    ASSERT_NE(at, std::string::npos);

    // Another planner's stamp, and the format from before the stamp.
    std::string other = text;
    other.replace(at, stamp_line.size(),
                  "\n  \"planner\": \"meshslice-planner-0\",");
    std::string unstamped = text;
    unstamped.erase(at, stamp_line.size());
    const std::pair<std::string, const char *> stale[] = {
        {other, "\"meshslice-planner-0\""}, {unstamped, "(no stamp)"}};
    for (const auto &[doc, saved_by] : stale) {
        PlanCache reloaded(8, nullptr);
        reloaded.insert("beta#f", "beta", plan.plan, plan.json, "[2]");
        testing::internal::CaptureStderr();
        reloaded.load(doc, "stale.json");
        const std::string warning = testing::internal::GetCapturedStderr();
        EXPECT_EQ(reloaded.size(), 0u) << saved_by;
        EXPECT_NE(warning.find("stale.json"), std::string::npos) << warning;
        EXPECT_NE(warning.find(saved_by), std::string::npos) << warning;
        EXPECT_NE(warning.find(kPlannerStamp), std::string::npos) << warning;
    }
}

TEST(PlanCacheTest, PlannerStampPinsTheServedPlans)
{
    // Tripwire: the digest of tinyQuery()'s cold plan, recorded under
    // the planner stamp that computed it.
    constexpr const char *kRecordedStamp = "meshslice-planner-1";
    constexpr const char *kRecordedDigest = "248c30d29d08e2c4";
    ASSERT_STREQ(kPlannerStamp, kRecordedStamp)
        << "kPlannerStamp was bumped: re-record kRecordedStamp and "
           "kRecordedDigest here";
    EXPECT_EQ(fnv1a64Hex(PlanEngine().plan(tinyQuery()).planJson),
              kRecordedDigest)
        << "The served plans changed, so caches persisted by the "
           "previous planner are stale: bump kPlannerStamp in "
           "src/engine/plan_cache.hpp, then re-record kRecordedStamp "
           "and kRecordedDigest here";
}

TEST(PlanCacheTest, PersistenceRoundTripIsByteIdentical)
{
    PlanCache cache(8, nullptr);
    const CachedTestPlan plan1 = testPlan(1), plan2 = testPlan(2);
    cache.insert("zeta#f", "zeta", plan1.plan, plan1.json, "[1]");
    cache.insert("alpha#f", "alpha", plan2.plan, plan2.json, "[2]");
    const std::string text = cache.serialize();

    PlanCache reloaded(8, nullptr);
    reloaded.load(text, "unit test");
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.serialize(), text); // sorted by key, stable
    // Loading parses each plan once, into the entry.
    std::string json;
    std::shared_ptr<const EnginePlan> parsed;
    ASSERT_TRUE(reloaded.lookup("zeta#f", &json, &parsed));
    EXPECT_EQ(json, plan1.json);
    EXPECT_EQ(enginePlanToJson(*parsed), plan1.json);

    const std::string path = tempPath("plan_cache_roundtrip.json");
    cache.saveFile(path);
    PlanCache from_disk(8, nullptr);
    EXPECT_TRUE(from_disk.loadFileIfExists(path));
    EXPECT_EQ(from_disk.serialize(), text);
    std::remove(path.c_str());
    PlanCache missing(8, nullptr);
    EXPECT_FALSE(missing.loadFileIfExists(path));
}

TEST(PlanCacheDeathTest, FailedSaveLeavesThePreviousFileLoadable)
{
    const std::string path = tempPath("plan_cache_crash_safe.json");
    const std::string tmp = path + ".tmp";
    std::filesystem::remove(tmp);
    PlanCache cache(8, nullptr);
    const CachedTestPlan plan1 = testPlan(1), plan2 = testPlan(2);
    cache.insert("alpha#f", "alpha", plan1.plan, plan1.json, "[1]");
    cache.saveFile(path);
    const std::string saved = cache.serialize();
    EXPECT_FALSE(std::filesystem::exists(tmp)); // renamed over path

    // A directory in the temp file's place makes the next save fail
    // before it could touch the saved file.
    ASSERT_TRUE(std::filesystem::create_directory(tmp));
    cache.insert("beta#f", "beta", plan2.plan, plan2.json, "[2]");
    EXPECT_EXIT(cache.saveFile(path), testing::ExitedWithCode(1),
                "PlanCache: failed writing .*plan_cache_crash_safe\\.json");

    PlanCache reloaded(8, nullptr);
    EXPECT_TRUE(reloaded.loadFileIfExists(path));
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(reloaded.serialize(), saved);
    std::filesystem::remove(tmp);
    std::remove(path.c_str());
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
    EXPECT_EQ(enginePlanToJson(hit.plan), cold.planJson);
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
    for (const PlanResult &r : results) {
        EXPECT_EQ(r.planJson, results[0].planJson);
        EXPECT_EQ(enginePlanToJson(r.plan), results[0].planJson)
            << planSourceName(r.source);
    }
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
    EXPECT_EQ(enginePlanToJson(r.plan), cold_json);
    EXPECT_EQ(reader.computedCount(), 0);
    std::remove(path.c_str());
}

TEST(PlanEngineTest, CacheFromAnotherPlannerIsRecomputedCold)
{
    const std::string path = tempPath("plan_engine_stale_stamp.json");
    std::remove(path.c_str());
    PlanEngine::Options options;
    options.persistPath = path;
    std::string cold_json;
    {
        PlanEngine writer(options);
        cold_json = writer.plan(tinyQuery()).planJson;
        writer.persist();
    }
    std::string text = readFile(path);
    const std::string stamp = jsonString(kPlannerStamp);
    ASSERT_NE(text.find(stamp), std::string::npos);
    text.replace(text.find(stamp), stamp.size(), "\"meshslice-planner-0\"");
    writeFile(path, text);
    {
        PlanEngine reader(options);
        const PlanResult r = reader.plan(tinyQuery());
        EXPECT_EQ(r.source, PlanSource::kCold);
        EXPECT_EQ(r.planJson, cold_json);
        EXPECT_EQ(reader.computedCount(), 1);
        reader.persist(); // rewrites the file under this planner
    }
    EXPECT_NE(readFile(path).find(stamp), std::string::npos);
    PlanEngine restarted(options);
    EXPECT_EQ(restarted.plan(tinyQuery()).source, PlanSource::kCacheHit);
    std::remove(path.c_str());
}

TEST(PlanEngineTest, RobustRerankCountsItsSimulatorRuns)
{
    // The shape of a cold GPT-3 plan's re-rank: 3 candidates x 4
    // scenarios x all 12 GeMMs, of which 9 specs per candidate are
    // distinct (FFN2 repeats FFN1's three GeMMs).
    PlanQuery q = tinyQuery();
    q.robust.topK = 3;
    q.robust.numScenarios = 4;
    q.robust.maxGemmsPerEval = 0;
    PlanEngine engine;
    EXPECT_EQ(engine.plan(q).source, PlanSource::kCold);
    const StatsRegistry &stats = engine.stats();
    EXPECT_EQ(stats.counter("engine/phase/robust-rerank/runs"), 1.0);
    EXPECT_EQ(stats.counter("engine/phase/robust-rerank/simulations"),
              108.0);
    EXPECT_EQ(stats.counter("engine/phase/robust-rerank/gemm_evals"),
              144.0);

    // A cache hit runs nothing.
    EXPECT_EQ(engine.plan(q).source, PlanSource::kCacheHit);
    EXPECT_EQ(stats.counter("engine/phase/robust-rerank/simulations"),
              108.0);
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
    const PlanQuery q = planQueryFromJson(
        "{\"model\":\"gpt3\",\"chips\":7}", tpuV4Config(), "q.json");
    EXPECT_EXIT(PlanEngine().plan(q), testing::ExitedWithCode(1),
                "mesh shape of 7 chips divides every FC GeMM of GPT-3");
}

TEST(PlanEngineDeathTest, NoSliceCountFittingHbmIsFatal)
{
    const PlanQuery q = planQueryFromJson(
        "{\"model\":\"gpt3\",\"chips\":4,\"train\":{\"batch\":4096}}",
        tpuV4Config(), "q.json");
    EXPECT_EXIT(PlanEngine().plan(q), testing::ExitedWithCode(1),
                "no slice count fits GPT-3 .batch 4096.*of 4 chips");
}

TEST(PlanEngineDeathTest, EmptyCachedShortlistIsFatal)
{
    const std::string path = tempPath("plan_cache_empty_shortlist.json");
    const PlanKey key = planKeyOf(tinyQuery(7));
    PlanCache cache(8, nullptr);
    const CachedTestPlan plan = testPlan(2);
    cache.insert(key.full(), key.base(), plan.plan, plan.json, "[]");
    cache.saveFile(path);
    PlanEngine::Options options;
    options.persistPath = path;
    // The fault-only variant is served incrementally off that entry.
    EXPECT_EXIT(PlanEngine(options).plan(tinyQuery(8)),
                testing::ExitedWithCode(1),
                "PlanCache shortlist [0-9a-f]+: the array is empty");
    std::remove(path.c_str());
}

TEST(PlanEngineDeathTest, CorruptPersistedPlanIsFatalAtConstruction)
{
    const std::string path = tempPath("plan_cache_corrupt_plan.json");
    PlanCache cache(8, nullptr);
    const CachedTestPlan plan_a = testPlan(1), plan_b = testPlan(2);
    cache.insert("a#f", "a", plan_a.plan, plan_a.json, "[]");
    cache.insert("b#f", "b", plan_b.plan, plan_b.json, "[]");
    const std::string text = cache.serialize();
    const auto with_plan = [&text](const std::string &plan,
                                   const std::string &replacement) {
        std::string out = text;
        const std::string quoted = jsonString(plan);
        out.replace(out.find(quoted), quoted.size(),
                    jsonString(replacement));
        return out;
    };
    PlanEngine::Options options;
    options.persistPath = path;

    // Entry 1 ("b#f" sorts second) holds a truncated plan.
    writeFile(path, with_plan(plan_b.json, plan_b.json.substr(0, 20)));
    EXPECT_EXIT(PlanEngine{options}, testing::ExitedWithCode(1),
                "PlanCache .*plan_cache_corrupt_plan\\.json entry 1");
    // A plan that parses but is not what enginePlanToJson writes would
    // be served as bytes no planner produced.
    writeFile(path, with_plan(plan_a.json, " " + plan_a.json));
    EXPECT_EXIT(PlanEngine{options}, testing::ExitedWithCode(1),
                "plan_cache_corrupt_plan\\.json entry 0: the plan is not "
                "in the canonical form");
    std::remove(path.c_str());
}

TEST(PlanEngineDeathTest, ZeroBatchIsFatal)
{
    // Weak scaling gives one chip a batch of 0 sequences.
    const PlanQuery q = planQueryFromJson(
        "{\"model\":\"gpt3\",\"chips\":1}", tpuV4Config(), "q.json");
    EXPECT_EXIT(PlanEngine().plan(q), testing::ExitedWithCode(1),
                "GPT-3 on 1 chips needs a positive batch");
}

} // namespace
} // namespace meshslice
