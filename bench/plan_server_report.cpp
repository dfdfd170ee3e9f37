/**
 * @file
 * Plan-serving throughput report: what does the PlanEngine's
 * content-addressed cache buy over re-tuning every query?
 *
 *  - Query universe: one small transformer served under V fault-profile
 *    variants (same model/cluster/tune base key, different robust
 *    scenario seeds), so the engine exercises cold tunes, incremental
 *    re-tunes (cached shortlist reuse) and exact cache hits.
 *  - Cold leg: a fresh engine serving every variant once, serially and
 *    on 8 pool threads (the compute path: one cold tune plus V-1
 *    incremental re-tunes), each timed as the median of repeated legs.
 *  - Warm leg: the same engines re-serving a zipfian-weighted query
 *    mix (head variants dominate, like a real plan server's repeat
 *    traffic), serially and on 8 pool threads, each timed as the
 *    median of repeated passes over the mix.
 *
 * Emits `BENCH_planserver.json` with the embedded `cross_checks`
 * section `tools/check_json.sh` enforces; its `plans_per_sec_*` keys
 * are gated run-over-run by `tools/bench_diff.py`. Cross-checks:
 * warm hits byte-identical to the cold serve, incremental == cold full
 * tune (engine-level verify plus an independent fresh-engine compare),
 * serving order/thread-count invariance, the >= 5x warm speedup the
 * subsystem promises, and persistence round-trip (a restarted engine
 * serves from the reloaded cache file).
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "engine/plan_engine.hpp"
#include "engine/plan_json.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

using namespace meshslice;

namespace {

/** Variant v of the benchmark universe: same model/cluster/tune base,
 *  fault profile differing only in the robust scenario seed — the
 *  incremental-eligible shape of real re-tune traffic. */
PlanQuery
benchQuery(const BenchArgs &args, int variant)
{
    PlanQuery q;
    q.model.name = "planserver-1b";
    q.model.layers = 4;
    q.model.hiddenDim = 2048;
    q.model.heads = 16;
    q.model.ffnDim = 8192;
    q.chips = args.chips;
    q.train = TrainingConfig::weakScaling(q.chips);
    q.chip = tpuV4Config();
    q.runRobust = true;
    q.robust.topK = 2;
    q.robust.numScenarios = 2;
    q.robust.maxGemmsPerEval = 2;
    q.robust.seed = args.seed + static_cast<std::uint64_t>(variant);
    q.runRecovery = true;
    q.recovery.chipMtbf = args.mtbf > 0.0 ? args.mtbf : 30.0 * 24 * 3600;
    q.recovery.checkpointBytesPerChip = GiB(1.0);
    q.recovery.topK = 2;
    return q;
}

/** Zipf(s=1) weighted mix over the variant universe: variant i drawn
 *  with weight 1/(i+1), so head variants dominate like repeat traffic
 *  against a production plan server. */
std::vector<int>
zipfianMix(int universe, int length, std::uint64_t seed)
{
    std::vector<double> cumulative(static_cast<size_t>(universe));
    double total = 0.0;
    for (int i = 0; i < universe; ++i) {
        total += 1.0 / (i + 1);
        cumulative[static_cast<size_t>(i)] = total;
    }
    std::vector<int> mix;
    mix.reserve(static_cast<size_t>(length));
    std::uint64_t state = seed;
    for (int n = 0; n < length; ++n) {
        const double r = uniform01(state) * total;
        int pick = universe - 1;
        for (int i = 0; i < universe; ++i) {
            if (r < cumulative[static_cast<size_t>(i)]) {
                pick = i;
                break;
            }
        }
        mix.push_back(pick);
    }
    return mix;
}

double
wallSeconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv, 16);
    const int universe = args.smoke ? 3 : 8;
    const int mix_length = args.smoke ? 16 : 64;

    std::vector<PlanQuery> variants;
    for (int v = 0; v < universe; ++v)
        variants.push_back(benchQuery(args, v));
    const std::vector<int> mix = zipfianMix(universe, mix_length,
                                            args.seed * 1000003ULL + 1);
    std::vector<PlanQuery> mix_queries;
    for (int idx : mix)
        mix_queries.push_back(variants[static_cast<size_t>(idx)]);

    // --- Cold leg: fresh engines, every variant computed once. -------
    // An untimed serial leg gives the reference bytes; then serial and
    // 8-thread legs alternate in kTimedRepeats timed repeats, each rate
    // taken from the median repeat, and every leg must serve the
    // reference bytes. The last legs' engines serve the warm leg.
    std::unique_ptr<PlanEngine> cold_engine;
    std::unique_ptr<PlanEngine> cold_engine8;
    std::vector<std::string> cold_json;
    bool cold_legs_identical = true;
    const auto serial_leg = [&] {
        cold_engine = std::make_unique<PlanEngine>();
        std::vector<std::string> served;
        const double wall = wallSeconds([&] {
            for (const PlanQuery &q : variants)
                served.push_back(cold_engine->plan(q).planJson);
        });
        if (cold_engine->computedCount() != universe)
            fatal("plan_server_report: cold leg computed %ld plans, want %d",
                  cold_engine->computedCount(), universe);
        if (cold_json.empty())
            cold_json = served;
        cold_legs_identical = cold_legs_identical && served == cold_json;
        return wall * 1e3;
    };
    const auto threaded_leg = [&] {
        cold_engine8 = std::make_unique<PlanEngine>();
        std::vector<PlanResult> served;
        const double wall = wallSeconds(
            [&] { served = cold_engine8->planMany(variants); });
        cold_legs_identical = cold_legs_identical &&
                              served.size() == cold_json.size();
        for (size_t i = 0; cold_legs_identical && i < served.size(); ++i)
            cold_legs_identical = served[i].planJson == cold_json[i];
        return wall * 1e3;
    };
    ThreadPool::setGlobalThreads(1);
    serial_leg();
    std::vector<double> cold_ms;
    std::vector<double> cold_ms8;
    for (int r = 0; r < kTimedRepeats; ++r) {
        ThreadPool::setGlobalThreads(1);
        cold_ms.push_back(timedRepeatMs(serial_leg));
        ThreadPool::setGlobalThreads(8);
        cold_ms8.push_back(timedRepeatMs(threaded_leg));
    }
    const double plans_per_sec_cold = universe / (medianOf(cold_ms) * 1e-3);
    const double plans_per_sec_cold_threaded =
        universe / (medianOf(cold_ms8) * 1e-3);

    // --- Warm leg: the zipfian mix against the populated caches. -----
    // Serial and 8-thread passes over the mix alternate in
    // kTimedRepeats timed repeats, as the cold legs do, and each rate
    // comes from the median repeat. Every pass must serve the cold
    // bytes, the serial one as cache hits.
    long warm_served = 0;
    bool warm_hit_identical = true;
    bool warm_threaded_identical = true;
    const auto warm_serial_pass = [&] {
        const double wall = wallSeconds([&] {
            for (size_t i = 0; i < mix_queries.size(); ++i) {
                const PlanResult r = cold_engine->plan(mix_queries[i]);
                if (r.source != PlanSource::kCacheHit ||
                    r.planJson !=
                        cold_json[static_cast<size_t>(mix[i])])
                    warm_hit_identical = false;
            }
        });
        warm_served += static_cast<long>(mix_queries.size());
        return wall * 1e3;
    };
    const auto warm_threaded_pass = [&] {
        std::vector<PlanResult> served;
        const double wall = wallSeconds(
            [&] { served = cold_engine8->planMany(mix_queries); });
        warm_threaded_identical = warm_threaded_identical &&
                                  served.size() == mix_queries.size();
        for (size_t i = 0; warm_threaded_identical && i < served.size();
             ++i)
            warm_threaded_identical =
                served[i].planJson == cold_json[static_cast<size_t>(mix[i])];
        return wall * 1e3;
    };
    std::vector<double> warm_ms;
    std::vector<double> warm_ms8;
    for (int r = 0; r < kTimedRepeats; ++r) {
        ThreadPool::setGlobalThreads(1);
        warm_ms.push_back(timedRepeatMs(warm_serial_pass));
        ThreadPool::setGlobalThreads(8);
        warm_ms8.push_back(timedRepeatMs(warm_threaded_pass));
    }
    const double plans_per_sec_warm =
        mix_length / (medianOf(warm_ms) * 1e-3);
    const double plans_per_sec_warm_threaded =
        mix_length / (medianOf(warm_ms8) * 1e-3);
    const bool warm_speedup_5x =
        plans_per_sec_warm >= 5.0 * plans_per_sec_cold;

    // --- Cross-check: incremental re-tune == cold full tune. ---------
    // An engine with verifyIncremental panics on any byte difference
    // between the shortlist-reusing serve and an in-process cold
    // re-run; on top of that, compare against the independent
    // fresh-engine serves from the cold leg.
    ThreadPool::setGlobalThreads(1);
    PlanEngine::Options verify_options;
    verify_options.verifyIncremental = true;
    PlanEngine verify_engine(verify_options);
    bool incremental_equals_full = true;
    for (int v = 0; v < universe; ++v) {
        const PlanResult r = verify_engine.plan(variants[static_cast<size_t>(v)]);
        const PlanSource want =
            v == 0 ? PlanSource::kCold : PlanSource::kIncremental;
        if (r.source != want ||
            r.planJson != cold_json[static_cast<size_t>(v)])
            incremental_equals_full = false;
    }
    if (static_cast<long>(verify_engine.stats().counter(
            "engine/serve/incremental_verified")) != universe - 1)
        incremental_equals_full = false;

    // --- Cross-check: result bytes invariant to serving threads. ----
    const bool thread_invariant =
        cold_legs_identical && warm_threaded_identical;

    // --- Cross-check: persistence round-trip. ------------------------
    const std::string cache_path = "plan_server_cache.json";
    std::remove(cache_path.c_str()); // stale file from a prior run
    PlanEngine::Options persist_options;
    persist_options.persistPath = cache_path;
    bool persist_roundtrip = true;
    {
        PlanEngine writer(persist_options);
        for (const PlanQuery &q : variants)
            writer.plan(q);
        writer.persist();
    }
    {
        PlanEngine reader(persist_options);
        for (int v = 0; v < universe; ++v) {
            const PlanResult r =
                reader.plan(variants[static_cast<size_t>(v)]);
            if (r.source != PlanSource::kCacheHit ||
                r.planJson != cold_json[static_cast<size_t>(v)])
                persist_roundtrip = false;
        }
        if (reader.computedCount() != 0)
            persist_roundtrip = false;
    }

    std::cout << "plan_server_report: universe=" << universe
              << " cold=" << plans_per_sec_cold
              << " warm=" << plans_per_sec_warm << " plans/s (x"
              << plans_per_sec_warm / plans_per_sec_cold << ")\n";

    const std::string out_path =
        args.out.empty() ? "BENCH_planserver.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n  \"chips\": " << args.chips << ",\n";
    json << "  \"universe\": {\"variants\": " << universe
         << ", \"mix_length\": " << mix_length
         << ", \"zipf_exponent\": 1, \"seed\": " << args.seed << "},\n";
    json << "  \"phases\": [";
    const std::vector<std::string> phases = PlanEngine::phaseNames();
    for (size_t i = 0; i < phases.size(); ++i)
        json << (i ? ", " : "") << jsonString(phases[i]);
    json << "],\n";
    json << "  \"serving\": {\n"
         << "    \"plans_per_sec_cold\": " << jsonNumber(plans_per_sec_cold)
         << ",\n    \"plans_per_sec_cold_threaded\": "
         << jsonNumber(plans_per_sec_cold_threaded)
         << ",\n    \"plans_per_sec_warm\": "
         << jsonNumber(plans_per_sec_warm)
         << ",\n    \"plans_per_sec_warm_threaded\": "
         << jsonNumber(plans_per_sec_warm_threaded)
         << ",\n    \"warm_speedup\": "
         << jsonNumber(plans_per_sec_warm / plans_per_sec_cold)
         << ",\n    \"warm_plans_served\": " << warm_served
         << "\n  },\n";
    json << "  \"cache\": {\"hits\": "
         << static_cast<long>(
                cold_engine->stats().counter("engine/cache/hit"))
         << ", \"misses\": "
         << static_cast<long>(
                cold_engine->stats().counter("engine/cache/miss"))
         << ", \"inserts\": "
         << static_cast<long>(
                cold_engine->stats().counter("engine/cache/insert"))
         << ", \"base_hits\": "
         << static_cast<long>(
                cold_engine->stats().counter("engine/cache/base_hit"))
         << ", \"evictions\": "
         << static_cast<long>(
                cold_engine->stats().counter("engine/cache/eviction"))
         << ", \"computed\": " << cold_engine->computedCount() << "},\n";
    json << "  \"cross_checks\": {\n"
         << "    \"warm_hit_identical\": "
         << (warm_hit_identical ? "true" : "false") << ",\n"
         << "    \"incremental_equals_full\": "
         << (incremental_equals_full ? "true" : "false") << ",\n"
         << "    \"thread_invariant\": "
         << (thread_invariant ? "true" : "false") << ",\n"
         << "    \"warm_speedup_5x\": "
         << (warm_speedup_5x ? "true" : "false") << ",\n"
         << "    \"persist_roundtrip\": "
         << (persist_roundtrip ? "true" : "false") << "\n  },\n"
         << "  \"artifacts\": [\"plan_server_cache.json\"]\n}\n";
    json.flush();
    if (!json)
        fatal("plan_server_report: failed writing %s", out_path.c_str());
    std::cout << "wrote " << out_path << ", plan_server_cache.json\n";
    return 0;
}
