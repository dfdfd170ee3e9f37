/**
 * @file
 * PlanEngine: the concurrent plan-serving facade (DESIGN.md §4k).
 *
 * Every served plan comes from one declared phase sequence —
 * phase1-shortlist → phase2-dataflow-slice → robust-rerank →
 * recovery-pricing → pipeline-3d — run in that order by one function
 * over the `LlmAutotuner` / robust / recovery / pipeline entry points.
 * Each enabled phase may override the 2D TP pick of the ones before
 * it; `EnginePlan::pickedBy` names the last.
 *
 * Serving semantics:
 *  - **Content-addressed cache**: results are stored under the exact
 *    `PlanKey` fingerprint; a repeated query is a lookup, not a tune.
 *  - **Single-flight**: two identical queries in flight compute once;
 *    the second blocks on the first and returns the cached plan
 *    (`kCoalesced`).
 *  - **Incremental re-tune**: a query whose key differs from a cached
 *    entry only in the fault component reuses that entry's phase-1/2
 *    shortlist and re-runs only the fault-aware phases — bit-identical
 *    to a cold full tune because the shortlist itself is deterministic
 *    (optionally verified per serve via `Options::verifyIncremental`).
 *  - **Concurrency**: `planMany` fans queries out on the global
 *    `util/parallel` pool; per-query results are bit-identical for any
 *    `MESHSLICE_THREADS`, only the cold/coalesced attribution varies.
 */
#ifndef MESHSLICE_ENGINE_PLAN_ENGINE_HPP_
#define MESHSLICE_ENGINE_PLAN_ENGINE_HPP_

#include <condition_variable>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/plan_cache.hpp"
#include "engine/plan_types.hpp"

namespace meshslice {

/** How a served plan was obtained. */
enum class PlanSource
{
    kCold,        ///< full phase sequence ran
    kCacheHit,    ///< exact key already cached
    kCoalesced,   ///< waited on an identical in-flight query
    kIncremental, ///< fault-only delta; reused the cached shortlist
};

const char *planSourceName(PlanSource source);

/** One served plan. */
struct PlanResult
{
    EnginePlan plan;
    /** The canonical serialized plan (`enginePlanToJson`); cache hits
     *  and incremental serves are byte-identical to the cold serve. */
    std::string planJson;
    PlanKey key;
    PlanSource source = PlanSource::kCold;
};

/** The long-running plan-serving subsystem. */
class PlanEngine
{
  public:
    struct Options
    {
        /** LRU capacity of the plan cache. */
        size_t cacheCapacity = 64;
        /**
         * Warm-start/persistence file: loaded (if present) at
         * construction, written by `persist()`. Empty = in-memory only.
         */
        std::string persistPath;
        /**
         * Cross-check every incremental serve against a cold full tune
         * and `panic` on any byte difference (the acceptance guarantee,
         * paid for by doubling incremental work — benches and tests).
         */
        bool verifyIncremental = false;
    };

    explicit PlanEngine(Options options);
    PlanEngine(); ///< default options

    /** Serve one query (thread-safe; callable from pool tasks). */
    PlanResult plan(const PlanQuery &query);

    /**
     * Serve a batch concurrently on the global thread pool. Results
     * are returned in input order, and every result's `planJson` is
     * bit-identical to serving the same list serially.
     */
    std::vector<PlanResult> planMany(const std::vector<PlanQuery> &queries);

    /** The declared phase sequence, in execution order. */
    static std::vector<std::string> phaseNames();

    /** Write the cache to `Options::persistPath` (fatal if empty). */
    void persist() const;

    /** Hit/miss/eviction and serve counters (`engine/...`). */
    const StatsRegistry &stats() const { return stats_; }

    /** Serves that actually ran the phases (cold+incremental). */
    long computedCount() const;

  private:
    /**
     * Run the enabled phases of @p query in declared order. A
     * non-empty @p shortlist is the cached phase-1/2 output of an
     * incremental serve and skips phase1-shortlist; an empty one is
     * filled by it.
     */
    EnginePlan runPhases(const PlanQuery &query,
                         std::vector<AutotuneResult> &shortlist);

    Options options_;
    StatsRegistry stats_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    PlanCache cache_;
    std::unordered_set<std::string> inflight_;
};

} // namespace meshslice

#endif // MESHSLICE_ENGINE_PLAN_ENGINE_HPP_
