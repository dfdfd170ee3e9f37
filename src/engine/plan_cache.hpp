/**
 * @file
 * Content-addressed LRU cache of plans (DESIGN.md §4k).
 *
 * Keys are the exact `PlanKey::full()` fingerprint texts (not hashes —
 * two queries share an entry iff every fingerprinted field is
 * identical). Each entry stores the plan twice — parsed, as an
 * immutable shared `EnginePlan`, and as its canonical JSON — so a hit
 * copies both and parses nothing. It also keeps the phase-1/2
 * shortlist intermediate, which a query with a matching *base* key
 * (model|cluster|tune equal, fault different) reuses on the
 * incremental re-tune path.
 *
 * Persistence is deterministic JSON: the planner stamp, then entries
 * sorted by key, so serialize → load → serialize is byte-identical
 * and a restarted engine warm-starts from disk. Loading parses and
 * validates every plan once; a file saved by another planner loads
 * empty. Counters (hit/miss/eviction/insert/base_hit, plus a size
 * gauge) publish through an optional `StatsRegistry` under
 * `engine/cache/...`.
 *
 * NOT internally synchronized: the `PlanEngine` serializes all access
 * under its own mutex (the cache is also usable directly from
 * single-threaded tests and tools).
 */
#ifndef MESHSLICE_ENGINE_PLAN_CACHE_HPP_
#define MESHSLICE_ENGINE_PLAN_CACHE_HPP_

#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "engine/plan_types.hpp"
#include "sim/stats.hpp"

namespace meshslice {

/**
 * Version of the planner that computed a persisted cache. `PlanKey`
 * fingerprints only a query's inputs, so a file written before a
 * change that moves any served plan byte would keep serving the old
 * plans; a file whose stamp differs loads empty instead. Bump it with
 * every such change (tuner, cost model, simulator or plan format);
 * `PlanCacheTest.PlannerStampPinsTheServedPlans` trips when the plans
 * move without it.
 */
inline constexpr const char *kPlannerStamp = "meshslice-planner-1";

/** LRU map from full plan keys to plans + intermediates. */
class PlanCache
{
  public:
    /** @p capacity > 0 entries; @p stats may be null (no counters). */
    explicit PlanCache(size_t capacity, StatsRegistry *stats = nullptr);

    /**
     * Look @p key up; on a hit copies the stored plan JSON (and the
     * shared parsed plan when @p plan is non-null) and makes the entry
     * most-recently-used. Counts `engine/cache/hit` or `.../miss`.
     */
    bool lookup(const std::string &key, std::string *plan_json,
                std::shared_ptr<const EnginePlan> *plan = nullptr);

    /**
     * Find the most-recently-used entry whose base key equals @p base
     * (any fault profile) and copy its shortlist JSON — the
     * incremental-re-tune warm start. Does not touch recency. Counts
     * `engine/cache/base_hit` on success.
     */
    bool shortlistForBase(const std::string &base,
                          std::string *shortlist_json) const;

    /**
     * Insert (or overwrite) @p key as most-recently-used, evicting the
     * least-recently-used entry when over capacity. @p plan_json must
     * be `enginePlanToJson(*plan)`. Counts `engine/cache/insert` and
     * `engine/cache/eviction`.
     */
    void insert(const std::string &key, const std::string &base,
                std::shared_ptr<const EnginePlan> plan,
                std::string plan_json, std::string shortlist_json);

    size_t size() const { return index_.size(); }
    size_t capacity() const { return capacity_; }

    /**
     * Deterministic persistence document: `kPlannerStamp`, then the
     * entries sorted by full key (recency is an in-memory detail;
     * sorted order makes the file a pure function of the cache
     * *contents*).
     */
    std::string serialize() const;

    /**
     * Replace the contents with @p text (a `serialize()` document).
     * A document whose planner stamp is not `kPlannerStamp` (or that
     * has none) leaves the cache empty, with a warning naming both
     * stamps. Otherwise entries insert in sorted-key order under the
     * cache's own capacity, so loading a larger dump keeps the
     * lexicographically last `capacity()` entries, and each plan is
     * parsed once. Malformed input — a plan that does not parse or is
     * not in canonical form included — is fatal, naming @p context
     * with a byte offset or the entry index.
     */
    void load(const std::string &text, const std::string &context);

    /**
     * `serialize()` into @p path, crash-safely: the document goes to
     * `<path>.tmp` in the same directory, is synced, and is renamed
     * over @p path, so a crash mid-save leaves the previous file
     * loadable. A failed save is fatal, names @p path and leaves the
     * previous file untouched.
     */
    void saveFile(const std::string &path) const;

    /** `load()` from @p path; returns false (untouched cache) when the
     *  file does not exist, fatal on an unreadable or malformed one. */
    bool loadFileIfExists(const std::string &path);

  private:
    struct Entry
    {
        std::string key;
        std::string base;
        std::shared_ptr<const EnginePlan> plan;
        std::string planJson;
        std::string shortlistJson;
    };

    void count(const char *name) const;

    size_t capacity_;
    StatsRegistry *stats_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

} // namespace meshslice

#endif // MESHSLICE_ENGINE_PLAN_CACHE_HPP_
