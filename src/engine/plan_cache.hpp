/**
 * @file
 * Content-addressed LRU cache of serialized plans (DESIGN.md §4k).
 *
 * Keys are the exact `PlanKey::full()` fingerprint texts (not hashes —
 * two queries share an entry iff every fingerprinted field is
 * identical). Each entry stores the canonical serialized plan plus the
 * phase-1/2 shortlist intermediate; the latter is what a query with a
 * matching *base* key (model|cluster|tune equal, fault different)
 * reuses on the incremental re-tune path.
 *
 * Persistence is deterministic JSON: entries sorted by key, so
 * serialize → load → serialize is byte-identical and a restarted
 * engine warm-starts from disk. Counters (hit/miss/eviction/insert/
 * base_hit, plus a size gauge) publish through an optional
 * `StatsRegistry` under `engine/cache/...`.
 *
 * NOT internally synchronized: the `PlanEngine` serializes all access
 * under its own mutex (the cache is also usable directly from
 * single-threaded tests and tools).
 */
#ifndef MESHSLICE_ENGINE_PLAN_CACHE_HPP_
#define MESHSLICE_ENGINE_PLAN_CACHE_HPP_

#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>

#include "sim/stats.hpp"

namespace meshslice {

/** LRU map from full plan keys to serialized plans + intermediates. */
class PlanCache
{
  public:
    /** @p capacity > 0 entries; @p stats may be null (no counters). */
    explicit PlanCache(size_t capacity, StatsRegistry *stats = nullptr);

    /**
     * Look @p key up; on a hit copies the stored plan JSON (and the
     * shortlist JSON when @p shortlist_json is non-null) and makes the
     * entry most-recently-used. Counts `engine/cache/hit` or `.../miss`.
     */
    bool lookup(const std::string &key, std::string *plan_json,
                std::string *shortlist_json = nullptr);

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
     * least-recently-used entry when over capacity. Counts
     * `engine/cache/insert` and `engine/cache/eviction`.
     */
    void insert(const std::string &key, const std::string &base,
                std::string plan_json, std::string shortlist_json);

    size_t size() const { return index_.size(); }
    size_t capacity() const { return capacity_; }

    /**
     * Deterministic persistence document: entries sorted by full key
     * (recency is an in-memory detail; sorted order makes the file a
     * pure function of the cache *contents*).
     */
    std::string serialize() const;

    /**
     * Replace the contents with @p text (a `serialize()` document).
     * Entries insert in sorted-key order under the cache's own
     * capacity, so loading a larger dump keeps the lexicographically
     * last `capacity()` entries. Malformed input is fatal with a byte
     * offset into @p context.
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
