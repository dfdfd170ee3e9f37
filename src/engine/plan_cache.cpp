#include "engine/plan_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "engine/plan_json.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace meshslice {

PlanCache::PlanCache(size_t capacity, StatsRegistry *stats)
    : capacity_(capacity), stats_(stats)
{
    if (capacity_ == 0)
        fatal("PlanCache: capacity must be positive");
}

void
PlanCache::count(const char *name) const
{
    if (stats_ != nullptr)
        stats_->add(std::string("engine/cache/") + name, 1.0);
}

bool
PlanCache::lookup(const std::string &key, std::string *plan_json,
                  std::shared_ptr<const EnginePlan> *plan)
{
    auto it = index_.find(key);
    if (it == index_.end()) {
        count("miss");
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    if (plan_json != nullptr)
        *plan_json = lru_.front().planJson;
    if (plan != nullptr)
        *plan = lru_.front().plan;
    count("hit");
    return true;
}

bool
PlanCache::shortlistForBase(const std::string &base,
                            std::string *shortlist_json) const
{
    for (const Entry &e : lru_) {
        if (e.base != base)
            continue;
        if (shortlist_json != nullptr)
            *shortlist_json = e.shortlistJson;
        count("base_hit");
        return true;
    }
    return false;
}

void
PlanCache::insert(const std::string &key, const std::string &base,
                  std::shared_ptr<const EnginePlan> plan,
                  std::string plan_json, std::string shortlist_json)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        lru_.front().base = base;
        lru_.front().plan = std::move(plan);
        lru_.front().planJson = std::move(plan_json);
        lru_.front().shortlistJson = std::move(shortlist_json);
    } else {
        lru_.push_front(Entry{key, base, std::move(plan),
                              std::move(plan_json),
                              std::move(shortlist_json)});
        index_[key] = lru_.begin();
        count("insert");
        while (index_.size() > capacity_) {
            index_.erase(lru_.back().key);
            lru_.pop_back();
            count("eviction");
        }
    }
    if (stats_ != nullptr)
        stats_->set("engine/cache/size",
                    static_cast<double>(index_.size()));
}

std::string
PlanCache::serialize() const
{
    std::vector<const Entry *> sorted;
    sorted.reserve(lru_.size());
    for (const Entry &e : lru_)
        sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) { return a->key < b->key; });
    std::string out;
    out += "{\n  \"planner\": ";
    out += jsonString(kPlannerStamp);
    out += ",\n  \"entries\": [";
    for (size_t i = 0; i < sorted.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"key\": ";
        out += jsonString(sorted[i]->key);
        out += ", \"base\": ";
        out += jsonString(sorted[i]->base);
        out += ", \"plan\": ";
        out += jsonString(sorted[i]->planJson);
        out += ", \"shortlist\": ";
        out += jsonString(sorted[i]->shortlistJson);
        out += "}";
    }
    out += sorted.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void
PlanCache::load(const std::string &text, const std::string &context)
{
    const JsonValue root = parseJson(text, "PlanCache", context);
    if (root.kind != JsonValue::kObject)
        fatal("PlanCache: %s: top-level value must be an object",
              context.c_str());
    lru_.clear();
    index_.clear();
    // Plans from another planner are stale whatever their keys say:
    // start empty, so every query is computed afresh.
    const JsonValue *stamp = root.find("planner");
    if (stamp != nullptr && stamp->kind != JsonValue::kString)
        fatal("PlanCache: %s: \"planner\" must be a string",
              context.c_str());
    if (stamp == nullptr || stamp->str != kPlannerStamp) {
        warn("PlanCache: %s: saved by planner %s, this is planner "
             "\"%s\"; starting with an empty cache", context.c_str(),
             stamp == nullptr ? "(no stamp)"
                              : jsonString(stamp->str).c_str(),
             kPlannerStamp);
        return;
    }
    const JsonValue *entries = root.find("entries");
    if (entries == nullptr || entries->kind != JsonValue::kArray)
        fatal("PlanCache: %s: missing \"entries\" array",
              context.c_str());
    for (size_t i = 0; i < entries->arr.size(); ++i) {
        const JsonValue &e = entries->arr[i];
        if (e.kind != JsonValue::kObject)
            fatal("PlanCache: %s: entry %zu must be an object",
                  context.c_str(), i);
        const JsonValue *key = e.find("key");
        const JsonValue *base = e.find("base");
        const JsonValue *plan = e.find("plan");
        const JsonValue *shortlist = e.find("shortlist");
        if (key == nullptr || key->kind != JsonValue::kString ||
            base == nullptr || base->kind != JsonValue::kString ||
            plan == nullptr || plan->kind != JsonValue::kString ||
            shortlist == nullptr ||
            shortlist->kind != JsonValue::kString)
            fatal("PlanCache: %s: entry %zu needs string "
                  "key/base/plan/shortlist", context.c_str(), i);
        const std::string where =
            strprintf("PlanCache %s entry %zu", context.c_str(), i);
        auto parsed =
            std::make_shared<const EnginePlan>(enginePlanFromJson(
                plan->str, where));
        if (enginePlanToJson(*parsed) != plan->str)
            fatal("%s: the plan is not in the canonical form "
                  "enginePlanToJson writes", where.c_str());
        insert(key->str, base->str, std::move(parsed), plan->str,
               shortlist->str);
    }
}

void
PlanCache::saveFile(const std::string &path) const
{
    // Write a sibling temp file, sync it, and rename it over the
    // target: the rename is atomic, so a crash at any point leaves
    // either the old file or the complete new one.
    const std::string tmp = path + ".tmp";
    const std::string text = serialize();
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr)
        fatal("PlanCache: failed writing %s: cannot create %s",
              path.c_str(), tmp.c_str());
    const bool written =
        std::fwrite(text.data(), 1, text.size(), out) == text.size() &&
        std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
    if (std::fclose(out) != 0 || !written) {
        std::remove(tmp.c_str());
        fatal("PlanCache: failed writing %s", path.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("PlanCache: failed writing %s: cannot rename %s over it",
              path.c_str(), tmp.c_str());
    }
}

bool
PlanCache::loadFileIfExists(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        fatal("PlanCache: failed reading %s", path.c_str());
    load(buf.str(), path);
    return true;
}

} // namespace meshslice
