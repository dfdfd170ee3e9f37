#include "sim/fault.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace meshslice {

namespace {

double
requireNumber(const JsonValue &obj, const char *key, double fallback,
              const std::string &ctx)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (v->kind != JsonValue::kNumber)
        fatal("FaultScenario: key \"%s\" must be a number in %s", key,
              ctx.c_str());
    return v->number;
}

std::string
requireString(const JsonValue &obj, const char *key, const std::string &ctx)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::kString)
        fatal("FaultScenario: key \"%s\" must be a string in %s", key,
              ctx.c_str());
    return v->str;
}

void
rejectUnknownKeys(const JsonValue &obj, std::initializer_list<const char *>
                  known, const char *what, const std::string &ctx)
{
    for (const auto &[key, value] : obj.obj) {
        bool found = false;
        for (const char *k : known)
            if (key == k)
                found = true;
        if (!found)
            fatal("FaultScenario: unknown key \"%s\" in %s of %s "
                  "(typo in the scenario file?)",
                  key.c_str(), what, ctx.c_str());
    }
}

void
validateWindow(double factor, Time start, Time duration, const char *what,
               const std::string &who)
{
    if (!(factor >= 0.0 && factor <= 1.0))
        fatal("FaultScenario: %s %s has factor %g outside [0, 1]", what,
              who.c_str(), factor);
    if (!(start >= 0.0) || !std::isfinite(start))
        fatal("FaultScenario: %s %s has negative or non-finite start %g s",
              what, who.c_str(), start);
    if (std::isnan(duration))
        fatal("FaultScenario: %s %s has NaN duration", what, who.c_str());
}

} // namespace

void
validateScenario(const FaultScenario &scenario, const std::string &context)
{
    if (scenario.detectionLatency < 0.0 ||
        !std::isfinite(scenario.detectionLatency))
        fatal("FaultScenario: \"detection_latency_s\" must be finite and "
              ">= 0 in %s (got %g)", context.c_str(),
              scenario.detectionLatency);
    // Two kills can hit the same resource only when one pattern
    // contains the other (substring matching). For such a pair the
    // later kill is meaningless at best: either the resource was dead
    // long enough that the runtime already noticed (a "second kill of
    // a corpse"), or the second kill lands inside the first one's
    // detection window, which would make detection-latency accounting
    // ambiguous. Both are scenario bugs worth failing loudly on.
    for (size_t i = 0; i < scenario.kills.size(); ++i) {
        for (size_t j = 0; j < scenario.kills.size(); ++j) {
            if (i == j)
                continue;
            const KillFault &first = scenario.kills[i];
            const KillFault &second = scenario.kills[j];
            const bool patterns_collide =
                first.pattern.find(second.pattern) != std::string::npos ||
                second.pattern.find(first.pattern) != std::string::npos;
            if (!patterns_collide)
                continue;
            // Break the symmetric pair deterministically: report with
            // `first` as the earlier kill (ties by index).
            if (second.at < first.at ||
                (second.at == first.at && j < i))
                continue;
            if (second.at < first.at + scenario.detectionLatency)
                fatal("FaultScenario: kill #%zu (pattern \"%s\", at %g s) "
                      "lies inside kill #%zu's detection window "
                      "[%g s, %g s) on the same resource in %s — a "
                      "failure cannot be re-detected while the first "
                      "detection is still in flight",
                      j, second.pattern.c_str(), second.at, i, first.at,
                      first.at + scenario.detectionLatency,
                      context.c_str());
            fatal("FaultScenario: kill #%zu (pattern \"%s\", at %g s) "
                  "kills a resource kill #%zu (pattern \"%s\", at %g s) "
                  "already took down in %s — a fail-stop resource dies "
                  "exactly once",
                  j, second.pattern.c_str(), second.at, i,
                  first.pattern.c_str(), first.at, context.c_str());
        }
    }
}

std::uint64_t
derivePhaseSeed(std::uint64_t seed, std::uint64_t phase)
{
    // Decorrelate (seed, phase) pairs with one splitmix64 mix; the
    // golden-ratio stride keeps phase 0 distinct from the raw seed.
    std::uint64_t state = seed + (phase + 1) * 0x9e3779b97f4a7c15ULL;
    return splitmix64(state);
}

namespace {

/** Shift one window by -start; false = fully elapsed, drop it. */
bool
sliceWindow(Time start, Time &w_start, Time &w_duration)
{
    if (w_start >= start) {
        w_start -= start;
        return true;
    }
    if (w_duration < 0.0) { // persists to end of run
        w_start = 0.0;
        return true;
    }
    const Time remaining = w_start + w_duration - start;
    if (remaining <= 0.0)
        return false;
    w_start = 0.0;
    w_duration = remaining;
    return true;
}

} // namespace

FaultScenario
sliceScenarioForPhase(const FaultScenario &scenario, Time start,
                      std::uint64_t phase_seed)
{
    if (!(start >= 0.0) || !std::isfinite(start))
        fatal("sliceScenarioForPhase: phase start %g must be finite and "
              ">= 0", start);
    FaultScenario out;
    out.seed = phase_seed;
    out.maxLaunchJitter = scenario.maxLaunchJitter;
    out.detectionLatency = scenario.detectionLatency;
    for (CapacityFault f : scenario.faults)
        if (sliceWindow(start, f.start, f.duration))
            out.faults.push_back(std::move(f));
    for (StragglerFault s : scenario.stragglers)
        if (sliceWindow(start, s.start, s.duration))
            out.stragglers.push_back(s);
    for (KillFault k : scenario.kills) {
        // A kill is permanent: one that predates the phase is still in
        // effect, so it becomes a kill at local t=0.
        k.at = std::max(0.0, k.at - start);
        out.kills.push_back(std::move(k));
    }
    return out;
}

FaultScenario
remapScenarioChips(const FaultScenario &scenario,
                   const std::vector<int> &old_to_new)
{
    if (!scenario.kills.empty())
        fatal("remapScenarioChips: %zu kill(s) remain in the scenario — "
              "the elastic runtime consumes the kill before remapping "
              "onto the survivor mesh", scenario.kills.size());
    // "chip<i>." prefix -> old chip id, or -1 for non-chip patterns.
    auto chip_of = [](const std::string &pattern) -> int {
        if (pattern.rfind("chip", 0) != 0)
            return -1;
        size_t pos = 4;
        if (pos >= pattern.size() ||
            !std::isdigit(static_cast<unsigned char>(pattern[pos])))
            return -1;
        int chip = 0;
        while (pos < pattern.size() &&
               std::isdigit(static_cast<unsigned char>(pattern[pos])))
            chip = chip * 10 + (pattern[pos++] - '0');
        return chip;
    };
    auto renumber = [&](int old_chip) -> int {
        if (old_chip < 0 || old_chip >= static_cast<int>(old_to_new.size()))
            fatal("remapScenarioChips: chip %d outside the old mesh "
                  "(%zu chips)", old_chip, old_to_new.size());
        return old_to_new[old_chip];
    };
    FaultScenario out;
    out.seed = scenario.seed;
    out.maxLaunchJitter = scenario.maxLaunchJitter;
    out.detectionLatency = scenario.detectionLatency;
    for (const CapacityFault &f : scenario.faults) {
        const int old_chip = chip_of(f.pattern);
        if (old_chip < 0)
            continue; // link names are renumbered on the survivor mesh
        const int new_chip = renumber(old_chip);
        if (new_chip < 0)
            continue; // addressed a retired chip
        CapacityFault g = f;
        const std::string old_prefix = strprintf("chip%d", old_chip);
        g.pattern = strprintf("chip%d", new_chip) +
                    f.pattern.substr(old_prefix.size());
        out.faults.push_back(std::move(g));
    }
    for (const StragglerFault &s : scenario.stragglers) {
        const int new_chip = renumber(s.chip);
        if (new_chip < 0)
            continue;
        StragglerFault t = s;
        t.chip = new_chip;
        out.stragglers.push_back(t);
    }
    return out;
}

bool
FaultScenario::empty() const
{
    // `detectionLatency` is deliberately not consulted: with no kills
    // it is inert, and a scenario that perturbs nothing must stay
    // bit-identical to running with no injector at all.
    return maxLaunchJitter == 0.0 && faults.empty() && stragglers.empty() &&
           kills.empty();
}

std::string
FaultScenario::toJson() const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"seed\": " << seed << ",\n";
    out << "  \"max_launch_jitter_s\": " << jsonNumber(maxLaunchJitter)
        << ",\n";
    out << "  \"faults\": [";
    for (size_t i = 0; i < faults.size(); ++i) {
        const CapacityFault &f = faults[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"pattern\": " << jsonString(f.pattern)
            << ", \"factor\": " << jsonNumber(f.factor)
            << ", \"start_s\": " << jsonNumber(f.start)
            << ", \"duration_s\": " << jsonNumber(f.duration) << "}";
    }
    out << (faults.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"stragglers\": [";
    for (size_t i = 0; i < stragglers.size(); ++i) {
        const StragglerFault &s = stragglers[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"chip\": " << s.chip
            << ", \"compute_factor\": " << jsonNumber(s.computeFactor)
            << ", \"hbm_factor\": " << jsonNumber(s.hbmFactor)
            << ", \"start_s\": " << jsonNumber(s.start)
            << ", \"duration_s\": " << jsonNumber(s.duration) << "}";
    }
    out << (stragglers.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"kills\": [";
    for (size_t i = 0; i < kills.size(); ++i) {
        const KillFault &k = kills[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"pattern\": " << jsonString(k.pattern)
            << ", \"at_s\": " << jsonNumber(k.at) << "}";
    }
    out << (kills.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"detection_latency_s\": " << jsonNumber(detectionLatency)
        << "\n";
    out << "}\n";
    return out.str();
}

FaultScenario
FaultScenario::fromJson(const std::string &text, const std::string &context)
{
    JsonValue root = parseJson(text, "FaultScenario", context);
    if (root.kind != JsonValue::kObject)
        fatal("FaultScenario: top-level JSON value in %s must be an object",
              context.c_str());
    rejectUnknownKeys(root,
                      {"seed", "max_launch_jitter_s", "faults", "stragglers",
                       "kills", "detection_latency_s"},
                      "the scenario", context);

    FaultScenario scenario;
    const double seed = requireNumber(root, "seed", 1.0, context);
    if (seed < 0.0 || seed != std::floor(seed))
        fatal("FaultScenario: \"seed\" must be a non-negative integer "
              "in %s", context.c_str());
    scenario.seed = static_cast<std::uint64_t>(seed);
    scenario.maxLaunchJitter =
        requireNumber(root, "max_launch_jitter_s", 0.0, context);
    if (scenario.maxLaunchJitter < 0.0 ||
        !std::isfinite(scenario.maxLaunchJitter))
        fatal("FaultScenario: \"max_launch_jitter_s\" must be finite and "
              ">= 0 in %s", context.c_str());

    if (const JsonValue *arr = root.find("faults")) {
        if (arr->kind != JsonValue::kArray)
            fatal("FaultScenario: \"faults\" must be an array in %s",
                  context.c_str());
        for (const JsonValue &entry : arr->arr) {
            if (entry.kind != JsonValue::kObject)
                fatal("FaultScenario: every entry of \"faults\" must be "
                      "an object in %s", context.c_str());
            rejectUnknownKeys(entry,
                              {"pattern", "factor", "start_s", "duration_s"},
                              "a fault entry", context);
            CapacityFault f;
            f.pattern = requireString(entry, "pattern", context);
            f.factor = requireNumber(entry, "factor", 1.0, context);
            f.start = requireNumber(entry, "start_s", 0.0, context);
            f.duration = requireNumber(entry, "duration_s", -1.0, context);
            validateWindow(f.factor, f.start, f.duration, "fault",
                           "\"" + f.pattern + "\"");
            if (f.pattern.empty())
                fatal("FaultScenario: fault pattern must be non-empty "
                      "in %s (an empty pattern matches everything, which "
                      "is never what you want)", context.c_str());
            scenario.faults.push_back(std::move(f));
        }
    }

    if (const JsonValue *arr = root.find("stragglers")) {
        if (arr->kind != JsonValue::kArray)
            fatal("FaultScenario: \"stragglers\" must be an array in %s",
                  context.c_str());
        for (const JsonValue &entry : arr->arr) {
            if (entry.kind != JsonValue::kObject)
                fatal("FaultScenario: every entry of \"stragglers\" must "
                      "be an object in %s", context.c_str());
            rejectUnknownKeys(entry,
                              {"chip", "compute_factor", "hbm_factor",
                               "start_s", "duration_s"},
                              "a straggler entry", context);
            StragglerFault s;
            const double chip = requireNumber(entry, "chip", -1.0, context);
            if (chip < 0.0 || chip != std::floor(chip))
                fatal("FaultScenario: straggler \"chip\" must be a "
                      "non-negative integer in %s", context.c_str());
            s.chip = static_cast<int>(chip);
            s.computeFactor =
                requireNumber(entry, "compute_factor", 1.0, context);
            s.hbmFactor = requireNumber(entry, "hbm_factor", 1.0, context);
            s.start = requireNumber(entry, "start_s", 0.0, context);
            s.duration = requireNumber(entry, "duration_s", -1.0, context);
            validateWindow(s.computeFactor, s.start, s.duration, "straggler",
                           strprintf("chip %d", s.chip));
            validateWindow(s.hbmFactor, s.start, s.duration, "straggler",
                           strprintf("chip %d", s.chip));
            scenario.stragglers.push_back(s);
        }
    }

    if (const JsonValue *arr = root.find("kills")) {
        if (arr->kind != JsonValue::kArray)
            fatal("FaultScenario: \"kills\" must be an array in %s",
                  context.c_str());
        for (const JsonValue &entry : arr->arr) {
            if (entry.kind != JsonValue::kObject)
                fatal("FaultScenario: every entry of \"kills\" must be "
                      "an object in %s", context.c_str());
            rejectUnknownKeys(entry, {"pattern", "at_s"}, "a kill entry",
                              context);
            KillFault k;
            k.pattern = requireString(entry, "pattern", context);
            k.at = requireNumber(entry, "at_s", 0.0, context);
            if (k.pattern.empty())
                fatal("FaultScenario: kill pattern must be non-empty "
                      "in %s", context.c_str());
            if (!(k.at >= 0.0) || !std::isfinite(k.at))
                fatal("FaultScenario: kill \"%s\" has negative or "
                      "non-finite at_s %g in %s", k.pattern.c_str(), k.at,
                      context.c_str());
            scenario.kills.push_back(std::move(k));
        }
    }

    scenario.detectionLatency =
        requireNumber(root, "detection_latency_s",
                      scenario.detectionLatency, context);
    if (scenario.detectionLatency < 0.0 ||
        !std::isfinite(scenario.detectionLatency))
        fatal("FaultScenario: \"detection_latency_s\" must be finite and "
              ">= 0 in %s", context.c_str());

    // A kill and a capacity window aimed at (an overlapping set of)
    // resources with intersecting times is almost certainly a scenario
    // bug: the capacity window used to silently multiply into the dead
    // resource's factor, which makes the "robust" numbers meaningless.
    // Patterns are substring matches, so two patterns can hit the same
    // resource only if one contains the other.
    for (size_t ki = 0; ki < scenario.kills.size(); ++ki) {
        const KillFault &k = scenario.kills[ki];
        for (size_t fi = 0; fi < scenario.faults.size(); ++fi) {
            const CapacityFault &f = scenario.faults[fi];
            const bool patterns_collide =
                k.pattern.find(f.pattern) != std::string::npos ||
                f.pattern.find(k.pattern) != std::string::npos;
            if (!patterns_collide)
                continue;
            // Kill is active on [at, inf); window on [start, end).
            const bool times_overlap =
                f.duration < 0.0 || f.start + f.duration > k.at;
            if (times_overlap)
                fatal("FaultScenario: kill #%zu (pattern \"%s\", at %g s) "
                      "overlaps capacity fault #%zu (pattern \"%s\", "
                      "window [%g s, %s)) in %s — a capacity window on a "
                      "killed resource is contradictory; shorten the "
                      "window or drop the kill",
                      ki, k.pattern.c_str(), k.at, fi, f.pattern.c_str(),
                      f.start,
                      f.duration < 0.0
                          ? "inf"
                          : strprintf("%g s", f.start + f.duration).c_str(),
                      context.c_str());
        }
    }
    validateScenario(scenario, context);
    return scenario;
}

FaultScenario
FaultScenario::fromJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("FaultScenario: cannot open scenario file '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        fatal("FaultScenario: I/O error reading scenario file '%s'",
              path.c_str());
    return fromJson(text.str(), path);
}

FaultInjector::FaultInjector(Simulator &sim, FluidNetwork &net,
                             FaultScenario scenario)
    : sim_(sim), net_(net), scenario_(std::move(scenario)),
      rngState_(scenario_.seed)
{
}

void
FaultInjector::arm()
{
    if (armed_)
        panic("FaultInjector: arm() called twice");
    armed_ = true;

    // Expand stragglers into plain capacity faults on the chip's two
    // resources, then validate everything (programmatic scenarios skip
    // the JSON-side checks).
    std::vector<CapacityFault> expanded = scenario_.faults;
    for (const StragglerFault &s : scenario_.stragglers) {
        if (s.chip < 0)
            fatal("FaultInjector: straggler chip index %d is negative",
                  s.chip);
        CapacityFault core;
        core.pattern = strprintf("chip%d.core", s.chip);
        core.factor = s.computeFactor;
        core.start = s.start;
        core.duration = s.duration;
        CapacityFault hbm = core;
        hbm.pattern = strprintf("chip%d.hbm", s.chip);
        hbm.factor = s.hbmFactor;
        expanded.push_back(std::move(core));
        expanded.push_back(std::move(hbm));
    }
    for (const CapacityFault &f : expanded) {
        if (f.pattern.empty())
            fatal("FaultInjector: fault pattern must be non-empty");
        validateWindow(f.factor, f.start, f.duration, "fault",
                       "\"" + f.pattern + "\"");
    }
    if (scenario_.maxLaunchJitter < 0.0)
        fatal("FaultInjector: maxLaunchJitter must be >= 0");
    validateScenario(scenario_, "<programmatic scenario>");

    // Resolve kills first: the capacity-window `apply` below consults
    // `killAt_` so a window boundary can never resurrect a corpse.
    const size_t resource_count = net_.resourceCount();
    for (const KillFault &k : scenario_.kills) {
        if (k.pattern.empty())
            fatal("FaultInjector: kill pattern must be non-empty");
        if (!(k.at >= 0.0) || !std::isfinite(k.at))
            fatal("FaultInjector: kill \"%s\" has negative or non-finite "
                  "time %g", k.pattern.c_str(), k.at);
        bool matched_kill = false;
        for (size_t r = 0; r < resource_count; ++r) {
            const ResourceId id = static_cast<ResourceId>(r);
            if (net_.resourceName(id).find(k.pattern) == std::string::npos)
                continue;
            matched_kill = true;
            auto [it, inserted] = killAt_.emplace(id, k.at);
            if (!inserted)
                fatal("FaultInjector: kill pattern \"%s\" (at %g s) hits "
                      "resource \"%s\", which another kill already takes "
                      "down at %g s — a fail-stop resource dies exactly "
                      "once", k.pattern.c_str(), k.at,
                      net_.resourceName(id).c_str(), it->second);
        }
        if (!matched_kill)
            fatal("FaultInjector: kill pattern \"%s\" matches no "
                  "resource — check the scenario against the cluster's "
                  "resource names (chip<i>.core, chip<i>.hbm, "
                  "link.<dir>...)", k.pattern.c_str());
    }
    // Schedule in resource-id order so same-timestamp kills enqueue in
    // a deterministic sequence (bit-identical replay contract).
    {
        std::vector<ResourceId> kill_ids;
        kill_ids.reserve(killAt_.size());
        for (const auto &[id, when] : killAt_)
            kill_ids.push_back(id);
        std::sort(kill_ids.begin(), kill_ids.end());
        for (ResourceId id : kill_ids) {
            const Time when = killAt_.at(id);
            auto die = [this, id] { net_.setAvailable(id, false); };
            if (when <= sim_.now())
                die();
            else
                sim_.schedule(when, die);
        }
    }

    // Per-resource fault lists (a pattern may hit many resources; a
    // resource may be hit by many faults — overlaps multiply).
    const size_t num_resources = net_.resourceCount();
    std::vector<std::vector<const CapacityFault *>> hits(num_resources);
    std::vector<bool> matched(expanded.size(), false);
    for (size_t r = 0; r < num_resources; ++r) {
        const std::string &name =
            net_.resourceName(static_cast<ResourceId>(r));
        for (size_t f = 0; f < expanded.size(); ++f) {
            if (name.find(expanded[f].pattern) != std::string::npos) {
                hits[r].push_back(&expanded[f]);
                matched[f] = true;
            }
        }
    }
    for (size_t f = 0; f < expanded.size(); ++f) {
        if (!matched[f])
            fatal("FaultInjector: fault pattern \"%s\" matches no "
                  "resource — check the scenario against the cluster's "
                  "resource names (chip<i>.core, chip<i>.hbm, "
                  "link.<dir>...)", expanded[f].pattern.c_str());
    }

    // For every affected resource, schedule one update per window
    // boundary. Each update recomputes the resource's effective state
    // from scratch (product of the factors of all windows containing
    // the boundary time), so overlapping windows compose correctly in
    // any order.
    for (size_t r = 0; r < num_resources; ++r) {
        if (hits[r].empty())
            continue;
        const ResourceId id = static_cast<ResourceId>(r);
        std::vector<Time> boundaries;
        for (const CapacityFault *f : hits[r]) {
            boundaries.push_back(f->start);
            if (f->duration >= 0.0)
                boundaries.push_back(f->start + f->duration);
            ++armedWindows_;
        }
        // Capture the fault list by value: `expanded` dies with arm().
        std::vector<CapacityFault> local;
        local.reserve(hits[r].size());
        for (const CapacityFault *f : hits[r])
            local.push_back(*f);
        auto apply = [this, id, local] {
            const Time now = sim_.now();
            // Kill wins: a window boundary must never resurrect (or
            // re-rate) a resource that failed permanently.
            auto kill = killAt_.find(id);
            if (kill != killAt_.end() && now >= kill->second) {
                net_.setAvailable(id, false);
                return;
            }
            double product = 1.0;
            bool down = false;
            for (const CapacityFault &f : local) {
                const bool active =
                    now >= f.start &&
                    (f.duration < 0.0 || now < f.start + f.duration);
                if (!active)
                    continue;
                if (f.factor == 0.0)
                    down = true;
                else
                    product *= f.factor;
            }
            net_.setAvailable(id, !down);
            if (!down)
                net_.setCapacity(id, net_.nominalCapacity(id) * product);
        };
        for (Time when : boundaries) {
            // Boundaries at (or before) the current time apply
            // immediately: ops launched at t=now must already see the
            // degraded state when they make their routing decision —
            // a zero-delay event would run after their constructors.
            if (when <= sim_.now())
                apply();
            else
                sim_.schedule(when, apply);
        }
    }
}

bool
FaultInjector::isKilled(ResourceId id) const
{
    auto it = killAt_.find(id);
    return it != killAt_.end() && sim_.now() >= it->second;
}

Time
FaultInjector::killTime(ResourceId id) const
{
    auto it = killAt_.find(id);
    return it == killAt_.end() ? -1.0 : it->second;
}

Time
FaultInjector::earliestKillAfter(
    Time after, const std::vector<ResourceId> &resources) const
{
    Time best = -1.0;
    for (ResourceId id : resources) {
        auto it = killAt_.find(id);
        if (it == killAt_.end())
            continue;
        // A kill already in effect is still relevant now.
        const Time t = std::max(it->second, after);
        if (best < 0.0 || t < best)
            best = t;
    }
    return best;
}

Time
FaultInjector::nextLaunchJitter()
{
    // No draw for the empty case: keeps the zero-jitter scenario
    // bit-identical to a run with no injector attached at all.
    if (scenario_.maxLaunchJitter == 0.0)
        return 0.0;
    return uniform01(rngState_) * scenario_.maxLaunchJitter;
}

} // namespace meshslice
