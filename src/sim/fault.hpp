/**
 * @file
 * Deterministic fault & straggler injection.
 *
 * A `FaultScenario` is a declarative description of everything that can
 * go wrong in a run: ICI links running below nominal bandwidth for a
 * window, links going fully down, straggler chips (scaled compute / HBM
 * capacity), and per-op host launch jitter. A `FaultInjector` turns the
 * scenario into capacity-modulation events on a `FluidNetwork` — all
 * scheduling happens up front from `arm()`, and the jitter stream is a
 * seeded counter-free PRNG, so a scenario replays **bit-identically**
 * for a given seed regardless of host, thread count, or wall clock.
 *
 * Faults address resources by *name pattern* (substring match against
 * the fluid network's registered names, e.g. `"link.E"` hits every
 * east-going link and `"chip3."` hits chip 3's core and HBM). This
 * keeps the injector in the sim layer: it needs no knowledge of the
 * torus, only of the resource naming convention.
 *
 * Semantics (documented in DESIGN.md §4d):
 *  - `factor` scales the resource's *nominal* capacity; overlapping
 *    windows on the same resource multiply.
 *  - `factor == 0` means the resource is down for the window: flows
 *    demanding it park (progress frozen) and resume on recovery. If
 *    nothing else can make progress the simulator's watchdog aborts
 *    with a flow dump rather than hanging or finishing early.
 *  - `duration < 0` means the fault persists to the end of the run.
 *  - launch jitter is a uniform draw in [0, maxLaunchJitter) added to
 *    every collective's host launch overhead. With
 *    `maxLaunchJitter == 0` the PRNG is never consulted, so an empty
 *    scenario is bit-identical to running with no injector at all.
 *
 * The fail-stop rules every layer above shares are defined here once:
 * the scenario checks (`validateScenario`), the chip-pattern reader
 * (`readChipPattern`), the failure record (`FailStop`), and the kill
 * watch with its corpse lookup (`FaultInjector::watchKills`,
 * `FaultInjector::firstKilled`).
 */
#ifndef MESHSLICE_SIM_FAULT_HPP_
#define MESHSLICE_SIM_FAULT_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace meshslice {

/**
 * One capacity-modulation window applied to every resource whose name
 * contains `pattern`.
 */
struct CapacityFault
{
    /** Substring matched against resource names ("link.E", "chip3."). */
    std::string pattern;
    /** Capacity multiplier in [0, 1]; exactly 0 takes the resource down. */
    double factor = 1.0;
    /** Window start (simulated seconds). */
    Time start = 0.0;
    /** Window length; negative = persists to the end of the run. */
    Time duration = -1.0;
};

/**
 * A permanent **fail-stop** event: every resource whose name contains
 * `pattern` goes down at `at` and never comes back. Unlike a
 * `CapacityFault` with `factor == 0` (a *degradation window* the
 * simulation waits out), a kill changes the failure semantics: work
 * routed through a killed resource can never finish, so collectives
 * must detect the failure (after the scenario's `detectionLatency`),
 * abort, and retry on a ring rebuilt around the corpse — or the run
 * is over. `"chip3."` kills chip 3 (core + HBM); `"link.E.b0.r1.c2"`
 * kills one link direction.
 */
struct KillFault
{
    /** Substring matched against resource names. */
    std::string pattern;
    /** Simulated time of the permanent failure (seconds, >= 0). */
    Time at = 0.0;
};

/**
 * A straggler chip: its core and HBM run below nominal for a window.
 * Sugar over two `CapacityFault`s on "chip<i>.core" / "chip<i>.hbm".
 */
struct StragglerFault
{
    int chip = -1;
    double computeFactor = 1.0;
    double hbmFactor = 1.0;
    Time start = 0.0;
    Time duration = -1.0;
};

/**
 * Declarative, seed-replayable description of a degraded cluster.
 * Construct programmatically or parse from JSON (`fromJson`).
 */
struct FaultScenario
{
    /** Seed for the launch-jitter stream (and only that stream). */
    std::uint64_t seed = 1;
    /** Upper bound of the per-op uniform launch jitter (seconds). */
    Time maxLaunchJitter = 0.0;
    std::vector<CapacityFault> faults;
    std::vector<StragglerFault> stragglers;
    /** Permanent fail-stop events (chips or links that die for good). */
    std::vector<KillFault> kills;
    /**
     * Failure-detection latency: how long after a kill the runtime
     * *notices* (heartbeat interval + consensus). Collectives touching
     * a killed resource abort `detectionLatency` seconds after the
     * kill (or after their launch, if they launch into a corpse).
     * Inert when `kills` is empty.
     */
    Time detectionLatency = 0.5;

    /** True when the scenario perturbs nothing at all. */
    bool empty() const;

    /** Serialize to a standalone JSON document (schema in DESIGN.md). */
    std::string toJson() const;

    /**
     * Parse the JSON emitted by `toJson` (all keys optional). Checks
     * syntax, types and unknown keys, then hands the scenario to
     * `validateScenario`; either calls `fatal()` naming @p context
     * (e.g. a file path) on malformed input.
     */
    static FaultScenario fromJson(const std::string &text,
                                  const std::string &context = "<string>");

    /** `fromJson` on the contents of @p path; fatal if unreadable. */
    static FaultScenario fromJsonFile(const std::string &path);
};

/**
 * Every semantic check of a scenario, in one place: capacity and
 * straggler windows (factor in [0, 1], finite non-negative start, no
 * NaN duration), non-empty fault and kill patterns, non-negative
 * straggler chips, finite non-negative kill times, launch jitter and
 * detection latency, and the two contradictions — a kill whose pattern
 * collides with another kill's (a second kill of a corpse, or one
 * inside the first's detection window) or with a capacity window that
 * is still open at the kill. Patterns are substring matches, so two
 * patterns collide when one contains the other. Each violation is a
 * `fatal()` naming the offending entries and @p context.
 * `FaultScenario::fromJson` checks only syntax, types and unknown keys
 * before calling this; `FaultInjector::arm()` calls it before resolving
 * patterns, so a scenario fails the same way whichever door it enters.
 */
void validateScenario(const FaultScenario &scenario,
                      const std::string &context);

/** How a fault pattern addresses chips (`readChipPattern`). */
struct ChipPattern
{
    /** The pattern starts with "chip": it can only match chip
     *  resources (core, HBM, NIC), never a link. */
    bool chipAddressed = false;
    /** The one chip a `"chip<i>."` pattern names, or -1 when the
     *  pattern is not chip-addressed or can match several chips
     *  (`"chip1"` also matches chip10-chip19). */
    int chip = -1;
    /** Text after `"chip<i>."` ("" = every resource of the chip). */
    std::string resource;
};

/** The one reader of chip-addressed fault patterns. */
ChipPattern readChipPattern(const std::string &pattern);

/**
 * The deterministic jitter seed of phase @p phase of an elastic run
 * re-based on @p seed (one splitmix64 mix; stable across hosts).
 */
std::uint64_t derivePhaseSeed(std::uint64_t seed, std::uint64_t phase);

/**
 * Re-base @p scenario onto a phase whose global start time is
 * @p start, with @p phase_seed as the jitter seed: window starts shift
 * by `-start` (a window already in progress is clamped to start at 0
 * with its remaining duration; a fully elapsed window is dropped), and
 * kill times clamp to `max(0, at - start)` — a chip that died before
 * the phase began is still dead *at* phase start. A window that ends
 * by a colliding kill still does after the shift (its end is pulled
 * back onto the kill if rounding pushed it past), so a scenario that
 * passed `validateScenario` keeps passing it. The elastic runtime
 * runs every phase on a fresh cluster at local t=0; this is the
 * scenario each phase's injector arms.
 */
FaultScenario sliceScenarioForPhase(const FaultScenario &scenario,
                                    Time start, std::uint64_t phase_seed);

/**
 * Rewrite chip-addressed entries ("chip<i>." patterns, straggler chip
 * ids) after a mesh shrink: @p old_to_new maps old linear chip ids to
 * survivor ids (-1 = retired). Entries addressing retired chips are
 * dropped; link-pattern capacity faults are dropped too (survivor
 * links are renumbered, so old link names are meaningless). Every
 * chip-addressed pattern must name exactly one chip (`runElastic`
 * rejects any other before its first step). Kills must already be
 * consumed (the elastic runtime handles one kill per run); a
 * remaining kill is fatal.
 */
FaultScenario remapScenarioChips(const FaultScenario &scenario,
                                 const std::vector<int> &old_to_new);

/**
 * One fail-stop failure as the runtime observed it: which op (or
 * watch) detected it, the dead resource, the chip that owns it (-1 for
 * a link), the ring position a retry evicts (-1 outside ring
 * collectives; pass it to `TorusMesh::rowRingWithout` /
 * `colRingWithout`), and the simulated time detection completed — the
 * kill time plus the scenario's detection latency, or the watching
 * op's launch plus the latency if it launched into a corpse. Ring
 * collectives, the recoverable collective and the elastic runtime's
 * watchdog all pass this one record.
 */
struct FailStop
{
    std::string op;
    std::string deadResource;
    int deadChip = -1;
    int deadRingPos = -1;
    Time detectedAt = 0.0;
};

/**
 * Applies a `FaultScenario` to a live `FluidNetwork`.
 *
 * `arm()` resolves every fault's pattern against the network's resource
 * names and schedules capacity updates at each window boundary; at each
 * boundary the *product* of all active factors on a resource decides
 * its capacity (0 → down). Collectives consult `nextLaunchJitter()` on
 * every op launch.
 */
class FaultInjector
{
  public:
    FaultInjector(Simulator &sim, FluidNetwork &net, FaultScenario scenario);

    /**
     * Validate the scenario (`validateScenario`), resolve patterns and
     * schedule all capacity events. Call exactly once, after every
     * resource is registered and before `run()`. A pattern matching no
     * resource is a fatal error (most likely a typo in the scenario,
     * and silently ignoring it would make a "robust" result
     * meaningless).
     */
    void arm();

    /**
     * Next host launch jitter draw (seconds, uniform in
     * [0, maxLaunchJitter)). Returns 0.0 *without consuming a PRNG
     * draw* when the scenario has no jitter, preserving bit-identical
     * behaviour of the empty scenario.
     */
    Time nextLaunchJitter();

    const FaultScenario &scenario() const { return scenario_; }

    /** Number of (resource, window) pairs scheduled by `arm()`. */
    int armedWindowCount() const { return armedWindows_; }

    /** True iff the scenario has at least one kill event. Every kill
     *  watch checks this first, so a kill-free run allocates and
     *  schedules nothing and stays bit-identical to a run with no
     *  injector at all. */
    bool hasKills() const { return !scenario_.kills.empty(); }

    /** True iff @p id is permanently dead at the current sim time. */
    bool isKilled(ResourceId id) const;

    /**
     * The kill watch: when the first of @p resources to die is
     * detected — at max(its kill time, now) + the detection latency,
     * since a kill already in effect is detected from now — run
     * @p fire. Returns the scheduled event (cancel it when the watcher
     * finishes first), or an invalid id when none of the resources is
     * ever killed.
     */
    EventId watchKills(const std::vector<ResourceId> &resources,
                       Simulator::Callback fire);

    /** Index of the first resource of @p resources that is dead now
     *  (the corpse lookup of an aborting watcher), or -1. */
    int firstKilled(const std::vector<ResourceId> &resources) const;

  private:
    Simulator &sim_;
    FluidNetwork &net_;
    FaultScenario scenario_;
    std::uint64_t rngState_;
    int armedWindows_ = 0;
    bool armed_ = false;
    /** resource id -> kill time, filled by arm(). */
    std::unordered_map<ResourceId, Time> killAt_;
};

} // namespace meshslice

#endif // MESHSLICE_SIM_FAULT_HPP_
