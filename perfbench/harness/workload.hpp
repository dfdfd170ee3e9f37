/**
 * @file
 * The three operation kinds a run drives, each a closed loop on the
 * client thread: the next operation starts only after the previous one
 * returned.
 *
 *  - `PlanColdBlock`: cold fault-aware GPT-3/256-chip plans through a
 *    fresh `PlanEngine`, each checked by simulating its 12 GeMMs, then
 *    fetched back from the warm engine by the job's hosts.
 *  - `ServeBlock`: NDJSON plan-server traffic against one warm engine.
 *  - `TrainBlock`: seeded `runElastic` runs with one chip kill each.
 *
 * Untraced operations give the end-to-end metrics. In a traced run,
 * untraced and traced operations alternate (plan_cold and elastic runs
 * in pairs on equal inputs, serves in blocks of one stream): the
 * traced ones record spans around each layer call and then, outside
 * the operation's span, call the layers hidden behind `PlanEngine::plan`
 * and `runElastic` with the same inputs (the "layer split"), so the
 * traced-minus-untraced difference stays the cost of the spans alone.
 */
#ifndef PERFBENCH_WORKLOAD_HPP_
#define PERFBENCH_WORKLOAD_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/plan_engine.hpp"
#include "harness/host_speed.hpp"
#include "harness/inputs.hpp"
#include "harness/report.hpp"
#include "harness/trace.hpp"

namespace perfbench {

/** Exact counts read from the program's public counters over a fixed
 *  window of a traced run's operations, so they repeat for a seed. */
struct LayerCounts
{
    std::uint64_t simEvents = 0;  ///< Simulator::eventsProcessed
    double commBytes = 0.0;       ///< Cluster::commBytesIssued
    double simHostSeconds = 0.0;  ///< host time of those simulations
    double cacheHits = 0.0;       ///< engine/cache/hit
    double cacheMisses = 0.0;     ///< engine/cache/miss
    double evictions = 0.0;       ///< engine/cache/eviction
};

/** State shared by every block of one run. */
struct Run
{
    Run(std::uint64_t seed_, bool traced_, int threads_)
        : seed(seed_), traced(traced_), threads(threads_)
    {
    }

    std::uint64_t seed;
    bool traced;
    int threads; ///< pool size of the parallel blocks (<= nproc)
    HostSpeed speed;
    Tracer tracer;
    Report report;
    LayerCounts counts;
    long nextRequest = 0; ///< request ids, shared by all blocks

    /** Pairwise alternation: in a traced run, operation 2i is untraced
     *  and 2i+1 traced, both on input i. */
    bool tracedOp(long op) const { return traced && op % 2 == 1; }
    long inputOf(long op) const { return traced ? op / 2 : op; }
};

/** Record end-to-end metric @p name from @p raw, measured in host time
 *  (a duration, or a rate when @p unit is "1/s"), scaled to the
 *  reference host speed; the note keeps the raw value. */
void hostMetric(Run &run, const std::string &name, double raw,
                const std::string &unit, const std::string &note);

/** Resize the global pool to @p threads unless it has that size (only
 *  between operations: no pool loop may be running). */
void usePool(int threads);

/** The simulated 12-GeMM check of a served TP plan. */
struct CheckResult
{
    bool completed = true;
    std::vector<double> simSeconds; ///< simulated time per GeMM
    std::uint64_t events = 0;
    double commBytes = 0.0;
    double hostSeconds = 0.0; ///< host time of the 12 simulations

    double simTotal() const;
};

/** Simulate every GeMM of @p tp with `GemmExecutor::run` on a fresh
 *  `Cluster`/`TorusMesh` of the plan's mesh (spans: core.validate >
 *  hw.cluster_build, core.gemm). */
CheckResult checkTpPlan(Run &run, const meshslice::AutotuneResult &tp,
                        const meshslice::ChipConfig &chip, long request);

/** Layer split of a served miss: the tuner phases `PlanEngine::plan`
 *  ran, called with the inputs the engine gives them (rankShapes is
 *  timed only for @p cold serves; an incremental one reused its
 *  shortlist); checks that they reproduce the served plan's robust and
 *  pipeline picks. */
void splitTunerPhases(Run &run, const meshslice::PlanQuery &query,
                      const meshslice::EnginePlan &served, bool cold,
                      long request);

/** Layer split of any serve: planKeyOf + PlanKey::full, fnv1a64Hex of
 *  the full key, and enginePlanFromJson of the served text. */
void splitServePath(Run &run, const meshslice::PlanQuery &query,
                    const std::string &plan_json, long request);

/** Serves per window of the p50 latency: short, so most windows see
 *  one host speed and their mean follows the fast/slow mix. */
constexpr size_t kP50Window = 64;
/** Serves per window of the p99 latency (>= 10 beyond it). */
constexpr size_t kP99Window = 1024;
/** Serves per window of serve_per_s (under a second of serve_mix). */
constexpr size_t kRateWindow = 1024;
/** Elastic runs per window of train_steps_per_s. */
constexpr size_t kTrainWindow = 8;

/** The tracing overhead of a traced run. */
struct Overhead
{
    double pct = 0.0; ///< (median traced / median untraced - 1) * 100
    std::string note; ///< the operations compared, with their counts
};

/** Overhead of the @p traced over the @p untraced operations, which
 *  are @p what. */
Overhead overheadOf(const std::vector<double> &traced,
                    const std::vector<double> &untraced,
                    const std::string &what);

class PlanColdBlock
{
  public:
    explicit PlanColdBlock(Run &run);

    /** Calibration + engine construction; returns host seconds. */
    double setUp();

    /** One request: cold plan + check, then a block of the hosts'
     *  fetches. */
    void request(long op);

    /** A block of `kFetches` fetches of the latest plan from its warm
     *  engine (none before the first request). */
    void fetch();

    /** plan_cold_s, and the serve metrics from the fetches. */
    void reportEndToEnd();
    Overhead overhead() const;

    /** Fetches per block: one block follows each cold plan, and one
     *  more fills each gap between the operations that follow it. */
    static constexpr int kFetches = 2000;
    /** Requests whose checks give the exact counts. */
    static constexpr long kExactWindow = 2;

  private:
    Run &run_;
    std::vector<std::uint64_t> seeds_;
    /** The latest request's engine, query and plan, for the fetches. */
    std::unique_ptr<meshslice::PlanEngine> engine_;
    meshslice::PlanQuery query_;
    std::string servedJson_;
    bool tracedRequest_ = false;
    /** First served plan and check times per scenario seed. */
    std::map<std::uint64_t, std::string> firstPlan_;
    std::map<std::uint64_t, std::vector<double>> firstCheck_;
    std::vector<double> requestS_;     ///< untraced requests
    std::vector<double> fetchS_;       ///< fetches of untraced requests
    std::vector<double> tracedFetchS_; ///< traced fetches...
    std::vector<double> pairedFetchS_; ///< ...and the untraced between
};

/** Serves run on a one-thread pool: with one closed-loop client, the
 *  millisecond-scale misses gained nothing from splitting their
 *  simulations over 4 shared vCPUs and their latency spread several-fold
 *  (README.md). */
class ServeBlock
{
  public:
    explicit ServeBlock(Run &run);

    /** Fresh engine, calibration and cache warm-up (every key once,
     *  coldest first, so the hot keys end up cached); returns host
     *  seconds. The engine of the first set-up serves the loop; later
     *  ones must warm up to the same plans. */
    double setUp();

    /** One request (an NDJSON line in, a plan out). In a traced run
     *  requests alternate in blocks of `kBlock`. */
    void request(long op);

    /** Serve latency/throughput, and plan_cold_s from cold serves. */
    void reportEndToEnd();
    Overhead overhead() const;

    static constexpr long kBlock = 256;
    /** Requests over which exact counts are taken. */
    static constexpr long kExactWindow = 2048;

  private:
    Run &run_;
    meshslice::ChipConfig chip_;
    std::vector<std::string> universe_; ///< query lines by rank
    ZipfStream stream_;
    std::unique_ptr<meshslice::PlanEngine> engine_;
    std::vector<std::string> firstServe_; ///< by rank
    std::vector<double> latencyS_;        ///< untraced requests
    std::vector<double> coldS_;           ///< untraced cold serves
    std::vector<double> tracedS_;         ///< traced requests
    long bySource_[4] = {0, 0, 0, 0}; ///< by PlanSource
    double servedAtSetUp_ = 0.0;
    double statsAtSetUp_[3] = {0, 0, 0}; ///< hit, miss, eviction
};

class TrainBlock
{
  public:
    /** @p cycle: how many distinct configs the runs cycle through. */
    TrainBlock(Run &run, int cycle);

    /** Calibration + the fault-free step probe that places the kills
     *  (the first set-up's probe makes the configs); returns host
     *  seconds. */
    double setUp();

    /** One elastic run. */
    void request(long op);

    /** train_steps_per_s. */
    void reportEndToEnd();
    Overhead overhead() const;

  private:
    struct Outcome
    {
        double wall = 0.0;
        double goodput = 0.0;
        std::string statsJson;
    };

    Run &run_;
    int cycle_;
    meshslice::ChipConfig chip_;
    meshslice::ElasticRunConfig base_;
    meshslice::Time stepTime_ = 0.0; ///< the first set-up's step probe
    std::vector<meshslice::ElasticRunConfig> configs_;
    std::map<size_t, Outcome> firstOutcome_;
    std::vector<double> runS_;      ///< untraced runs
    std::vector<double> tracedS_;   ///< traced runs
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HPP_
