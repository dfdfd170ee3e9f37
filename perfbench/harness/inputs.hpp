/**
 * @file
 * Seeded input generators. Every input the program receives — query
 * lines, the request order, elastic-run configs — is a pure function of
 * the workload seed, so one seed always gives the same inputs.
 */
#ifndef PERFBENCH_INPUTS_HPP_
#define PERFBENCH_INPUTS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "hw/chip_config.hpp"
#include "run/elastic.hpp"

namespace perfbench {

/** SplitMix64 stream (the generator `plan_server_report` uses). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    int below(int n);

  private:
    std::uint64_t state_;
};

// ---- plan_cold -------------------------------------------------------

/** NDJSON query: GPT-3 on 256 chips with robust-rerank (top-3 x 4
 *  sampled scenarios from @p scenario_seed), recovery pricing and the
 *  pipeline-3d phase. */
std::string planColdQuery(std::uint64_t scenario_seed);

/** Whether the robust scenarios @p scenario_seed samples for the
 *  plan_cold query degrade each of the four link directions once and
 *  hold exactly two stragglers. */
bool balancedScenarios(std::uint64_t scenario_seed);

/** The two scenario seeds a plan_cold run cycles through: seeded draws,
 *  kept only when `balancedScenarios`, since the degraded directions
 *  decide how much simulation a request needs. */
std::vector<std::uint64_t> planColdSeeds(std::uint64_t seed);

// ---- serve_mix -------------------------------------------------------

/**
 * The plan-server key universe: 16-chip queries of the
 * `plan_server_report` model at several depths. Rank r of the Zipf
 * order maps to one query line. Four "family" bases carry many
 * fault-only variants (a miss on one is an incremental re-tune); every
 * fourth rank is a singleton base (a miss is a cold tune). Families 1
 * and 3 also run the pipeline-3d phase; singletons never do, so all
 * cold serves cost alike.
 * The structure is fixed; the seed picks each variant's scenario seed.
 * Returns the 128 query lines by rank.
 */
std::vector<std::string> serveUniverse(std::uint64_t seed);

/** LRU capacity the serving engine runs with (below the key count). */
constexpr size_t kServeCacheCapacity = 64;

/** Closed-loop request stream: Zipf(s = 1) ranks over the universe,
 *  weight 1/(r+1) as in `plan_server_report`'s mix. */
class ZipfStream
{
  public:
    ZipfStream(int universe, std::uint64_t seed);
    int next();

  private:
    std::vector<double> cumulative_;
    Rng rng_;
};

// ---- elastic_train ---------------------------------------------------

/** The elastic step body: a 1152^3 MeshSlice GeMM on a 4x4 mesh, S=4,
 *  12 steps (1152 divides the mesh and both one-line survivors). */
meshslice::ElasticRunConfig elasticBase(const meshslice::ChipConfig &cfg);

/**
 * The eight elastic-run configs of a run: @p base with functional
 * state, checkpoints every two steps and one chip kill inside a step.
 * The seed picks the dead chip, the step it dies in, where in the step,
 * and the scenario/functional seeds. @p step_time is the measured
 * fault-free step span, so kills always land inside a step.
 */
std::vector<meshslice::ElasticRunConfig>
elasticConfigs(const meshslice::ChipConfig &cfg,
               const meshslice::ElasticRunConfig &base,
               meshslice::Time step_time, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HPP_
