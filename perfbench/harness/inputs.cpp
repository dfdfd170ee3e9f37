#include "harness/inputs.hpp"

#include <algorithm>
#include <set>

#include "engine/plan_json.hpp"
#include "tuner/robust.hpp"

namespace perfbench {

using namespace meshslice;

namespace {

/** A seed for input stream @p stream of workload seed @p seed: one
 *  stream per input kind, so adding one does not shift another. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng(seed * 0x100000001b3ULL + stream);
    return rng.next();
}

/** Seeds go through JSON numbers, so keep them exactly representable. */
std::uint64_t
jsonSafe(std::uint64_t v)
{
    return (v >> 33) + 1;
}

/** The `plan_server_report` model at @p layers depth, on 16 chips. */
std::string
serveQuery(int layers, bool pipeline, std::uint64_t scenario_seed)
{
    std::string q = "{\"model\": {\"name\": \"planserver-1b\", \"layers\": " +
                    std::to_string(layers) +
                    ", \"hiddenDim\": 2048, \"heads\": 16, "
                    "\"ffnDim\": 8192}, \"chips\": 16, "
                    "\"robust\": {\"topK\": 2, \"numScenarios\": 2, "
                    "\"maxGemmsPerEval\": 2, \"seed\": " +
                    std::to_string(scenario_seed) +
                    "}, \"recovery\": {\"chipMtbf\": 2592000, "
                    "\"checkpointBytesPerChip\": 1073741824, \"topK\": 2}";
    if (pipeline)
        q += ", \"pipeline\": {}";
    return q + "}";
}

} // namespace

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

int
Rng::below(int n)
{
    return static_cast<int>(uniform() * n);
}

std::string
planColdQuery(std::uint64_t scenario_seed)
{
    return "{\"model\": \"gpt3\", \"chips\": 256, "
           "\"robust\": {\"topK\": 3, \"numScenarios\": 4, \"seed\": " +
           std::to_string(scenario_seed) +
           "}, \"recovery\": {\"chipMtbf\": 2592000, "
           "\"checkpointBytesPerChip\": 1073741824}, \"pipeline\": {}}";
}

bool
balancedScenarios(std::uint64_t scenario_seed)
{
    const PlanQuery query = planQueryFromJson(planColdQuery(scenario_seed),
                                              tpuV4Config(), "plan_cold");
    std::set<std::string> directions;
    int stragglers = 0;
    for (const FaultScenario &s : sampleScenarios(query.robust, query.chips)) {
        for (const CapacityFault &f : s.faults)
            directions.insert(f.pattern);
        stragglers += static_cast<int>(s.stragglers.size());
    }
    return directions.size() == 4 && stragglers == 2;
}

std::vector<std::uint64_t>
planColdSeeds(std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, 1));
    std::vector<std::uint64_t> seeds;
    while (seeds.size() < 2) {
        const std::uint64_t candidate = jsonSafe(rng.next());
        if (balancedScenarios(candidate))
            seeds.push_back(candidate);
    }
    return seeds;
}

std::vector<std::string>
serveUniverse(std::uint64_t seed)
{
    constexpr int kKeys = 128;
    constexpr int kFamilies = 4;
    Rng rng(deriveSeed(seed, 2));
    std::vector<std::string> lines;
    int family_slot = 0;
    for (int r = 0; r < kKeys; ++r) {
        const std::uint64_t scenario_seed = jsonSafe(rng.next());
        if (r % 4 == 3) {
            const int j = r / 4;
            lines.push_back(serveQuery(20 + 4 * j, false, scenario_seed));
        } else {
            const int base = family_slot++ % kFamilies;
            lines.push_back(serveQuery(4 * (base + 1), base % 2 == 1,
                                         scenario_seed));
        }
    }
    return lines;
}

ZipfStream::ZipfStream(int universe, std::uint64_t seed)
    : rng_(deriveSeed(seed, 4))
{
    double total = 0.0;
    for (int r = 0; r < universe; ++r) {
        total += 1.0 / (r + 1.0);
        cumulative_.push_back(total);
    }
}

int
ZipfStream::next()
{
    const double x = rng_.uniform() * cumulative_.back();
    const auto it =
        std::upper_bound(cumulative_.begin(), cumulative_.end(), x);
    return std::min(static_cast<int>(it - cumulative_.begin()),
                    static_cast<int>(cumulative_.size()) - 1);
}

ElasticRunConfig
elasticBase(const ChipConfig &cfg)
{
    ElasticRunConfig base;
    base.spec.m = base.spec.k = base.spec.n = 1152;
    base.spec.rows = 4;
    base.spec.cols = 4;
    base.spec.sliceCount = 4;
    base.spec.bytesPerElement = cfg.bytesPerElement;
    base.steps = 12;
    base.functionalState = true;
    return base;
}

std::vector<ElasticRunConfig>
elasticConfigs(const ChipConfig &cfg, const ElasticRunConfig &base,
               Time step_time, std::uint64_t seed)
{
    // The checkpoint is the live state (A, B, W shards) written to a
    // shared 400 GB/s target; fault parameters scale off the measured
    // step, as in `elastic_report`.
    const int chips = base.spec.chips();
    const Bytes live_bytes_per_chip =
        static_cast<Bytes>(base.spec.bytesPerElement) *
        (base.spec.m * base.spec.k + base.spec.k * base.spec.n +
         base.spec.m * base.spec.n) /
        chips;
    const Rate ckpt_bw = 400e9;
    const Time t_ckpt =
        cfg.launchOverhead +
        static_cast<double>(live_bytes_per_chip) /
            std::min(cfg.hbmBandwidth, ckpt_bw / chips) +
        cfg.syncLatency;

    Rng rng(deriveSeed(seed, 3));
    std::vector<ElasticRunConfig> configs;
    for (int i = 0; i < 8; ++i) {
        ElasticRunConfig run = base;
        run.checkpointBytesPerChip = live_bytes_per_chip;
        run.checkpointTargetBandwidth = ckpt_bw;
        run.checkpointInterval = 2.0 * step_time;
        run.restartTime = 1.5 * step_time;
        run.functionalSeed = jsonSafe(rng.next());
        run.haveScenario = true;
        run.scenario.seed = jsonSafe(rng.next());
        run.scenario.detectionLatency = 0.3 * step_time;
        // Die inside step done+1, after floor(done/2) checkpoints.
        const int done = 2 + rng.below(7);
        const double into_step = 0.2 + 0.6 * rng.uniform();
        KillFault kill;
        kill.pattern = "chip" + std::to_string(rng.below(chips)) + ".";
        kill.at = (done + into_step) * step_time + (done / 2) * t_ckpt;
        run.scenario.kills.push_back(kill);
        configs.push_back(run);
    }
    return configs;
}

} // namespace perfbench
