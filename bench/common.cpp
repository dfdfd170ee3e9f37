#include "bench/common.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

[[noreturn]] void
usageError(const char *prog, const char *why, const char *what)
{
    fatal("%s: %s '%s'\nusage: %s [chips] [--seed N] [--mtbf SECONDS] "
          "[--out PATH] [--smoke]", prog, why, what, prog);
}

} // namespace

std::optional<std::int64_t>
parsePositiveInt(const char *text, std::int64_t max)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (errno == ERANGE || *end != '\0' || v <= 0 || v > max)
        return std::nullopt;
    return v;
}

BenchArgs
BenchArgs::parse(int argc, char **argv, int default_chips)
{
    BenchArgs args;
    args.chips = default_chips;
    const char *prog = argc > 0 ? argv[0] : "bench";
    bool chips_set = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (chips_set)
                usageError(prog, "unexpected extra positional argument",
                           arg.c_str());
            const auto v = parsePositiveInt(arg.c_str(), INT_MAX);
            if (!v)
                usageError(prog, "chip count must be a positive integer, "
                           "got", arg.c_str());
            args.chips = static_cast<int>(*v);
            chips_set = true;
            continue;
        }
        // --flag=value or --flag value.
        std::string name = arg;
        std::string value;
        bool inline_value = false;
        if (const size_t eq = arg.find('='); eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            inline_value = true;
        }
        if (name == "--smoke") {
            if (inline_value)
                usageError(prog, "--smoke takes no value, got",
                           value.c_str());
            args.smoke = true;
            continue;
        }
        if (name != "--seed" && name != "--mtbf" && name != "--out")
            usageError(prog, "unknown flag", name.c_str());
        if (!inline_value) {
            if (i + 1 >= argc)
                usageError(prog, "missing value for flag", name.c_str());
            value = argv[++i];
        }
        if (name == "--seed") {
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(value.c_str(), &end, 10);
            if (!end || *end != '\0' || value.empty() || value[0] == '-')
                usageError(prog, "--seed must be a non-negative integer, "
                           "got", value.c_str());
            args.seed = static_cast<std::uint64_t>(v);
        } else if (name == "--mtbf") {
            char *end = nullptr;
            const double v = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || !(v > 0.0) || !std::isfinite(v))
                usageError(prog, "--mtbf must be a positive number of "
                           "seconds, got", value.c_str());
            args.mtbf = v;
        } else { // --out (the name set is checked above)
            if (value.empty())
                usageError(prog, "--out needs a non-empty path, got",
                           value.c_str());
            args.out = value;
        }
    }
    return args;
}

double
utilizationOf(const ChipConfig &cfg, const GemmRunResult &result, int chips)
{
    return result.utilization(cfg, chips);
}

double
timedRepeatMs(const std::function<double()> &run)
{
    double ms = 0.0;
    int calls = 0;
    do {
        ms += run();
        ++calls;
    } while (ms < kMinRepeatMs);
    return ms / calls;
}

double
medianOf(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t mid = samples.size() / 2;
    return samples.size() % 2 == 1
               ? samples[mid]
               : 0.5 * (samples[mid - 1] + samples[mid]);
}

GemmRunResult
simulateOneGemm(const ChipConfig &cfg, Algorithm algo,
                const Gemm2DSpec &spec)
{
    Cluster cluster(cfg, spec.chips());
    TorusMesh mesh(cluster, spec.rows, spec.cols);
    GemmExecutor exec(mesh);
    return exec.run(algo, spec);
}

FcSimResult
simulateFcBlock(const ChipConfig &cfg, const TransformerConfig &model,
                const TrainingConfig &train, int chips, Algorithm algo,
                bool optimize_dataflow, const ChipConfig *plan_cfg)
{
    FcSimResult out;
    // The plan (mesh shape, dataflows, slice counts) may be made for a
    // different configuration than the one executed — e.g. Table 3
    // deploys an overlap-tuned plan on hardware that cannot overlap.
    CostModel cost = CostModel::calibrated(plan_cfg ? *plan_cfg : cfg);

    if (algo == Algorithm::kOneDTP || algo == Algorithm::kFsdp) {
        Cluster cluster(cfg, chips);
        RingNetwork net(cluster);
        for (const FcGemm &gemm : blockFcGemms(model, train)) {
            Gemm1DSpec spec = baseline1DSpec(
                algo, GemmWork{gemm.m, gemm.k, gemm.n},
                gemm.pass == Pass::kBackwardWeight, chips, 1,
                cfg.bytesPerElement);
            // Tune S with the analytic pipeline estimate.
            spec.sliceCount = cost.tune1DSliceCount(spec);
            GemmRunResult res = runGemm1D(net, spec, algo);
            out.fcTime += res.time;
            out.fcFlops += res.flops;
            out.comm += res.horizontal;
            out.comm += res.vertical;
            out.computeIdeal += cost.computeTime(spec.localWork());
        }
        out.rows = 1;
        out.cols = chips;
    } else {
        LlmAutotuner tuner(cost);
        AutotuneResult plan = tuner.tuneForAlgorithm(
            algo, model, train, chips, optimize_dataflow);
        Cluster cluster(cfg, chips);
        TorusMesh mesh(cluster, plan.rows, plan.cols);
        GemmExecutor exec(mesh);
        // Identical specs give identical timing: simulate each
        // distinct one once and count it per occurrence.
        const DistinctGemmSpecs distinct =
            distinctGemmSpecs(plan, plan.allPlans(), cfg.bytesPerElement);
        std::vector<GemmRunResult> runs;
        for (const Gemm2DSpec &spec : distinct.specs)
            runs.push_back(exec.run(algo, spec));
        for (size_t d : distinct.slot) {
            const GemmRunResult &res = runs[d];
            out.fcTime += res.time;
            out.fcFlops += res.flops;
            out.comm += res.horizontal;
            out.comm += res.vertical;
            Gemm2DSpec whole = distinct.specs[d];
            whole.sliceCount = 1;
            out.computeIdeal += cost.computeTime(localSliceWork(whole));
        }
        out.rows = plan.rows;
        out.cols = plan.cols;
    }

    out.utilization =
        out.fcFlops /
        (out.fcTime * cfg.peakFlops * static_cast<double>(chips));
    return out;
}

Time
endToEndBlockTime(const ChipConfig &cfg, const TransformerConfig &model,
                  const TrainingConfig &train, int chips,
                  const FcSimResult &fc)
{
    return fc.fcTime + nonFcBlockTime(cfg, model, train, chips);
}

} // namespace meshslice
