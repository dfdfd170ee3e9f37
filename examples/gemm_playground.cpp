/**
 * @file
 * Example: a command-line playground for distributed GeMM experiments.
 *
 * Simulates any (M, K, N) GeMM with any algorithm, dataflow, mesh
 * shape and slice count, printing the time, utilization and the
 * launch/transfer/sync communication breakdown. Optionally writes a
 * chrome://tracing timeline of the schedule — a Figure-4-style view of
 * how MeshSlice overlaps communication with computation.
 *
 * Usage:
 *   gemm_playground [algo [M K N [rows cols [S [dataflow [trace.json]]]]]]
 * Example:
 *   gemm_playground meshslice 65536 12288 12288 8 4 8 OS /tmp/t.json
 *
 * Arguments come in complete groups (M K N together, rows cols
 * together); every number must be a whole positive integer. `--help`
 * prints the usage line.
 */
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common.hpp"
#include "core/executor.hpp"
#include "util/logging.hpp"

using namespace meshslice;

namespace {

constexpr const char *kArgs =
    "[algo [M K N [rows cols [S [dataflow [trace.json]]]]]]";

[[noreturn]] void
usageError(const char *prog, const std::string &why)
{
    fatal("%s: %s\nusage: %s %s", prog, why.c_str(), prog, kArgs);
}

/** Argument @p index of @p argv as a positive integer, else fatal. */
std::int64_t
positiveArg(char **argv, int index, const char *what, std::int64_t max)
{
    const auto v = parsePositiveInt(argv[index], max);
    if (!v)
        usageError(argv[0], strprintf("%s must be a positive integer, "
                                      "got '%s'", what, argv[index]));
    return *v;
}

Algorithm
parseAlgo(const char *name)
{
    for (Algorithm algo : allAlgorithms())
        if (strcasecmp(name, algorithmName(algo)) == 0)
            return algo;
    if (strcasecmp(name, "1dtp") == 0)
        return Algorithm::kOneDTP;
    fatal("unknown algorithm '%s' (try: MeshSlice, Collective, Wang, "
          "SUMMA, Cannon)",
          name);
}

Dataflow
parseDataflow(const char *name)
{
    if (strcasecmp(name, "OS") == 0)
        return Dataflow::kOS;
    if (strcasecmp(name, "LS") == 0)
        return Dataflow::kLS;
    if (strcasecmp(name, "RS") == 0)
        return Dataflow::kRS;
    fatal("unknown dataflow '%s' (OS, LS or RS)", name);
}

} // namespace

int
main(int argc, char **argv)
{
    Gemm2DSpec spec;
    Algorithm algo = Algorithm::kMeshSlice;
    spec.m = 65536;
    spec.k = 12288;
    spec.n = 12288;
    spec.rows = 8;
    spec.cols = 4;
    spec.sliceCount = 8;
    spec.dataflow = Dataflow::kOS;
    const char *trace_path = nullptr;

    if (argc > 1 && std::strcmp(argv[1], "--help") == 0) {
        std::printf("usage: %s %s\n", argv[0], kArgs);
        return 0;
    }
    // Complete argument groups only: a partial M K N or rows cols group
    // must not silently fall back to the defaults.
    if (argc == 3 || argc == 4 || argc == 6 || argc > 10)
        usageError(argv[0], strprintf("incomplete or extra arguments (%d "
                                      "given)", argc - 1));
    if (argc > 1)
        algo = parseAlgo(argv[1]);
    if (argc > 4) {
        spec.m = positiveArg(argv, 2, "M", INT64_MAX);
        spec.k = positiveArg(argv, 3, "K", INT64_MAX);
        spec.n = positiveArg(argv, 4, "N", INT64_MAX);
    }
    if (argc > 6) {
        spec.rows = static_cast<int>(positiveArg(argv, 5, "rows", INT_MAX));
        spec.cols = static_cast<int>(positiveArg(argv, 6, "cols", INT_MAX));
        if (static_cast<std::int64_t>(spec.rows) * spec.cols > INT_MAX)
            usageError(argv[0], strprintf("a %dx%d mesh is too large",
                                          spec.rows, spec.cols));
    }
    if (argc > 7)
        spec.sliceCount = static_cast<int>(positiveArg(argv, 7, "S", INT_MAX));
    if (argc > 8)
        spec.dataflow = parseDataflow(argv[8]);
    if (argc > 9)
        trace_path = argv[9];

    if (algo == Algorithm::kOneDTP || algo == Algorithm::kFsdp)
        fatal("the playground drives the 2D executors; for the 1D "
              "baselines see examples/scaling_study");

    const ChipConfig cfg = tpuV4Config();
    Cluster cluster(cfg, spec.chips());
    TorusMesh mesh(cluster, spec.rows, spec.cols);
    if (trace_path)
        cluster.trace().enable(true);

    GemmExecutor exec(mesh);
    GemmRunResult res = exec.run(algo, spec);

    std::printf("%s %s\n", algorithmName(algo), spec.str().c_str());
    std::printf("  time:        %.3f ms\n", res.time * 1e3);
    std::printf("  utilization: %.1f%%\n",
                res.utilization(cfg, spec.chips()) * 100.0);
    auto show = [](const char *name, const CommStats &stats) {
        std::printf("  %s comm: total %.3f ms (launch %.3f, transfer "
                    "%.3f, sync %.3f), %d syncs, %.1f MB/link\n",
                    name, stats.total * 1e3, stats.launch * 1e3,
                    stats.transfer * 1e3, stats.sync * 1e3,
                    stats.syncCount,
                    static_cast<double>(stats.bytesPerLink) / 1e6);
    };
    show("horizontal", res.horizontal);
    show("vertical  ", res.vertical);

    if (trace_path) {
        cluster.trace().writeJson(trace_path);
        std::printf("  wrote %zu trace spans to %s (open in "
                    "chrome://tracing)\n",
                    cluster.trace().spanCount(), trace_path);
    }
    return 0;
}
