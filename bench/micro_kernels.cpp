/**
 * @file
 * Microbenchmark of the host-side hot paths this repo's design depends
 * on: the blocked multithreaded `Matrix::gemmAcc` kernel (its
 * `gemm.kernel` leaf names the instruction-set variant that ran), the
 * autotuner's parallel design-space search, the calibration cache, and
 * — since the parallel-simulation PR — the discrete-event simulator
 * itself (`sim_throughput`: event batching within one run, concurrent
 * candidate simulations across runs). Emits `BENCH_kernels.json` (in
 * the working directory) so the perf trajectory of these paths is
 * tracked across PRs.
 *
 * The "naive" GeMM baseline below is the literal pre-PR kernel
 * (branchy triple loop, single thread); the autotune baseline is the
 * same search forced onto one pool thread (`MESHSLICE_THREADS=1`
 * semantics). Speedups are therefore vs the pre-PR serial behaviour;
 * pool speedups scale with the host's core count.
 *
 * CLI: `micro_kernels [dim] [--smoke] [--out PATH]` (shared BenchArgs;
 * the positional argument is the GeMM dimension). `--smoke` shrinks
 * every sweep but keeps the JSON schema, so `tools/check_json.sh` can
 * validate the artifact in CI.
 */
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/fault_study.hpp"
#include "core/taskgraph.hpp"
#include "gemm/gemm_kernels.hpp"
#include "gemm/matrix.hpp"
#include "model/transformer.hpp"
#include "net/topology.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/robust.hpp"
#include "util/parallel.hpp"

using namespace meshslice;

namespace {

double
wallMs(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

/** The pre-PR `Matrix::gemmAcc`: branchy serial triple loop. */
void
naiveGemmAcc(const Matrix &a, const Matrix &b, Matrix &c)
{
    const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t p = 0; p < k; ++p) {
            const float av = a.at(i, p);
            if (av == 0.0f)
                continue;
            const float *brow = b.data() + p * n;
            float *crow = c.data() + i * n;
            for (std::int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

double
gflops(std::int64_t m, std::int64_t k, std::int64_t n, double ms)
{
    return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
           static_cast<double>(n) / (ms * 1e-3) / 1e9;
}

/** One measured simulator run of a MeshSlice GeMM on a rows x cols
 *  torus (the real executor schedule). */
struct SimRunMeasurement
{
    Time simTime = 0.0;
    std::uint64_t events = 0;
    double wallMs = 0.0;
};

SimRunMeasurement
runTorusGemm(const ChipConfig &cfg, int rows, int cols)
{
    Cluster cluster(cfg, rows * cols);
    TorusMesh mesh(cluster, rows, cols);
    Gemm2DSpec spec;
    spec.m = spec.k = spec.n = 6400;
    spec.dataflow = Dataflow::kOS;
    spec.rows = rows;
    spec.cols = cols;
    spec.sliceCount = 2;
    spec.bytesPerElement = cfg.bytesPerElement;
    TaskGraph graph(cluster.sim());
    GemmRunResult result;
    buildGemmSchedule(graph, mesh, Algorithm::kMeshSlice, spec, &result);

    SimRunMeasurement out;
    const auto start = std::chrono::steady_clock::now();
    out.simTime = graph.run("micro_kernels");
    const auto stop = std::chrono::steady_clock::now();
    out.wallMs =
        std::chrono::duration<double, std::milli>(stop - start).count();
    out.events = cluster.sim().eventsProcessed();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    // The shared bench CLI; the positional argument doubles as the
    // GeMM dimension here.
    const BenchArgs args = BenchArgs::parse(argc, argv, 1024);
    const std::int64_t dim = args.smoke ? 256 : args.chips;
    const int host_threads = ThreadPool::defaultThreadCount();

    std::cout << "micro_kernels: dim=" << dim << " pool_threads="
              << host_threads << " (hardware_concurrency="
              << std::thread::hardware_concurrency() << ")"
              << (args.smoke ? " [smoke]" : "") << "\n\n";

    // ---- GeMM kernel: naive baseline vs blocked serial vs blocked
    // parallel, all computing C += A*B on dim^3. The serial run
    // exercises the single-thread inline dispatch (no pool hand-off);
    // both paths are recorded so the dispatch overhead is visible.
    // The blocked runs use the micro-kernel variant this host picks.
    // Each kernel first computes one untimed product into a fresh C:
    // the bitwise gate below, and the warm-up (pages, caches, the pool
    // `setGlobalThreads` just re-created). Its leaf is then the median
    // of kTimedRepeats timed repeats accumulating into a scratch C.
    const char *kernel = activeGemmKernel().name;
    const Matrix a = Matrix::random(dim, dim, 1);
    const Matrix b = Matrix::random(dim, dim, 2);
    const auto naive = [&](Matrix &c) { naiveGemmAcc(a, b, c); };
    const auto blocked = [&](Matrix &c) { Matrix::gemmAcc(a, b, c); };
    Matrix scratch(dim, dim);
    const auto median_ms = [&](const std::function<void(Matrix &)> &gemm) {
        std::vector<double> runs;
        for (int r = 0; r < kTimedRepeats; ++r)
            runs.push_back(timedRepeatMs(
                [&] { return wallMs([&] { gemm(scratch); }); }));
        return medianOf(runs);
    };

    Matrix c_naive(dim, dim);
    naive(c_naive);
    const double naive_ms = median_ms(naive);

    ThreadPool::setGlobalThreads(1);
    Matrix c_serial(dim, dim);
    blocked(c_serial);
    const double blocked_serial_ms = median_ms(blocked);

    ThreadPool::setGlobalThreads(host_threads);
    Matrix c_parallel(dim, dim);
    blocked(c_parallel);
    const double blocked_parallel_ms = median_ms(blocked);

    if (c_parallel.maxAbsDiff(c_naive) != 0.0 ||
        c_serial.maxAbsDiff(c_naive) != 0.0) {
        std::cerr << "FAIL: kernel results diverge from naive loop\n";
        return 1;
    }

    const double gemm_speedup = naive_ms / blocked_parallel_ms;
    std::cout << "gemm " << dim << "^3 (" << kernel
              << " kernel, median of " << kTimedRepeats << " repeats):\n"
              << "  naive (pre-PR)    " << naive_ms << " ms  "
              << gflops(dim, dim, dim, naive_ms) << " GFLOP/s\n"
              << "  blocked serial    " << blocked_serial_ms << " ms  "
              << gflops(dim, dim, dim, blocked_serial_ms)
              << " GFLOP/s\n"
              << "  blocked parallel  " << blocked_parallel_ms
              << " ms  " << gflops(dim, dim, dim, blocked_parallel_ms)
              << " GFLOP/s\n"
              << "  speedup vs naive  " << gemm_speedup << "x\n\n";

    // ---- Calibration cache: first call simulates, second must not.
    const ChipConfig cfg = tpuV4Config();
    const long runs_before = calibrationRunCount();
    const double calib_first_ms =
        wallMs([&] { (void)CostModel::calibrated(cfg); });
    const double calib_cached_ms =
        wallMs([&] { (void)CostModel::calibrated(cfg); });
    const long calib_runs = calibrationRunCount() - runs_before;
    std::cout << "calibration: first " << calib_first_ms
              << " ms, cached " << calib_cached_ms << " ms ("
              << calib_runs << " simulator run(s))\n\n";

    // ---- Autotuner design-space search (GPT-3-sized): full phase-1 +
    // phase-2 mesh-shape x slice-count search across cluster sizes,
    // serial pool vs full pool. The calibrated cost model is built
    // once above, so this times the search itself.
    const CostModel cost = CostModel::calibrated(cfg);
    const LlmAutotuner tuner(cost);
    const TransformerConfig model = gpt3Config();
    const int reps = args.smoke ? 2 : 20;
    const std::vector<int> chip_counts =
        args.smoke ? std::vector<int>{64, 256}
                   : std::vector<int>{64, 256, 1024, 4096};
    const auto search = [&] {
        for (int r = 0; r < reps; ++r)
            for (int chips : chip_counts) {
                const TrainingConfig train =
                    TrainingConfig::weakScaling(chips);
                (void)tuner.tune(model, train, chips);
            }
    };
    ThreadPool::setGlobalThreads(1);
    const double tune_serial_ms = wallMs(search);
    ThreadPool::setGlobalThreads(host_threads);
    const double tune_parallel_ms = wallMs(search);
    const double tune_speedup = tune_serial_ms / tune_parallel_ms;
    std::cout << "autotune GPT-3 x " << reps << " reps:\n"
              << "  serial (1 thread) " << tune_serial_ms << " ms\n"
              << "  parallel          " << tune_parallel_ms << " ms\n"
              << "  speedup           " << tune_speedup << "x\n\n";

    // ---- Simulator throughput (a): one MeshSlice GeMM on a large
    // torus under the batched (lazy) fluid accounting, timed as the
    // median of kTimedRepeats timed repeats. Every run must repeat an
    // untimed first run's event count and simulated time.
    const int torus = args.smoke ? 32 : 100;
    std::cout << "sim_throughput: " << torus << "x" << torus
              << " torus (" << torus * torus << " chips)...\n";
    SimRunMeasurement batched = runTorusGemm(cfg, torus, torus);
    bool batched_identical = true;
    std::vector<double> batched_runs_ms;
    for (int r = 0; r < kTimedRepeats; ++r)
        batched_runs_ms.push_back(timedRepeatMs([&] {
            const SimRunMeasurement run = runTorusGemm(cfg, torus, torus);
            batched_identical = batched_identical &&
                                run.events == batched.events &&
                                run.simTime == batched.simTime;
            return run.wallMs;
        }));
    batched.wallMs = medianOf(batched_runs_ms);
    const double batched_eps =
        static_cast<double>(batched.events) / (batched.wallMs * 1e-3);
    std::cout << "  batched (full run)   " << batched.events
              << " events in " << batched.wallMs << " ms (median of "
              << kTimedRepeats << " repeats) = " << batched_eps
              << " events/s\n";
    if (!batched_identical) {
        std::cerr << "FAIL: repeated torus runs diverge\n";
        return 1;
    }

    // ---- Simulator throughput (b): concurrent candidate simulations.
    // The robust tuner's (candidate, scenario) grid — each cell a
    // candidate's GeMMs simulated on private clusters — serial pool vs
    // 8 threads, alternated and timed as medians of kTimedRepeats
    // timed repeats. Every run's pick must equal an untimed serial
    // run's.
    RobustTuneConfig rcfg;
    rcfg.topK = 3;
    rcfg.numScenarios = args.smoke ? 2 : 4;
    rcfg.maxGemmsPerEval = 2;
    const TrainingConfig rob_train{32, 2048};
    const int rob_chips = 16;
    const int cells = rcfg.topK * rcfg.numScenarios;
    const int pool_threads_cand = 8;

    auto tune_robust = [&] {
        return tuneRobustShortlist(
            tuner, Algorithm::kMeshSlice,
            tuner.rankShapes(Algorithm::kMeshSlice, model, rob_train,
                             rob_chips, rcfg.topK),
            rob_chips, rcfg);
    };
    const auto same_picks = [](const RobustTuneResult &a,
                               const RobustTuneResult &b) {
        bool same = a.pickedIndex == b.pickedIndex &&
                    a.candidates.size() == b.candidates.size();
        for (size_t i = 0; same && i < a.candidates.size(); ++i)
            same = a.candidates[i].plan.rows == b.candidates[i].plan.rows &&
                   a.candidates[i].plan.cols == b.candidates[i].plan.cols &&
                   a.candidates[i].objective == b.candidates[i].objective;
        return same;
    };
    ThreadPool::setGlobalThreads(1);
    const RobustTuneResult rob_first = tune_robust();
    bool picks_identical = true;
    const auto timed_tune = [&] {
        RobustTuneResult rob;
        const double ms = wallMs([&] { rob = tune_robust(); });
        picks_identical = picks_identical && same_picks(rob_first, rob);
        return ms;
    };
    std::vector<double> serial_runs_ms;
    std::vector<double> pool_runs_ms;
    for (int r = 0; r < kTimedRepeats; ++r) {
        ThreadPool::setGlobalThreads(1);
        serial_runs_ms.push_back(timedRepeatMs(timed_tune));
        ThreadPool::setGlobalThreads(pool_threads_cand);
        pool_runs_ms.push_back(timedRepeatMs(timed_tune));
    }
    ThreadPool::setGlobalThreads(host_threads);
    const double cand_serial_ms = medianOf(serial_runs_ms);
    const double cand_pool_ms = medianOf(pool_runs_ms);
    const double cand_serial_cps =
        static_cast<double>(cells) / (cand_serial_ms * 1e-3);
    const double cand_pool_cps =
        static_cast<double>(cells) / (cand_pool_ms * 1e-3);
    std::cout << "  candidates: " << cells << " cells, median of "
              << kTimedRepeats << " repeats: serial " << cand_serial_ms
              << " ms (" << cand_serial_cps
              << "/s), pool(" << pool_threads_cand << ") "
              << cand_pool_ms << " ms (" << cand_pool_cps
              << "/s), picks "
              << (picks_identical ? "identical" : "DIVERGED") << "\n\n";
    if (!picks_identical) {
        std::cerr << "FAIL: robust pick depends on thread count\n";
        return 1;
    }

    const std::string out_path =
        args.out.empty() ? "BENCH_kernels.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n"
         << "  \"pool_threads\": " << host_threads << ",\n"
         << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"smoke\": " << (args.smoke ? "true" : "false") << ",\n"
         << "  \"gemm\": {\n"
         << "    \"kernel\": \"" << kernel << "\",\n"
         << "    \"dim\": " << dim << ",\n"
         << "    \"naive_ms\": " << naive_ms << ",\n"
         << "    \"blocked_serial_ms\": " << blocked_serial_ms << ",\n"
         << "    \"blocked_parallel_ms\": " << blocked_parallel_ms
         << ",\n"
         << "    \"naive_gflops\": " << gflops(dim, dim, dim, naive_ms)
         << ",\n"
         << "    \"blocked_parallel_gflops\": "
         << gflops(dim, dim, dim, blocked_parallel_ms) << ",\n"
         << "    \"speedup_vs_naive\": " << gemm_speedup << "\n"
         << "  },\n"
         << "  \"calibration\": {\n"
         << "    \"first_ms\": " << calib_first_ms << ",\n"
         << "    \"cached_ms\": " << calib_cached_ms << ",\n"
         << "    \"simulator_runs\": " << calib_runs << "\n"
         << "  },\n"
         << "  \"autotune_gpt3\": {\n"
         << "    \"chip_counts\": [";
    for (size_t i = 0; i < chip_counts.size(); ++i)
        json << (i ? ", " : "") << chip_counts[i];
    json << "],\n"
         << "    \"reps\": " << reps << ",\n"
         << "    \"serial_ms\": " << tune_serial_ms << ",\n"
         << "    \"parallel_ms\": " << tune_parallel_ms << ",\n"
         << "    \"speedup\": " << tune_speedup << "\n"
         << "  },\n"
         << "  \"sim_throughput\": {\n"
         << "    \"torus_rows\": " << torus << ",\n"
         << "    \"torus_cols\": " << torus << ",\n"
         << "    \"chips\": " << torus * torus << ",\n"
         << "    \"batched\": {\n"
         << "      \"events\": " << batched.events << ",\n"
         << "      \"wall_ms\": " << batched.wallMs << ",\n"
         << "      \"events_per_sec\": " << batched_eps << ",\n"
         << "      \"repeats\": " << kTimedRepeats << ",\n"
         << "      \"completed\": true,\n"
         << "      \"sim_s\": " << batched.simTime << "\n"
         << "    },\n"
         << "    \"candidates\": {\n"
         << "      \"chips\": " << rob_chips << ",\n"
         << "      \"top_k\": " << rcfg.topK << ",\n"
         << "      \"scenarios\": " << rcfg.numScenarios << ",\n"
         << "      \"cells\": " << cells << ",\n"
         << "      \"pool_threads\": " << pool_threads_cand << ",\n"
         << "      \"repeats\": " << kTimedRepeats << ",\n"
         << "      \"serial_ms\": " << cand_serial_ms << ",\n"
         << "      \"pool_ms\": " << cand_pool_ms << ",\n"
         << "      \"serial_candidates_per_sec\": " << cand_serial_cps
         << ",\n"
         << "      \"pool_candidates_per_sec\": " << cand_pool_cps
         << ",\n"
         << "      \"speedup\": " << cand_serial_ms / cand_pool_ms
         << ",\n"
         << "      \"picks_identical\": "
         << (picks_identical ? "true" : "false") << "\n"
         << "    }\n"
         << "  }\n"
         << "}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
