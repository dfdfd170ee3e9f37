/**
 * @file
 * Microbenchmark of the host-side hot paths this repo's design depends
 * on: the blocked multithreaded `Matrix::gemmAcc` kernel, the
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
 * semantics); the "eager" simulator baseline is the legacy per-event
 * full accounting sweep. Speedups are therefore vs the pre-PR serial
 * behaviour; pool speedups scale with the host's core count.
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

#include "bench/common.hpp"
#include "core/fault_study.hpp"
#include "core/taskgraph.hpp"
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
 *  torus (the real executor schedule, driven manually so eager runs
 *  can stop after `max_events` instead of simulating to completion). */
struct SimRunMeasurement
{
    Time simTime = 0.0;
    std::uint64_t events = 0;
    double wallMs = 0.0;
    bool completed = false;
};

SimRunMeasurement
runTorusGemm(const ChipConfig &cfg, int rows, int cols, bool eager,
             std::uint64_t max_events)
{
    Cluster cluster(cfg, rows * cols);
    cluster.net().setEagerAccounting(eager);
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
    bool finished = false;
    const auto start = std::chrono::steady_clock::now();
    graph.start([&finished] { finished = true; });
    if (max_events == 0) {
        cluster.sim().run();
    } else {
        // Partial run: advance in doubling sim-time slices until the
        // event budget is spent (the eager sweep is O(resources) per
        // event — a full 10k-chip run would take minutes).
        Time deadline = 1e-7;
        while (!finished && cluster.sim().eventsProcessed() < max_events) {
            cluster.sim().runUntil(deadline);
            deadline *= 2.0;
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    out.wallMs =
        std::chrono::duration<double, std::milli>(stop - start).count();
    out.simTime = cluster.sim().now();
    out.events = cluster.sim().eventsProcessed();
    out.completed = finished;
    if (!finished) {
        // Drain the partial run: in-flight collectives hold
        // self-deleting join state that only frees on completion, so
        // abandoning the simulation here would leak it (LeakSanitizer
        // flags the smoke run). Batched accounting makes the drain
        // cost seconds where the eager sweep would take minutes; the
        // measurement above is already taken, so the mode switch
        // cannot skew it.
        cluster.net().setEagerAccounting(false);
        cluster.sim().run();
    }
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
    const Matrix a = Matrix::random(dim, dim, 1);
    const Matrix b = Matrix::random(dim, dim, 2);

    Matrix c_naive(dim, dim);
    const double naive_ms =
        wallMs([&] { naiveGemmAcc(a, b, c_naive); });

    ThreadPool::setGlobalThreads(1);
    Matrix c_serial(dim, dim);
    const double blocked_serial_ms =
        wallMs([&] { Matrix::gemmAcc(a, b, c_serial); });

    ThreadPool::setGlobalThreads(host_threads);
    Matrix c_parallel(dim, dim);
    const double blocked_parallel_ms =
        wallMs([&] { Matrix::gemmAcc(a, b, c_parallel); });

    if (c_parallel.maxAbsDiff(c_naive) != 0.0 ||
        c_serial.maxAbsDiff(c_naive) != 0.0) {
        std::cerr << "FAIL: kernel results diverge from naive loop\n";
        return 1;
    }

    const double gemm_speedup = naive_ms / blocked_parallel_ms;
    std::cout << "gemm " << dim << "^3:\n"
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

    // ---- Simulator throughput (a): in-run event batching. One
    // MeshSlice GeMM on a large torus, batched (default, lazy
    // accounting) run to completion vs the legacy eager sweep run over
    // a partial event budget (a full eager run at this scale is
    // minutes). events/sec is the comparable number.
    const int torus = args.smoke ? 32 : 100;
    const std::uint64_t eager_budget = args.smoke ? 2000 : 5000;
    std::cout << "sim_throughput: " << torus << "x" << torus
              << " torus (" << torus * torus << " chips)...\n";
    const SimRunMeasurement batched =
        runTorusGemm(cfg, torus, torus, /*eager=*/false,
                     /*max_events=*/0);
    const SimRunMeasurement eager =
        runTorusGemm(cfg, torus, torus, /*eager=*/true, eager_budget);
    const double batched_eps =
        static_cast<double>(batched.events) / (batched.wallMs * 1e-3);
    const double eager_eps =
        static_cast<double>(eager.events) / (eager.wallMs * 1e-3);
    const double batching_speedup = batched_eps / eager_eps;
    std::cout << "  batched (full run)   " << batched.events
              << " events in " << batched.wallMs << " ms = "
              << batched_eps << " events/s\n"
              << "  eager (partial run)  " << eager.events
              << " events in " << eager.wallMs << " ms = " << eager_eps
              << " events/s\n"
              << "  batching speedup     " << batching_speedup << "x\n";

    // Cross-mode identity at a size where the eager sweep can run to
    // completion: flow completion times and event counts must not
    // depend on the accounting mode.
    const int id_torus = args.smoke ? 16 : 32;
    const SimRunMeasurement id_batched =
        runTorusGemm(cfg, id_torus, id_torus, /*eager=*/false, 0);
    const SimRunMeasurement id_eager =
        runTorusGemm(cfg, id_torus, id_torus, /*eager=*/true, 0);
    const bool identical_time = id_batched.simTime == id_eager.simTime;
    const bool identical_events =
        id_batched.events == id_eager.events;
    std::cout << "  identity @ " << id_torus << "x" << id_torus
              << ": time " << (identical_time ? "OK" : "MISMATCH")
              << ", events "
              << (identical_events ? "OK" : "MISMATCH") << "\n";
    if (!identical_time || !identical_events) {
        std::cerr << "FAIL: eager vs batched accounting diverged\n";
        return 1;
    }

    // ---- Simulator throughput (b): concurrent candidate simulations.
    // The robust tuner's (candidate, scenario) grid — each cell a full
    // simulator run on a private cluster — serial pool vs 8 threads.
    // The pick must be bit-identical either way.
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
    ThreadPool::setGlobalThreads(1);
    RobustTuneResult rob_serial;
    const double cand_serial_ms =
        wallMs([&] { rob_serial = tune_robust(); });
    ThreadPool::setGlobalThreads(pool_threads_cand);
    RobustTuneResult rob_pool;
    const double cand_pool_ms = wallMs([&] { rob_pool = tune_robust(); });
    ThreadPool::setGlobalThreads(host_threads);

    bool picks_identical =
        rob_serial.pickedIndex == rob_pool.pickedIndex &&
        rob_serial.candidates.size() == rob_pool.candidates.size();
    if (picks_identical)
        for (size_t i = 0; i < rob_serial.candidates.size(); ++i)
            picks_identical =
                picks_identical &&
                rob_serial.candidates[i].plan.rows ==
                    rob_pool.candidates[i].plan.rows &&
                rob_serial.candidates[i].plan.cols ==
                    rob_pool.candidates[i].plan.cols &&
                rob_serial.candidates[i].objective ==
                    rob_pool.candidates[i].objective;
    const double cand_serial_cps =
        static_cast<double>(cells) / (cand_serial_ms * 1e-3);
    const double cand_pool_cps =
        static_cast<double>(cells) / (cand_pool_ms * 1e-3);
    std::cout << "  candidates: " << cells << " cells, serial "
              << cand_serial_ms << " ms (" << cand_serial_cps
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
         << "      \"completed\": "
         << (batched.completed ? "true" : "false") << ",\n"
         << "      \"sim_s\": " << batched.simTime << "\n"
         << "    },\n"
         << "    \"eager\": {\n"
         << "      \"events\": " << eager.events << ",\n"
         << "      \"wall_ms\": " << eager.wallMs << ",\n"
         << "      \"events_per_sec\": " << eager_eps << ",\n"
         << "      \"completed\": "
         << (eager.completed ? "true" : "false") << ",\n"
         << "      \"partial\": true\n"
         << "    },\n"
         << "    \"batching_speedup\": " << batching_speedup << ",\n"
         << "    \"identity_check\": {\n"
         << "      \"torus\": " << id_torus << ",\n"
         << "      \"identical_time\": "
         << (identical_time ? "true" : "false") << ",\n"
         << "      \"identical_events\": "
         << (identical_events ? "true" : "false") << "\n"
         << "    },\n"
         << "    \"candidates\": {\n"
         << "      \"chips\": " << rob_chips << ",\n"
         << "      \"top_k\": " << rcfg.topK << ",\n"
         << "      \"scenarios\": " << rcfg.numScenarios << ",\n"
         << "      \"cells\": " << cells << ",\n"
         << "      \"pool_threads\": " << pool_threads_cand << ",\n"
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
