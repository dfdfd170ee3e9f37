/**
 * @file
 * Exercises the whole observability layer on one GPT-3 transformer
 * block and reports what it costs and what it shows:
 *
 *  - runs the block's 12 FC GeMMs under every algorithm (2D autotuned,
 *    1D on a ring) with the stats registry enabled, and summarizes the
 *    per-algorithm overlap metrics (compute-bound fraction, overlap
 *    efficiency) plus the collective phase breakdown
 *    (launch/transfer/sync/bubble — the Fig 10 decomposition);
 *  - re-runs MeshSlice with Chrome tracing on and writes
 *    `observability_trace.json` (load in Perfetto / chrome://tracing),
 *    `observability_stats.json` (the registry dump) and
 *    `tuner_search.jsonl` (one line per autotuner candidate);
 *  - checks the resource accounting conservation law
 *    (busy + idle == observed wall time, per resource);
 *  - measures the telemetry overhead: instrumented vs dark wall time
 *    of the same simulation, and the ns/call of a disabled-registry
 *    mutation (the no-op fast path).
 *
 * Emits `BENCH_observability.json` in the working directory (or at
 * `--out`). CLI: the shared `BenchArgs` (`[chips] [--out PATH]`; the
 * sweep has no smoke variant, so `--smoke` runs it unchanged).
 */
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "net/topology.hpp"
#include "sim/stats.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

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

/** Aggregated outcome of one algorithm's block run. */
struct AlgoRun
{
    Algorithm algo;
    int rows = 0;
    int cols = 0;
    Time fcTime = 0.0;
    Flops flops = 0.0;
    Time commWall = 0.0;   ///< issued collective wall time, both dirs
    Time computeBusy = 0.0;
    Time exposedComm = 0.0;
    double utilization = 0.0;
    double hostMs = 0.0;   ///< host wall time of the simulation
    std::uint64_t events = 0; ///< simulator events processed
};

double
overlapEff(const AlgoRun &r)
{
    if (r.commWall <= 0.0)
        return 1.0;
    const double eff = (r.commWall - r.exposedComm) / r.commWall;
    return eff < 0.0 ? 0.0 : (eff > 1.0 ? 1.0 : eff);
}

double
computeBoundFrac(const AlgoRun &r)
{
    return r.fcTime > 0.0 ? r.computeBusy / r.fcTime : 0.0;
}

/**
 * Simulate one block under @p algo, optionally instrumented. When
 * @p trace_path is non-empty the Chrome trace, registry dump and
 * conservation residual are produced from the run's cluster.
 */
AlgoRun
runBlock(const ChipConfig &cfg, const TransformerConfig &model,
         const TrainingConfig &train, int chips, Algorithm algo,
         const CostModel &cost, bool instrument,
         const std::string &trace_path = "",
         const std::string &stats_path = "",
         double *conservation_residual = nullptr,
         std::map<std::string, StatSnapshot> *collective_stats = nullptr)
{
    AlgoRun out;
    out.algo = algo;
    const auto accumulate = [&out](const GemmRunResult &res) {
        out.fcTime += res.time;
        out.flops += res.flops;
        out.commWall += res.horizontal.total + res.vertical.total;
        out.computeBusy += res.computeBusy;
        out.exposedComm += res.exposedComm;
    };

    if (algo == Algorithm::kOneDTP || algo == Algorithm::kFsdp) {
        Cluster cluster(cfg, chips);
        cluster.stats().enable(instrument);
        cluster.trace().enable(instrument && !trace_path.empty());
        RingNetwork net(cluster);
        out.hostMs = wallMs([&] {
            for (const FcGemm &gemm : blockFcGemms(model, train)) {
                Gemm1DSpec spec = baseline1DSpec(
                    algo, GemmWork{gemm.m, gemm.k, gemm.n},
                    gemm.pass == Pass::kBackwardWeight, chips, 1,
                    cfg.bytesPerElement);
                spec.sliceCount = cost.tune1DSliceCount(spec);
                accumulate(runGemm1D(net, spec, algo));
            }
        });
        out.events = cluster.sim().eventsProcessed();
        out.rows = 1;
        out.cols = chips;
    } else {
        LlmAutotuner tuner(cost);
        const AutotuneResult plan = tuner.tuneForAlgorithm(
            algo, model, train, chips, /*optimize_dataflow=*/true);
        Cluster cluster(cfg, chips);
        cluster.stats().enable(instrument);
        cluster.trace().enable(instrument && !trace_path.empty());
        TorusMesh mesh(cluster, plan.rows, plan.cols);
        GemmExecutor exec(mesh);
        out.hostMs = wallMs([&] {
            for (const GemmPlan &gemm_plan : plan.allPlans()) {
                const Gemm2DSpec spec = makeSpec(
                    gemm_plan.gemm, gemm_plan.dataflow, plan.rows,
                    plan.cols, gemm_plan.sliceCount,
                    cfg.bytesPerElement);
                accumulate(exec.run(algo, spec));
            }
        });
        out.events = cluster.sim().eventsProcessed();
        out.rows = plan.rows;
        out.cols = plan.cols;

        if (instrument) {
            cluster.collectResourceStats(cluster.stats());
            if (conservation_residual != nullptr) {
                // busy + idle must equal each resource's observed wall
                // time; report the worst absolute residual (seconds).
                double worst = 0.0;
                for (const StatSnapshot &s :
                     cluster.stats().snapshot()) {
                    const std::string &n = s.name;
                    const size_t tail = n.rfind("/busy_s");
                    if (tail == std::string::npos ||
                        tail + 7 != n.size())
                        continue;
                    const std::string base = n.substr(0, tail);
                    const double busy = s.value;
                    const double idle =
                        cluster.stats().counter(base + "/idle_s");
                    const double observed =
                        cluster.stats().counter(base + "/observed_s");
                    worst = std::max(
                        worst, std::fabs(busy + idle - observed));
                }
                *conservation_residual = worst;
            }
            if (collective_stats != nullptr)
                for (const StatSnapshot &s : cluster.stats().snapshot())
                    if (s.name.rfind("collective/", 0) == 0)
                        (*collective_stats)[s.name] = s;
            if (!stats_path.empty())
                cluster.stats().writeJson(stats_path);
            if (!trace_path.empty())
                cluster.trace().writeJson(trace_path);
        }
    }

    out.utilization =
        out.fcTime > 0.0
            ? out.flops /
                  (out.fcTime * cfg.peakFlops * static_cast<double>(chips))
            : 0.0;
    return out;
}

/** ns/call of a disabled-registry mutation (the no-op fast path). */
double
disabledNoopNs()
{
    StatsRegistry reg; // disabled by default
    const std::string name = "hot/loop/counter";
    const long iters = 20'000'000;
    long sink = 0;
    const double ms = wallMs([&] {
        for (long i = 0; i < iters; ++i) {
            if (reg.enabled())
                reg.add(name, 1.0);
            else
                ++sink; // keep the branch observable
        }
    });
    if (sink != iters)
        std::abort(); // enabled() misbehaved; also defeats elision
    return ms * 1e6 / static_cast<double>(iters);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv);
    const int chips = args.chips;
    const ChipConfig cfg = tpuV4Config();
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(chips);

    // Record every autotuner candidate this report evaluates.
    if (!SearchTrace::global().open("tuner_search.jsonl"))
        std::cerr << "warning: cannot open tuner_search.jsonl\n";

    const CostModel cost = CostModel::calibrated(cfg);

    std::cout << "observability_report: GPT-3 block, " << chips
              << " chips\n\n";

    // ---- Per-algorithm runs, instrumented. MeshSlice also produces
    // the trace/stats artifacts and the conservation check.
    double conservation = -1.0;
    std::map<std::string, StatSnapshot> coll;
    std::vector<AlgoRun> runs;
    for (Algorithm algo : allAlgorithms()) {
        const bool flagship = algo == Algorithm::kMeshSlice;
        runs.push_back(runBlock(
            cfg, model, train, chips, algo, cost, /*instrument=*/true,
            flagship ? "observability_trace.json" : "",
            flagship ? "observability_stats.json" : "",
            flagship ? &conservation : nullptr,
            flagship ? &coll : nullptr));
    }

    Table algo_table({"algo", "mesh", "fc_time_ms", "util",
                      "compute_bound", "overlap_eff"});
    for (const AlgoRun &r : runs)
        algo_table.addRow(
            {algorithmName(r.algo),
             std::to_string(r.rows) + "x" + std::to_string(r.cols),
             Table::num(r.fcTime * 1e3, 3), Table::pct(r.utilization),
             Table::pct(computeBoundFrac(r)),
             Table::pct(overlapEff(r))});
    algo_table.print(std::cout);
    std::cout << "\n";

    // ---- MeshSlice collective phase breakdown (Fig 10 decomposition).
    Table phase_table({"collective", "count", "launch_ms", "transfer_ms",
                       "sync_ms", "bubble_ms", "total_ms"});
    std::vector<std::string> coll_names;
    for (const auto &[name, snap] : coll) {
        (void)snap;
        const size_t tail = name.rfind("/count");
        if (tail != std::string::npos && tail + 6 == name.size())
            coll_names.push_back(
                name.substr(11, tail - 11)); // strip "collective/"
    }
    const auto coll_val = [&coll](const std::string &op,
                                  const char *leaf) {
        const auto it = coll.find("collective/" + op + "/" + leaf);
        return it == coll.end() ? 0.0 : it->second.value;
    };
    for (const std::string &op : coll_names)
        phase_table.addRow({op, Table::num(coll_val(op, "count"), 0),
                            Table::num(coll_val(op, "launch_s") * 1e3, 3),
                            Table::num(coll_val(op, "transfer_s") * 1e3, 3),
                            Table::num(coll_val(op, "sync_s") * 1e3, 3),
                            Table::num(coll_val(op, "bubble_s") * 1e3, 3),
                            Table::num(coll_val(op, "total_s") * 1e3, 3)});
    phase_table.print(std::cout);
    std::cout << "\nconservation: max |busy + idle - observed| = "
              << conservation << " s\n";

    const long search_records = SearchTrace::global().recordCount();
    SearchTrace::global().close();
    std::cout << "tuner_search.jsonl: " << search_records
              << " candidate record(s)\n\n";

    // ---- Overhead: the same MeshSlice simulation dark vs fully
    // instrumented (stats only — tracing allocates per span and is a
    // debugging tool, but report it too), plus the no-op fast path.
    const AlgoRun dark = runBlock(cfg, model, train, chips,
                                  Algorithm::kMeshSlice, cost,
                                  /*instrument=*/false);
    const AlgoRun lit = runBlock(cfg, model, train, chips,
                                 Algorithm::kMeshSlice, cost,
                                 /*instrument=*/true);
    const double overhead =
        dark.hostMs > 0.0 ? lit.hostMs / dark.hostMs : 1.0;
    const double noop_ns = disabledNoopNs();
    // Disabled-path overhead: telemetry guards cost ~noop_ns each and
    // the hot paths evaluate a handful per simulator event; express
    // that against the measured per-event cost of the dark run.
    const double event_ns =
        dark.events > 0
            ? dark.hostMs * 1e6 / static_cast<double>(dark.events)
            : 0.0;
    const double disabled_pct =
        event_ns > 0.0 ? 4.0 * noop_ns / event_ns * 100.0 : 0.0;
    std::cout << "overhead: dark " << dark.hostMs << " ms ("
              << dark.events << " events, " << event_ns
              << " ns/event), instrumented " << lit.hostMs
              << " ms (ratio " << overhead << ")\n"
              << "disabled path: " << noop_ns
              << " ns/guard, ~4 guards/event => " << disabled_pct
              << "% of the dark per-event cost\n";

    // ---- BENCH_observability.json
    const std::string out_path =
        args.out.empty() ? "BENCH_observability.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n  \"chips\": " << chips << ",\n  \"algorithms\": {\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const AlgoRun &r = runs[i];
        json << "    " << jsonString(algorithmName(r.algo)) << ": {\n"
             << "      \"rows\": " << r.rows << ",\n"
             << "      \"cols\": " << r.cols << ",\n"
             << "      \"fc_time_s\": " << jsonNumber(r.fcTime) << ",\n"
             << "      \"utilization\": " << jsonNumber(r.utilization)
             << ",\n"
             << "      \"compute_bound_frac\": "
             << jsonNumber(computeBoundFrac(r)) << ",\n"
             << "      \"overlap_efficiency\": "
             << jsonNumber(overlapEff(r)) << ",\n"
             << "      \"exposed_comm_s\": " << jsonNumber(r.exposedComm)
             << "\n    }" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  },\n  \"meshslice_collectives\": {\n";
    for (size_t i = 0; i < coll_names.size(); ++i) {
        const std::string &op = coll_names[i];
        json << "    " << jsonString(op) << ": {"
             << "\"count\": " << jsonNumber(coll_val(op, "count"))
             << ", \"launch_s\": "
             << jsonNumber(coll_val(op, "launch_s"))
             << ", \"transfer_s\": "
             << jsonNumber(coll_val(op, "transfer_s"))
             << ", \"sync_s\": " << jsonNumber(coll_val(op, "sync_s"))
             << ", \"bubble_s\": " << jsonNumber(coll_val(op, "bubble_s"))
             << ", \"total_s\": " << jsonNumber(coll_val(op, "total_s"))
             << "}" << (i + 1 < coll_names.size() ? "," : "") << "\n";
    }
    json << "  },\n"
         << "  \"conservation_residual_s\": " << jsonNumber(conservation)
         << ",\n"
         << "  \"search_trace_records\": " << search_records << ",\n"
         << "  \"overhead\": {\n"
         << "    \"dark_ms\": " << jsonNumber(dark.hostMs) << ",\n"
         << "    \"instrumented_ms\": " << jsonNumber(lit.hostMs)
         << ",\n"
         << "    \"ratio\": " << jsonNumber(overhead) << ",\n"
         << "    \"dark_events\": " << dark.events << ",\n"
         << "    \"dark_ns_per_event\": " << jsonNumber(event_ns)
         << ",\n"
         << "    \"disabled_noop_ns\": " << jsonNumber(noop_ns) << ",\n"
         << "    \"disabled_overhead_pct\": " << jsonNumber(disabled_pct)
         << "\n  },\n"
         << "  \"artifacts\": [\"observability_trace.json\", "
            "\"observability_stats.json\", \"tuner_search.jsonl\"]\n"
         << "}\n";
    std::cout << "wrote " << out_path
              << ", observability_trace.json, observability_stats.json, "
                 "tuner_search.jsonl\n";
    return 0;
}
