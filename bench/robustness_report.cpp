/**
 * @file
 * Robustness report: how gracefully does each distributed-GeMM
 * algorithm degrade when the cluster does?
 *
 *  - Severity sweep: one large FC GeMM under uniform ICI-link
 *    degradation (all links at (1-severity) x nominal bandwidth) for
 *    MeshSlice, SUMMA, Collective and FSDP. Step time must be monotone
 *    non-decreasing in severity — the report checks and records it.
 *  - Slice-count sensitivity: MeshSlice's slowdown at a fixed severity
 *    as a function of S (more slices = more, smaller transfers to
 *    hide — and more sync boundaries for jitter to hit).
 *  - Straggler row: the same GeMM with one straggler chip.
 *  - Robust-vs-nominal autotuning: `tuneRobustShortlist` under directional
 *    link-degradation scenarios; records whether the robust objective
 *    picks a different mesh shape than the fault-free optimum.
 *
 * Emits `BENCH_robustness.json` plus `robustness_scenario.json` (an
 * example scenario in the JSON schema `FaultScenario::fromJson`
 * accepts) in the working directory.
 */
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/fault_study.hpp"
#include "sim/fault.hpp"
#include "tuner/robust.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace meshslice;

namespace {

/** Uniform all-link degradation at @p severity in [0, 1). */
FaultScenario
uniformLinkScenario(double severity, std::uint64_t seed)
{
    FaultScenario s;
    s.seed = seed;
    CapacityFault f;
    f.pattern = "link."; // every ICI link, any topology
    f.factor = 1.0 - severity;
    f.start = 0.0;
    f.duration = -1.0;
    s.faults.push_back(std::move(f));
    return s;
}

struct SweepRow
{
    Algorithm algo;
    std::vector<Time> times; ///< per severity
    bool monotone = true;
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv, 16);
    const int chips = args.chips;
    const ChipConfig cfg = tpuV4Config();

    if (!SearchTrace::global().open("robust_search.jsonl"))
        std::cerr << "warning: cannot open robust_search.jsonl\n";

    // The executor-test GeMM: large enough that communication matters.
    Gemm2DSpec spec;
    spec.m = 16384;
    spec.k = 4096;
    spec.n = 8192;
    spec.dataflow = Dataflow::kOS;
    spec.rows = 4;
    spec.cols = chips / 4;
    spec.sliceCount = 8;
    spec.bytesPerElement = cfg.bytesPerElement;

    const std::vector<double> severities = {0.0, 0.1, 0.25, 0.5, 0.75};
    const std::vector<Algorithm> sweep_algos = {
        Algorithm::kMeshSlice, Algorithm::kSumma, Algorithm::kCollective,
        Algorithm::kFsdp};

    std::cout << "robustness_report: " << spec.str() << " on " << chips
              << " chips\n\n";

    // ---- Severity sweep.
    std::vector<SweepRow> sweep;
    for (Algorithm algo : sweep_algos) {
        SweepRow row;
        row.algo = algo;
        for (double severity : severities) {
            Time t;
            if (severity == 0.0) {
                t = runGemmUnderScenario(cfg, algo, spec, nullptr).time;
            } else {
                const FaultScenario scenario =
                    uniformLinkScenario(severity, args.seed);
                t = runGemmUnderScenario(cfg, algo, spec, &scenario).time;
            }
            if (!row.times.empty() && t < row.times.back() * (1.0 - 1e-9))
                row.monotone = false;
            row.times.push_back(t);
        }
        sweep.push_back(std::move(row));
    }

    Table sweep_table({"algo", "s=0", "s=0.1", "s=0.25", "s=0.5",
                       "s=0.75", "monotone"});
    for (const SweepRow &row : sweep) {
        std::vector<std::string> cells = {algorithmName(row.algo)};
        for (Time t : row.times)
            cells.push_back(Table::num(t * 1e3, 3));
        cells.push_back(row.monotone ? "yes" : "NO");
        sweep_table.addRow(cells);
    }
    std::cout << "step time (ms) vs link-degradation severity:\n";
    sweep_table.print(std::cout);
    std::cout << "\n";

    // ---- Slice-count sensitivity of MeshSlice at severity 0.5.
    const double sens_severity = 0.5;
    const FaultScenario sens_scenario =
        uniformLinkScenario(sens_severity, args.seed);
    std::vector<int> slice_counts;
    std::vector<double> slice_slowdowns;
    for (int s : validSliceCounts(cfg, spec, 16)) {
        Gemm2DSpec sspec = spec;
        sspec.sliceCount = s;
        const Time nom = runGemmUnderScenario(cfg, Algorithm::kMeshSlice,
                                              sspec, nullptr)
                             .time;
        const Time bad = runGemmUnderScenario(cfg, Algorithm::kMeshSlice,
                                              sspec, &sens_scenario)
                             .time;
        slice_counts.push_back(s);
        slice_slowdowns.push_back(nom > 0.0 ? bad / nom : 1.0);
    }

    // ---- Straggler study: one slow chip, all seven algorithms the
    // mesh supports, exposed-comm / overlap deltas via the registry.
    FaultScenario straggler;
    straggler.seed = args.seed + 1;
    StragglerFault slow_chip;
    slow_chip.chip = 0;
    slow_chip.computeFactor = 0.6;
    slow_chip.hbmFactor = 0.6;
    straggler.stragglers.push_back(slow_chip);
    StatsRegistry study_stats;
    study_stats.enable(true);
    const FaultStudyResult study = runFaultStudy(
        cfg, spec, straggler, sweep_algos, &study_stats);

    Table study_table({"algo", "nominal_ms", "straggler_ms", "slowdown",
                       "overlap_delta"});
    for (const FaultStudyEntry &e : study.entries)
        study_table.addRow({algorithmName(e.algo),
                            Table::num(e.nominal.time * 1e3, 3),
                            Table::num(e.faulted.time * 1e3, 3),
                            Table::num(e.slowdown, 3),
                            Table::num(e.overlapDelta, 4)});
    std::cout << "one straggler chip (core/HBM at 60%):\n";
    study_table.print(std::cout);
    std::cout << "\n";

    // ---- Robust-vs-nominal autotuning. Directional degradation makes
    // ring length matter: vertical (column-ring) faults penalize tall
    // meshes, so the robust pick should move toward wider shapes.
    const TransformerConfig model = gpt3Config();
    const TrainingConfig train = TrainingConfig::weakScaling(chips);
    const CostModel cost = CostModel::calibrated(cfg);
    const LlmAutotuner tuner(cost);

    std::vector<FaultScenario> tuner_scenarios;
    {
        FaultScenario vertical;
        vertical.seed = args.seed + 2;
        for (const char *dir : {"link.S", "link.N"}) {
            CapacityFault f;
            f.pattern = dir;
            f.factor = 0.15;
            f.duration = -1.0;
            vertical.faults.push_back(std::move(f));
        }
        tuner_scenarios.push_back(vertical);

        FaultScenario horizontal;
        horizontal.seed = args.seed + 3;
        for (const char *dir : {"link.E", "link.W"}) {
            CapacityFault f;
            f.pattern = dir;
            f.factor = 0.15;
            f.duration = -1.0;
            horizontal.faults.push_back(std::move(f));
        }
        tuner_scenarios.push_back(horizontal);
    }

    struct TunerCase
    {
        std::string label;
        RobustTuneResult result;
    };
    std::vector<TunerCase> tuner_cases;
    bool any_pick_differs = false;
    for (size_t i = 0; i < tuner_scenarios.size(); ++i) {
        RobustTuneConfig rcfg;
        rcfg.topK = 4;
        rcfg.maxGemmsPerEval = 3; // forward GeMMs dominate; keep it fast
        rcfg.scenarios = {tuner_scenarios[i]};
        TunerCase tc;
        tc.label = i == 0 ? "vertical_links_15pct"
                          : "horizontal_links_15pct";
        tc.result = tuneRobustShortlist(
            tuner, Algorithm::kMeshSlice,
            tuner.rankShapes(Algorithm::kMeshSlice, model, train, chips,
                             rcfg.topK),
            chips, rcfg);
        any_pick_differs = any_pick_differs || tc.result.pickDiffers();
        std::cout << "robust tuner [" << tc.label << "]: nominal "
                  << tc.result.nominal().plan.rows << "x"
                  << tc.result.nominal().plan.cols << " -> robust "
                  << tc.result.picked().plan.rows << "x"
                  << tc.result.picked().plan.cols
                  << (tc.result.pickDiffers() ? "  (pick changed)"
                                              : "  (pick unchanged)")
                  << "\n";
        tuner_cases.push_back(std::move(tc));
    }
    std::cout << "\n";
    SearchTrace::global().close();

    // ---- Example scenario artifact (documents the JSON schema).
    {
        std::ofstream scenario_file("robustness_scenario.json");
        scenario_file << straggler.toJson();
        scenario_file.flush();
        if (!scenario_file)
            fatal("robustness_report: failed writing "
                  "robustness_scenario.json");
    }

    // ---- BENCH_robustness.json
    const std::string out_path =
        args.out.empty() ? "BENCH_robustness.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n  \"chips\": " << chips << ",\n";
    json << "  \"spec\": {\"m\": " << spec.m << ", \"k\": " << spec.k
         << ", \"n\": " << spec.n << ", \"rows\": " << spec.rows
         << ", \"cols\": " << spec.cols
         << ", \"slice_count\": " << spec.sliceCount << "},\n";
    json << "  \"severities\": [";
    for (size_t i = 0; i < severities.size(); ++i)
        json << (i ? ", " : "") << jsonNumber(severities[i]);
    json << "],\n  \"severity_sweep\": {\n";
    for (size_t a = 0; a < sweep.size(); ++a) {
        const SweepRow &row = sweep[a];
        json << "    " << jsonString(algorithmName(row.algo))
             << ": {\"times_s\": [";
        for (size_t i = 0; i < row.times.size(); ++i)
            json << (i ? ", " : "") << jsonNumber(row.times[i]);
        json << "], \"slowdowns\": [";
        for (size_t i = 0; i < row.times.size(); ++i)
            json << (i ? ", " : "")
                 << jsonNumber(row.times[0] > 0.0
                                   ? row.times[i] / row.times[0]
                                   : 1.0);
        json << "], \"monotone\": " << (row.monotone ? "true" : "false")
             << "}" << (a + 1 < sweep.size() ? "," : "") << "\n";
    }
    json << "  },\n  \"slice_sensitivity\": {\"severity\": "
         << jsonNumber(sens_severity) << ", \"slice_counts\": [";
    for (size_t i = 0; i < slice_counts.size(); ++i)
        json << (i ? ", " : "") << slice_counts[i];
    json << "], \"slowdowns\": [";
    for (size_t i = 0; i < slice_slowdowns.size(); ++i)
        json << (i ? ", " : "") << jsonNumber(slice_slowdowns[i]);
    json << "]},\n  \"straggler_study\": {\n";
    for (size_t i = 0; i < study.entries.size(); ++i) {
        const FaultStudyEntry &e = study.entries[i];
        json << "    " << jsonString(algorithmName(e.algo))
             << ": {\"nominal_s\": " << jsonNumber(e.nominal.time)
             << ", \"faulted_s\": " << jsonNumber(e.faulted.time)
             << ", \"slowdown\": " << jsonNumber(e.slowdown)
             << ", \"exposed_comm_delta_s\": "
             << jsonNumber(e.exposedCommDelta)
             << ", \"overlap_delta\": " << jsonNumber(e.overlapDelta)
             << "}" << (i + 1 < study.entries.size() ? "," : "") << "\n";
    }
    json << "  },\n  \"robust_tuner\": {\n";
    for (size_t i = 0; i < tuner_cases.size(); ++i) {
        const TunerCase &tc = tuner_cases[i];
        const RobustCandidate &nom = tc.result.nominal();
        const RobustCandidate &pick = tc.result.picked();
        json << "    " << jsonString(tc.label) << ": {"
             << "\"nominal_rows\": " << nom.plan.rows
             << ", \"nominal_cols\": " << nom.plan.cols
             << ", \"nominal_objective_s\": "
             << jsonNumber(nom.objective)
             << ", \"robust_rows\": " << pick.plan.rows
             << ", \"robust_cols\": " << pick.plan.cols
             << ", \"robust_objective_s\": "
             << jsonNumber(pick.objective) << ", \"pick_differs\": "
             << (tc.result.pickDiffers() ? "true" : "false") << "}"
             << (i + 1 < tuner_cases.size() ? "," : "") << "\n";
    }
    json << "  },\n  \"any_pick_differs\": "
         << (any_pick_differs ? "true" : "false") << ",\n"
         << "  \"artifacts\": [\"robustness_scenario.json\", "
            "\"robust_search.jsonl\"]\n}\n";
    json.flush();
    if (!json)
        fatal("robustness_report: failed writing %s", out_path.c_str());
    std::cout << "wrote " << out_path
              << ", robustness_scenario.json, robust_search.jsonl\n";
    return 0;
}
