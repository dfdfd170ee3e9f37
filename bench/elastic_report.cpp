/**
 * @file
 * Elastic training-run report: what does a mid-run chip loss cost, and
 * how well does the analytic recovery model predict it?
 *
 *  - Fault-free bit-identity: an elastic run with no scenario and no
 *    checkpointing must be bit-identical to the plain step loop —
 *    same phase spans, same event counts, same wall.
 *  - Recovery headline: N training steps with Young–Daly
 *    checkpointing and one mid-run `KillFault`; the enacted recovery
 *    transaction (detect, re-plan, re-shard over real links, rollback,
 *    resume on the survivor mesh) produces a measured wall/goodput
 *    that must land within the analytic `predictElasticWall` band,
 *    with the functional weight state restored bit-exactly.
 *  - Replay: the same seeded run twice must be byte-identical (stats
 *    JSON and phase trace).
 *  - MTBF sweep: the Young–Daly interval and the fault-free goodput
 *    as the per-chip MTBF varies — goodput must be monotone
 *    nondecreasing in MTBF (longer intervals, fewer checkpoints).
 *
 * Emits `BENCH_elastic.json` (with the embedded `cross_checks` section
 * `tools/check_json.sh` enforces; its `steps_per_sec` key is gated
 * run-over-run by `tools/bench_diff.py`) plus the JSONL phase trace of
 * the recovery run (`elastic_trace.jsonl`) and its scenario
 * (`elastic_scenario.json`).
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "run/elastic.hpp"
#include "sim/fault.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace meshslice;

int
main(int argc, char **argv)
{
    const BenchArgs args = BenchArgs::parse(argc, argv, 16);
    const int chips = args.chips;
    if (chips % 4 != 0 || chips < 8)
        fatal("elastic_report: chip count must be a multiple of 4 and "
              ">= 8 (got %d)", chips);
    const ChipConfig cfg = tpuV4Config();

    // Dimensions must divide both the full mesh and every one-line
    // survivor (rows-1, cols-1), or the exact re-shard plan and the
    // functional scatter have no block decomposition: 384 = 2^7 * 3
    // divides 1..4, 6, 8.
    ElasticRunConfig base;
    base.spec.m = base.spec.k = base.spec.n = args.smoke ? 384 : 1152;
    base.spec.rows = 4;
    base.spec.cols = chips / 4;
    base.spec.sliceCount = 4;
    base.spec.bytesPerElement = cfg.bytesPerElement;
    base.steps = args.smoke ? 6 : 12;
    base.functionalState = true;
    base.profile = true;

    std::cout << "elastic_report: " << base.spec.str() << " x "
              << base.steps << " steps on " << chips << " chips\n\n";

    // ---- Fault-free bit-identity: elastic loop == plain step loop.
    const ElasticRunResult ff = runElastic(cfg, base);
    const PlainRunResult plain = runPlainSteps(cfg, base);
    bool faultfree_bit_identity =
        ff.wall == plain.wall &&
        ff.phases.size() == plain.steps.size() && ff.functionalOk &&
        plain.functionalOk;
    for (size_t i = 0;
         faultfree_bit_identity && i < plain.steps.size(); ++i)
        faultfree_bit_identity =
            ff.phases[i].span == plain.steps[i].span &&
            ff.phases[i].events == plain.steps[i].events;
    const Time t_step = ff.stepTimeFullMesh;
    std::cout << "fault-free: wall " << ff.wall * 1e3 << " ms, step "
              << t_step * 1e3 << " ms, bit-identical to the plain "
              << "step loop: "
              << (faultfree_bit_identity ? "yes" : "NO") << "\n\n";

    // ---- Recovery headline: checkpointing + one mid-run kill. The
    // checkpoint is the live state (A, B, W shards), and every fault
    // parameter scales off the measured step time so the recovery
    // economics stay meaningful at any GeMM size.
    const Bytes live_bytes_per_chip =
        static_cast<Bytes>(liveStateBytes(base.spec)) / chips;
    const Rate ckpt_bw = 400e9; // shared 400 GB/s checkpoint target
    // Closed-form checkpoint span (the model the runtime's analytic
    // mirror uses).
    const Time t_ckpt =
        checkpointModelCost(cfg, chips, live_bytes_per_chip, ckpt_bw);

    ElasticRunConfig rec = base;
    rec.checkpointBytesPerChip = live_bytes_per_chip;
    rec.checkpointTargetBandwidth = ckpt_bw;
    rec.checkpointInterval = 2.0 * t_step; // checkpoint every 2 steps
    rec.restartTime = 1.5 * t_step;
    rec.haveScenario = true;
    rec.scenario.seed = args.seed;
    rec.scenario.detectionLatency = 0.3 * t_step;
    KillFault kill;
    kill.pattern = "chip5.";
    // Inside step 4: steps 1-2 checkpointed, step 3 committed after
    // the checkpoint, so exactly one step is redone.
    kill.at = 3.7 * t_step + t_ckpt;
    rec.scenario.kills.push_back(kill);

    const ElasticRunResult r = runElastic(cfg, rec);
    if (!r.recovered)
        fatal("elastic_report: the kill at %g s did not trigger "
              "recovery (wall %g s)", kill.at, r.wall);
    const bool goodput_within_band = r.modelError < 0.35;
    const double steps_per_sec =
        r.wall > 0.0 ? base.steps / r.wall : 0.0;

    Table headline({"quantity", "measured", "predicted"});
    headline.addRow({"wall_s", Table::num(r.wall, 6),
                     Table::num(r.predicted.wall, 6)});
    headline.addRow({"goodput", Table::num(r.goodput, 4),
                     Table::num(r.predicted.goodput, 4)});
    headline.addRow({"checkpoints", Table::num(r.checkpoints, 0),
                     Table::num(r.predicted.checkpoints, 0)});
    headline.addRow({"redone_steps", Table::num(r.redoneSteps, 0),
                     Table::num(r.predicted.redoneSteps, 0)});
    std::cout << "recovery run (chip " << r.deadChip << " dies at "
              << kill.at * 1e3 << " ms, detection "
              << rec.scenario.detectionLatency * 1e3 << " ms):\n";
    headline.print(std::cout);
    std::cout << "final mesh " << r.finalSpec.rows << "x"
              << r.finalSpec.cols << " (" << algorithmName(r.finalAlgo)
              << "), re-shard " << r.reshardSpan * 1e3
              << " ms, model error " << r.modelError * 100.0
              << "% — within the 35% band: "
              << (goodput_within_band ? "yes" : "NO")
              << "\nfunctional W == serial reference: "
              << (r.functionalOk ? "yes" : "NO") << "\n\n";

    // ---- Bit-identical seeded replay.
    const ElasticRunResult replay = runElastic(cfg, rec);
    const bool replay_bit_identical =
        r.wall == replay.wall && r.statsJson == replay.statsJson &&
        elasticTraceJson(r) == elasticTraceJson(replay);
    std::cout << "seeded replay byte-identical: "
              << (replay_bit_identical ? "yes" : "NO") << "\n\n";

    // ---- MTBF sweep: the Young-Daly interval and the fault-free
    // goodput as the per-chip MTBF varies. The simulated jobs run for
    // milliseconds, so the sweep spans MTBF values chosen around the
    // Young-Daly floor sqrt(C^2 + 2*C*downtime) — from
    // checkpoint-every-step up to no-checkpoint — rather than
    // datacenter-scale hours; `--mtbf` appends a user point.
    std::vector<Time> mtbfs = {1e-3, 1e-2, 5e-2, 1e3};
    if (!args.smoke)
        mtbfs = {5e-4, 2e-3, 1e-2, 5e-2, 1.0, 1e3};
    if (args.mtbf > 0.0)
        mtbfs.push_back(args.mtbf);
    std::sort(mtbfs.begin(), mtbfs.end());
    struct MtbfPoint
    {
        Time mtbf = 0.0;
        Time interval = 0.0;
        int checkpoints = 0;
        double goodput = 0.0;
    };
    std::vector<MtbfPoint> sweep;
    bool goodput_monotone_mtbf = true;
    for (Time mtbf : mtbfs) {
        ElasticRunConfig scfg = base;
        scfg.functionalState = false; // timed sweep only
        scfg.profile = false;
        scfg.checkpointBytesPerChip = rec.checkpointBytesPerChip;
        scfg.checkpointTargetBandwidth = rec.checkpointTargetBandwidth;
        scfg.checkpointInterval = 0.0; // solve Young-Daly
        scfg.chipMtbf = mtbf;
        scfg.restartTime = rec.restartTime;
        // Kill-free, but the scenario's detection latency feeds the
        // downtime term of the Young-Daly economics.
        scfg.haveScenario = true;
        scfg.scenario.seed = args.seed;
        scfg.scenario.detectionLatency = rec.scenario.detectionLatency;
        const ElasticRunResult sr = runElastic(cfg, scfg);
        MtbfPoint p;
        p.mtbf = mtbf;
        p.checkpoints = sr.checkpoints;
        p.goodput = sr.goodput;
        // Recover the solved interval from the run economics: useful
        // seconds between checkpoints.
        p.interval = sr.checkpoints > 0
                         ? sr.usefulTime / (sr.checkpoints + 1)
                         : sr.usefulTime;
        if (!sweep.empty())
            goodput_monotone_mtbf =
                goodput_monotone_mtbf &&
                p.goodput >= sweep.back().goodput;
        sweep.push_back(p);
    }
    // The sweep must actually move the cadence, or monotonicity is
    // vacuous: checkpoint-heavy at the failure-prone end, none at the
    // reliable end.
    goodput_monotone_mtbf = goodput_monotone_mtbf &&
                            sweep.front().checkpoints >
                                sweep.back().checkpoints &&
                            sweep.back().checkpoints == 0;
    Table sweep_table({"mtbf_s", "interval_s", "checkpoints",
                       "goodput"});
    for (const MtbfPoint &p : sweep)
        sweep_table.addRow({Table::num(p.mtbf, 4),
                            Table::num(p.interval, 6),
                            Table::num(p.checkpoints, 0),
                            Table::num(p.goodput, 4)});
    std::cout << "fault-free goodput vs per-chip MTBF (Young-Daly "
                 "interval):\n";
    sweep_table.print(std::cout);
    std::cout << "goodput monotone nondecreasing in MTBF (and the "
                 "cadence moved): "
              << (goodput_monotone_mtbf ? "yes" : "NO") << "\n\n";

    // ---- Artifacts.
    writeElasticTrace(r, "elastic_trace.jsonl");
    {
        std::ofstream scen("elastic_scenario.json");
        scen << rec.scenario.toJson() << "\n";
        if (!scen)
            fatal("elastic_report: failed writing elastic_scenario.json");
    }
    {
        std::ofstream stats("elastic_stats.json");
        stats << r.statsJson << "\n";
        if (!stats)
            fatal("elastic_report: failed writing elastic_stats.json");
    }

    const std::string out_path =
        args.out.empty() ? "BENCH_elastic.json" : args.out;
    std::ofstream json(out_path);
    json << "{\n  \"chips\": " << chips << ",\n";
    json << "  \"spec\": {\"m\": " << base.spec.m
         << ", \"k\": " << base.spec.k << ", \"n\": " << base.spec.n
         << ", \"rows\": " << base.spec.rows
         << ", \"cols\": " << base.spec.cols
         << ", \"slice_count\": " << base.spec.sliceCount
         << ", \"steps\": " << base.steps << "},\n";
    json << "  \"fault_free\": {\"wall_s\": " << jsonNumber(ff.wall)
         << ", \"step_s\": " << jsonNumber(t_step)
         << ", \"goodput\": " << jsonNumber(ff.goodput) << "},\n";
    json << "  \"recovery\": {\"wall_s\": " << jsonNumber(r.wall)
         << ", \"goodput\": " << jsonNumber(r.goodput)
         << ", \"steps_per_sec\": " << jsonNumber(steps_per_sec)
         << ", \"predicted_wall_s\": " << jsonNumber(r.predicted.wall)
         << ", \"predicted_goodput\": "
         << jsonNumber(r.predicted.goodput)
         << ", \"model_error\": " << jsonNumber(r.modelError)
         << ", \"checkpoints\": " << r.checkpoints
         << ", \"redone_steps\": " << r.redoneSteps
         << ", \"dead_chip\": " << r.deadChip
         << ", \"detection_s\": " << jsonNumber(r.detectionSpan)
         << ", \"reshard_s\": " << jsonNumber(r.reshardSpan)
         << ", \"final_rows\": " << r.finalSpec.rows
         << ", \"final_cols\": " << r.finalSpec.cols
         << ", \"final_algo\": "
         << jsonString(algorithmName(r.finalAlgo)) << "},\n";
    json << "  \"mtbf_sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        const MtbfPoint &p = sweep[i];
        json << "    {\"mtbf_s\": " << jsonNumber(p.mtbf)
             << ", \"interval_s\": " << jsonNumber(p.interval)
             << ", \"checkpoints\": " << p.checkpoints
             << ", \"goodput\": " << jsonNumber(p.goodput) << "}"
             << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    json << "  \"cross_checks\": {\n"
         << "    \"faultfree_bit_identity\": "
         << (faultfree_bit_identity ? "true" : "false") << ",\n"
         << "    \"goodput_within_band\": "
         << (goodput_within_band ? "true" : "false") << ",\n"
         << "    \"goodput_monotone_mtbf\": "
         << (goodput_monotone_mtbf ? "true" : "false") << ",\n"
         << "    \"functional_identity\": "
         << (r.functionalOk ? "true" : "false") << ",\n"
         << "    \"replay_bit_identical\": "
         << (replay_bit_identical ? "true" : "false") << "\n  },\n"
         << "  \"artifacts\": [\"elastic_trace.jsonl\", "
         << "\"elastic_scenario.json\", \"elastic_stats.json\"]\n}\n";
    json.flush();
    if (!json)
        fatal("elastic_report: failed writing %s", out_path.c_str());
    std::cout << "wrote " << out_path
              << ", elastic_trace.jsonl, elastic_scenario.json, "
              << "elastic_stats.json\n";

    const bool ok = faultfree_bit_identity && goodput_within_band &&
                    goodput_monotone_mtbf && r.functionalOk &&
                    replay_bit_identical;
    return ok ? 0 : 1;
}
