/**
 * @file
 * Example: autotune MeshSlice for LLM training.
 *
 * Runs the two-phase MeshSlice LLM autotuner (Sec 3.2) for GPT-3 and
 * Megatron-NLG on a 256-chip cluster and prints the chosen mesh shape,
 * per-layer dataflows and slice counts, validates the chosen
 * configuration in the cluster simulator, then runs the phase-3 search
 * that composes 2D TP with pipeline and data parallelism and prints
 * the complete 3D plan: parallelism axes, schedule, memory footprint
 * and the TP plan re-tuned at the micro-batch size.
 *
 * With `--explain`, the phase-2 shortlist is additionally re-run under
 * the critical-path profiler and each candidate's bottleneck
 * attribution (category shares, hottest zero-slack spans, what-if
 * sensitivities) is printed — the "why is this shape fast" companion
 * to the ranking.
 *
 * Usage: llm_autotune [chips] [--explain]   (default 256)
 */
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/common.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/explain.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "util/logging.hpp"

using namespace meshslice;

namespace {

/** Human-readable explain block for the phase-2 shortlist. */
void
printExplain(const std::vector<CandidateExplain> &shortlist)
{
    std::printf("\ncritical-path explain (top %d shapes, fwd GeMMs):\n",
                static_cast<int>(shortlist.size()));
    for (const CandidateExplain &cand : shortlist) {
        const ExplainRecord &e = cand.explain;
        std::printf("  #%d %dx%d: span %.3f ms |", cand.rank,
                    cand.plan.rows, cand.plan.cols, e.span * 1e3);
        for (int c = 0; c < kSpanCategoryCount; ++c) {
            const SpanCategory cat = static_cast<SpanCategory>(c);
            if (e.byCategory[c] > 0.0)
                std::printf(" %s %.1f%%", spanCategoryName(cat),
                            e.categoryShare(cat) * 100.0);
        }
        std::printf(" | what-if: compute x2 -> %.3f ms, link x2 -> "
                    "%.3f ms\n",
                    e.whatifCompute2x * 1e3, e.whatifLink2x * 1e3);
        for (const HotSpan &h : e.hotSpans)
            std::printf("       hot: %-20s chip %-3d %.3f ms\n",
                        h.name.c_str(), h.chip, h.duration * 1e3);
    }
}

/** Per-GeMM table of one TP plan: dataflow, slice count, estimate. */
void
printTpPlan(const AutotuneResult &plan)
{
    std::printf("%-6s %-7s %-10s %-4s %-4s %12s\n", "layer", "stn",
                "pass", "df", "S", "est (ms)");
    const char *names[4] = {"qkv", "proj", "ffn1", "ffn2"};
    for (const FcLayerPlan &layer : plan.layers)
        for (const GemmPlan &p : layer.passes)
            std::printf("%-6s %-7s %-10s %-4s %-4d %12.3f\n",
                        names[layer.fcLayer],
                        stationaryName(layer.stationary),
                        p.gemm.name.c_str(), dataflowName(p.dataflow),
                        p.sliceCount, p.estTime * 1e3);
}

} // namespace

int
main(int argc, char **argv)
{
    int chips = 256;
    bool explain = false;
    bool chips_set = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--explain") == 0) {
            explain = true;
            continue;
        }
        char *end = nullptr;
        const long v = std::strtol(arg, &end, 10);
        if (chips_set || *end != '\0' || v <= 0 || v > INT_MAX)
            fatal("%s: %s '%s'\nusage: %s [chips] [--explain]", argv[0],
                  std::strncmp(arg, "--", 2) == 0 ? "unknown flag"
                  : chips_set ? "unexpected extra argument"
                              : "chip count must be a positive integer, got",
                  arg, argv[0]);
        chips = static_cast<int>(v);
        chips_set = true;
    }
    const ChipConfig cfg = tpuV4Config();
    const TrainingConfig train = TrainingConfig::weakScaling(chips);

    std::printf("Calibrating the communication cost model against the "
                "simulator...\n");
    const CostModel cost = CostModel::calibrated(cfg);
    std::printf("  bw = %.1f GB/s, t_sync = %.2f us, t_launch = %.2f us\n",
                cost.params().bw / 1e9, cost.params().tSync * 1e6,
                cost.params().tLaunch * 1e6);

    const LlmAutotuner tuner(cost);
    for (const TransformerConfig &model :
         {gpt3Config(), megatronNlgConfig()}) {
        std::printf("\n=== %s on %d chips (batch %lld, seq %lld) ===\n",
                    model.name.c_str(), chips,
                    static_cast<long long>(train.batch),
                    static_cast<long long>(train.seqLen));
        AutotuneResult plan = tuner.tune(model, train, chips);
        std::printf("chosen mesh shape: %dx%d\n", plan.rows, plan.cols);
        printTpPlan(plan);
        std::printf("estimated FC time per block: %.2f ms\n",
                    plan.blockFcTime * 1e3);

        if (explain)
            printExplain(explainShortlist(tuner, Algorithm::kMeshSlice,
                                          model, train, chips,
                                          /*k=*/3));

        // Validate in the simulator.
        FcSimResult sim = simulateFcBlock(cfg, model, train, chips,
                                          Algorithm::kMeshSlice);
        std::printf("simulated FC time per block: %.2f ms "
                    "(utilization %.1f%%)\n",
                    sim.fcTime * 1e3, sim.utilization * 100.0);
        const Time e2e = endToEndBlockTime(cfg, model, train, chips, sim);
        std::printf("end-to-end per block (with non-FC estimate): "
                    "%.2f ms -> %.2f s per training step (%lld blocks)\n",
                    e2e * 1e3, e2e * model.layers,
                    static_cast<long long>(model.layers));

        // Phase 3: compose 2D TP with pipeline and data parallelism.
        PipelineTuneConfig pcfg;
        pcfg.explain = explain;
        const PipelineTuneResult tuned =
            tunePipeline(tuner, model, train, chips, pcfg);
        const PipelineCandidate &pick = tuned.picked();
        std::printf("\ncomplete 3D training plan (%d candidates, %d "
                    "pruned):\n",
                    static_cast<int>(tuned.candidates.size()),
                    static_cast<int>(tuned.pruned.size()));
        std::printf("  parallelism axes: pp=%d stages x dp=%d replicas "
                    "x tp=%d chips (mesh %dx%d)\n",
                    pick.axes.pp, pick.axes.dp, pick.axes.tpDegree(),
                    pick.axes.tpRows, pick.axes.tpCols);
        std::printf("  schedule: %s, %d micro-batches x %lld sequences"
                    "%s%s\n",
                    pipelineScheduleName(pick.axes.schedule),
                    pick.axes.microBatches,
                    static_cast<long long>(
                        microBatchSequences(train, pick.axes)),
                    pick.axes.chunks > 1 ? ", interleaved chunks" : "",
                    pick.axes.recompute ? ", activation recompute" : "");
        std::printf("  stage memory: %.2f GiB/chip (HBM %.2f GiB), "
                    "peak stash %d micro-batches\n",
                    static_cast<double>(pick.stageMemoryBytes) / GiB(1.0),
                    static_cast<double>(cfg.hbmCapacity) / GiB(1.0),
                    pick.peakStash);
        std::printf("  step time: %.3f s simulated (%.3f s analytic: "
                    "%.3f s pipeline + %.3f s exposed DP)\n",
                    pick.simTotal, pick.estTotal, pick.estPipeline,
                    pick.estDp);
        if (pick.hasExplain) {
            std::printf("  pipeline critical path:");
            for (int c = 0; c < kSpanCategoryCount; ++c) {
                const SpanCategory cat = static_cast<SpanCategory>(c);
                if (pick.explain.byCategory[c] > 0.0)
                    std::printf(" %s %.1f%%", spanCategoryName(cat),
                                pick.explain.categoryShare(cat) * 100.0);
            }
            std::printf(" (what-if compute x2 -> %.3f s, link x2 -> "
                        "%.3f s)\n",
                        pick.explain.whatifCompute2x,
                        pick.explain.whatifLink2x);
        }
        std::printf("  TP plan at the micro-batch size:\n");
        printTpPlan(pick.tpPlan);
    }
    return 0;
}
