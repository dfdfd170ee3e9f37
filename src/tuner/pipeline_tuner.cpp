#include "tuner/pipeline_tuner.hpp"

#include <algorithm>

#include "tuner/explain.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace meshslice {

namespace {

/** Fraction of a block's fwd+bwd time spent in the forward pass: one
 *  of the three equal-FLOP training GeMMs per FC layer, and the same
 *  1:2 split for the non-FC roofline. */
constexpr double kFwdShare = 1.0 / 3.0;

/**
 * True when at least one rows x cols factorization of @p tp divides
 * every FC GeMM dimension at the micro-batch size. Mirrors the phase-2
 * feasibility loop so structurally impossible TP degrees (e.g. a
 * factor of 5 against GPT-3's power-of-two-times-three dimensions) are
 * *pruned* with a reason instead of tripping the autotuner's
 * no-feasible-shape `fatal`.
 */
bool
anyTpMeshFeasible(const TransformerConfig &model,
                  const TrainingConfig &micro, int tp)
{
    const std::vector<FcGemm> gemms = blockFcGemms(model, micro);
    for (int rows = 1; rows <= tp; ++rows) {
        if (tp % rows != 0)
            continue;
        const int cols = tp / rows;
        bool ok = true;
        for (const FcGemm &gemm : gemms) {
            if (!shapeFeasible(gemm, rows, cols)) {
                ok = false;
                break;
            }
        }
        if (ok)
            return true;
    }
    return false;
}

Bytes
dpShardBytesPerChip(const ChipConfig &cfg, const TransformerConfig &model,
                    const PipelineAxes &axes)
{
    const double params_per_chip =
        model.parameterCount() /
        static_cast<double>(axes.pp * axes.tpDegree());
    return static_cast<Bytes>(params_per_chip * cfg.bytesPerElement);
}

Time
exposedDpTime(const CostModel &cost, const TransformerConfig &model,
              const PipelineAxes &axes, double dp_overlap)
{
    if (axes.dp <= 1)
        return 0.0;
    const Bytes per_chip =
        dpShardBytesPerChip(cost.chip(), model, axes);
    // AllReduce = RdS + AG of (bytes / dp) shards around the DP ring.
    const Time allreduce =
        2.0 * cost.collectiveTime(axes.dp, per_chip / axes.dp);
    return (1.0 - dp_overlap) * allreduce;
}

void
tracePipelineCandidate(int chips, const PipelineCandidate &cand,
                       bool simulated)
{
    if (!SearchTrace::global().enabled())
        return;
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"pipeline\",\"chips\":%d,\"schedule\":%s,"
        "\"pp\":%d,\"dp\":%d,\"tp\":%d,\"tp_rows\":%d,\"tp_cols\":%d,"
        "\"micro_batches\":%d,\"chunks\":%d,\"recompute\":%s,"
        "\"feasible\":%s,\"reason\":%s,\"est_s\":%s,"
        "\"est_pipeline_s\":%s,\"est_dp_s\":%s,\"sim_s\":%s,"
        "\"stage_mem_bytes\":%s,\"peak_stash\":%d}",
        chips,
        jsonString(pipelineScheduleName(cand.axes.schedule)).c_str(),
        cand.axes.pp, cand.axes.dp, cand.axes.tpDegree(),
        cand.axes.tpRows, cand.axes.tpCols, cand.axes.microBatches,
        cand.axes.chunks, cand.axes.recompute ? "true" : "false",
        cand.feasible ? "true" : "false",
        jsonString(cand.reason).c_str(),
        jsonNumber(cand.estTotal).c_str(),
        jsonNumber(cand.estPipeline).c_str(),
        jsonNumber(cand.estDp).c_str(),
        simulated ? jsonNumber(cand.simTotal).c_str() : "null",
        jsonNumber(static_cast<double>(cand.stageMemoryBytes)).c_str(),
        cand.peakStash));
}

void
tracePipelinePick(int chips, const PipelineTuneResult &result)
{
    if (!SearchTrace::global().enabled())
        return;
    const PipelineCandidate &picked = result.picked();
    const PipelineCandidate &analytic = result.candidates.front();
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"pipeline_pick\",\"chips\":%d,\"schedule\":%s,"
        "\"pp\":%d,\"dp\":%d,\"tp_rows\":%d,\"tp_cols\":%d,"
        "\"micro_batches\":%d,\"sim_s\":%s,\"est_s\":%s,"
        "\"analytic_pp\":%d,\"analytic_dp\":%d,"
        "\"analytic_micro_batches\":%d,\"pick_differs\":%s}",
        chips,
        jsonString(pipelineScheduleName(picked.axes.schedule)).c_str(),
        picked.axes.pp, picked.axes.dp, picked.axes.tpRows,
        picked.axes.tpCols, picked.axes.microBatches,
        jsonNumber(picked.simTotal).c_str(),
        jsonNumber(picked.estTotal).c_str(), analytic.axes.pp,
        analytic.axes.dp, analytic.axes.microBatches,
        result.pickedIndex != 0 ? "true" : "false"));
}

} // namespace

PipelineCandidate
evaluatePipelineCandidate(const LlmAutotuner &tuner,
                          const TransformerConfig &model,
                          const TrainingConfig &train,
                          const PipelineAxes &axes,
                          const PipelineTuneConfig &cfg, bool simulate,
                          StatsRegistry *sim_stats)
{
    const ChipConfig &chip = tuner.cost().chip();
    PipelineCandidate cand;
    cand.axes = axes;

    std::string why;
    if (!axesFeasible(model, train, axes, &why)) {
        cand.reason = why;
        return cand;
    }

    // Phase 1+2 at the micro-batch size: the TP mesh shape and slice
    // counts are co-optimized per candidate (with their own
    // "phase":"shape" trace records).
    TrainingConfig micro = train;
    micro.batch = train.batch / (axes.dp * axes.microBatches);
    const int tp = axes.tpDegree();
    if (!anyTpMeshFeasible(model, micro, tp)) {
        cand.reason = strprintf(
            "tp=%d has no mesh shape dividing the block GeMMs", tp);
        return cand;
    }
    cand.tpPlan = tuner.tune(model, micro, tp);
    cand.axes.tpRows = cand.tpPlan.rows;
    cand.axes.tpCols = cand.tpPlan.cols;

    const Time block_total =
        cand.tpPlan.blockFcTime + nonFcBlockTime(chip, model, micro, tp);
    cand.blockFwd = kFwdShare * block_total;
    cand.blockBwd = block_total - cand.blockFwd;

    const PipelineProgram program = buildPipelineProgram(
        axes.schedule, axes.pp, axes.microBatches, axes.chunks);

    PipelineStageMemorySpec mem = stageMemorySpec(
        chip, model, train, cand.axes, program, /*stage=*/0);
    if (!pipelineFitsInMemory(chip, mem) && !cand.axes.recompute) {
        // The full activation stash does not fit: fall back to
        // recompute — stash only the boundary activation per in-flight
        // micro-batch and pay one extra forward in the backward.
        cand.axes.recompute = true;
        mem.recompute = true;
    }
    cand.stageMemoryBytes = pipelineStageMemory(mem).total();
    cand.peakStash = mem.peakInFlight;
    if (!pipelineFitsInMemory(chip, mem)) {
        cand.reason = strprintf(
            "stage memory %.2f GiB exceeds HBM %.2f GiB",
            static_cast<double>(cand.stageMemoryBytes) / GiB(1.0),
            static_cast<double>(chip.hbmCapacity) / GiB(1.0));
        return cand;
    }

    const PipelineExecSpec exec =
        makeExecSpec(chip, model, train, cand.axes, cand.blockFwd,
                     cand.blockBwd, cand.axes.tpMesh());
    const PipelineTimeModel tm =
        timeModelFor(exec, chip, cand.axes.tpRows, cand.axes.tpCols);
    cand.estPipeline = analyticalSpan(program, tm);
    cand.estDp =
        exposedDpTime(tuner.cost(), model, cand.axes, cfg.dpOverlap);
    cand.estTotal = cand.estPipeline + cand.estDp;
    cand.feasible = true;

    if (simulate) {
        // One pipeline replica is simulated; the DP all-reduce is the
        // same analytic term on both sides of the comparison.
        Cluster cluster(chip, axes.pp * tp);
        if (sim_stats != nullptr)
            cluster.stats().enable(true);
        if (cfg.explain)
            cluster.enableProfiler(true);
        PipelineCluster pc(cluster, axes.pp, cand.axes.tpRows,
                           cand.axes.tpCols);
        const PipelineRunResult run = runPipeline(pc, exec);
        cand.simTotal = run.time + cand.estDp;
        if (cfg.explain) {
            cand.explain = explainGraph(cluster.profiler().nodes());
            cand.hasExplain = true;
        }
        if (sim_stats != nullptr) {
            cluster.collectResourceStats(cluster.stats());
            sim_stats->merge(cluster.stats().snapshot());
        }
    }
    return cand;
}

PipelineTuneResult
tunePipeline(const LlmAutotuner &tuner, const TransformerConfig &model,
             const TrainingConfig &train, int chips,
             const PipelineTuneConfig &cfg, StatsRegistry *stats)
{
    if (chips < 1)
        fatal("tunePipeline: need at least one chip (got %d)", chips);
    if (cfg.topK < 1)
        fatal("tunePipeline: shortlist size must be positive (got %d)",
              cfg.topK);

    PipelineTuneResult result;
    for (int pp = 1; pp <= chips; ++pp) {
        if (chips % pp != 0)
            continue;
        const int rem = chips / pp;
        for (int dp = 1; dp <= rem; ++dp) {
            if (rem % dp != 0)
                continue;
            const int tp = rem / dp;
            const std::int64_t per_replica =
                train.batch % dp == 0 ? train.batch / dp : 0;
            const int m_hi =
                pp == 1 ? 1
                        : static_cast<int>(std::min<std::int64_t>(
                              cfg.maxMicroBatches,
                              per_replica > 0 ? per_replica : 1));
            for (int m = 1; m <= m_hi; ++m) {
                if (per_replica > 0 && per_replica % m != 0)
                    continue;
                PipelineAxes axes;
                axes.tpRows = 1;
                axes.tpCols = tp;
                axes.pp = pp;
                axes.dp = dp;
                axes.microBatches = m;
                axes.chunks = cfg.chunks;
                axes.schedule = cfg.schedule;
                axes.recompute = cfg.recompute;

                std::string why;
                if (!axesFeasible(model, train, axes, &why)) {
                    PipelineCandidate pruned;
                    pruned.axes = axes;
                    pruned.reason = why;
                    tracePipelineCandidate(chips, pruned, false);
                    result.pruned.push_back(std::move(pruned));
                    continue;
                }

                PipelineCandidate cand = evaluatePipelineCandidate(
                    tuner, model, train, axes, cfg, /*simulate=*/false);
                tracePipelineCandidate(chips, cand, false);
                if (cand.feasible)
                    result.candidates.push_back(std::move(cand));
                else
                    result.pruned.push_back(std::move(cand));
            }
        }
    }
    if (result.candidates.empty())
        fatal("tunePipeline: no feasible (pp, dp, micro-batch) "
              "decomposition of %d chips for %s (batch %lld, %lld "
              "layers)", chips, model.name.c_str(),
              static_cast<long long>(train.batch),
              static_cast<long long>(model.layers));

    std::sort(result.candidates.begin(), result.candidates.end(),
              [](const PipelineCandidate &a, const PipelineCandidate &b) {
                  if (a.estTotal != b.estTotal)
                      return a.estTotal < b.estTotal;
                  if (a.axes.pp != b.axes.pp)
                      return a.axes.pp < b.axes.pp;
                  if (a.axes.dp != b.axes.dp)
                      return a.axes.dp < b.axes.dp;
                  return a.axes.microBatches < b.axes.microBatches;
              });

    // Simulate the analytic shortlist concurrently (each candidate on
    // a private cluster), then fold trace records, stats and the pick
    // in serial index order — bit-identical to the serial loop.
    const int k = std::min<int>(
        cfg.topK, static_cast<int>(result.candidates.size()));
    const bool tracing = SearchTrace::global().enabled();
    std::vector<SearchTraceCapture> captures(
        tracing ? static_cast<size_t>(k) : 0);
    std::vector<std::vector<StatSnapshot>> cand_stats(
        stats != nullptr ? static_cast<size_t>(k) : 0);
    parallelFor(k, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
            PipelineCandidate &cand =
                result.candidates[static_cast<size_t>(i)];
            StatsRegistry cand_reg;
            StatsRegistry *sim_stats =
                stats != nullptr ? &cand_reg : nullptr;
            if (tracing) {
                // Buffer this candidate's records (the inner tune's
                // "slice"/"shape" lines plus our "pipeline" line) for
                // the serial-order flush below.
                SearchTraceCapture::Scope scope(
                    captures[static_cast<size_t>(i)]);
                cand = evaluatePipelineCandidate(tuner, model, train,
                                                 cand.axes, cfg,
                                                 /*simulate=*/true,
                                                 sim_stats);
                tracePipelineCandidate(chips, cand, true);
            } else {
                cand = evaluatePipelineCandidate(tuner, model, train,
                                                 cand.axes, cfg,
                                                 /*simulate=*/true,
                                                 sim_stats);
            }
            if (stats != nullptr)
                cand_stats[static_cast<size_t>(i)] = cand_reg.snapshot();
        }
    });
    int best = 0;
    for (int i = 0; i < k; ++i) {
        const PipelineCandidate &cand =
            result.candidates[static_cast<size_t>(i)];
        if (tracing) {
            captures[static_cast<size_t>(i)].flushToGlobal();
            if (cand.hasExplain)
                SearchTrace::global().record(explainRecordJson(
                    "pipeline", Algorithm::kMeshSlice, chips, i,
                    cand.axes.tpRows, cand.axes.tpCols, cand.simTotal,
                    cand.explain));
        }
        if (stats != nullptr)
            stats->merge(cand_stats[static_cast<size_t>(i)],
                         strprintf("pipeline/top%d/", i));
        if (cand.simTotal <
            result.candidates[static_cast<size_t>(best)].simTotal)
            best = i;
    }
    result.pickedIndex = best;
    tracePipelinePick(chips, result);
    return result;
}

} // namespace meshslice
