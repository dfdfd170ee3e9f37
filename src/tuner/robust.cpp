#include "tuner/robust.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/fault_study.hpp"
#include "core/recovery_study.hpp"
#include "core/spec.hpp"
#include "gemm/reshard.hpp"
#include "tuner/explain.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace meshslice {

namespace {

void
traceRobustEval(Algorithm algo, int chips, const RobustCandidate &cand,
                int scenario_index, Time sim_time)
{
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"robust\",\"algo\":%s,\"chips\":%d,\"rows\":%d,"
        "\"cols\":%d,\"scenario\":%d,\"sim_s\":%s}",
        jsonString(algorithmName(algo)).c_str(), chips, cand.plan.rows,
        cand.plan.cols, scenario_index, jsonNumber(sim_time).c_str()));
}

void
traceRobustPick(Algorithm algo, int chips, const RobustTuneResult &result)
{
    const RobustCandidate &picked = result.picked();
    const RobustCandidate &nominal = result.nominal();
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"robust_pick\",\"algo\":%s,\"chips\":%d,"
        "\"rows\":%d,\"cols\":%d,\"objective_s\":%s,"
        "\"nominal_rows\":%d,\"nominal_cols\":%d,"
        "\"nominal_objective_s\":%s,\"pick_differs\":%s}",
        jsonString(algorithmName(algo)).c_str(), chips, picked.plan.rows,
        picked.plan.cols, jsonNumber(picked.objective).c_str(),
        nominal.plan.rows, nominal.plan.cols,
        jsonNumber(nominal.objective).c_str(),
        result.pickDiffers() ? "true" : "false"));
}

void
traceRecoveryEval(Algorithm algo, int chips, const RecoveryCandidate &cand)
{
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"recovery\",\"algo\":%s,\"chips\":%d,\"rows\":%d,"
        "\"cols\":%d,\"step_s\":%s,\"reshard_s\":%s,"
        "\"reshard_bytes\":%s,\"tau_opt_s\":%s,\"goodput\":%s,"
        "\"effective_step_s\":%s}",
        jsonString(algorithmName(algo)).c_str(), chips, cand.plan.rows,
        cand.plan.cols, jsonNumber(cand.stepTime).c_str(),
        jsonNumber(cand.reshardTime).c_str(),
        jsonNumber(cand.reshardBytes).c_str(),
        jsonNumber(cand.checkpointInterval).c_str(),
        jsonNumber(cand.goodput).c_str(),
        jsonNumber(cand.effectiveStepTime).c_str()));
}

void
traceRecoveryPick(Algorithm algo, int chips,
                  const RecoveryTuneResult &result)
{
    const RecoveryCandidate &picked = result.picked();
    const RecoveryCandidate &nominal = result.nominal();
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"recovery_pick\",\"algo\":%s,\"chips\":%d,"
        "\"rows\":%d,\"cols\":%d,\"effective_step_s\":%s,"
        "\"nominal_rows\":%d,\"nominal_cols\":%d,"
        "\"nominal_effective_step_s\":%s,\"pick_differs\":%s}",
        jsonString(algorithmName(algo)).c_str(), chips, picked.plan.rows,
        picked.plan.cols, jsonNumber(picked.effectiveStepTime).c_str(),
        nominal.plan.rows, nominal.plan.cols,
        jsonNumber(nominal.effectiveStepTime).c_str(),
        result.pickDiffers() ? "true" : "false"));
}

} // namespace

Time
robustObjective(std::vector<Time> times, double q)
{
    if (times.empty())
        return 0.0;
    std::sort(times.begin(), times.end());
    if (q >= 1.0)
        return times.back();
    if (q <= 0.0)
        return times.front();
    const double pos = q * static_cast<double>(times.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(times.size() - 1, lo + 1);
    const double frac = pos - std::floor(pos);
    return times[lo] * (1.0 - frac) + times[hi] * frac;
}

std::vector<FaultScenario>
sampleScenarios(const RobustTuneConfig &cfg, int chips)
{
    if (chips <= 0)
        fatal("sampleScenarios: need a positive chip count (got %d)",
              chips);
    if (cfg.numScenarios <= 0)
        fatal("sampleScenarios: numScenarios must be positive (got %d)",
              cfg.numScenarios);
    if (!(cfg.linkDegradeFactor > 0.0 && cfg.linkDegradeFactor <= 1.0))
        fatal("sampleScenarios: linkDegradeFactor %g outside (0, 1]",
              cfg.linkDegradeFactor);
    static const char *kDirections[4] = {"link.E", "link.W", "link.S",
                                         "link.N"};
    std::vector<FaultScenario> out;
    std::uint64_t rng = cfg.seed;
    for (int i = 0; i < cfg.numScenarios; ++i) {
        FaultScenario s;
        s.seed = cfg.seed + static_cast<std::uint64_t>(i);
        s.maxLaunchJitter = cfg.maxLaunchJitter;
        for (int f = 0; f < cfg.faultsPerScenario; ++f) {
            CapacityFault fault;
            fault.pattern = kDirections[splitmix64(rng) % 4];
            fault.factor = cfg.linkDegradeFactor;
            fault.start = 0.0;
            fault.duration = -1.0; // persistent
            s.faults.push_back(std::move(fault));
        }
        if (uniform01(rng) < cfg.stragglerProb) {
            StragglerFault straggler;
            straggler.chip = static_cast<int>(
                splitmix64(rng) % static_cast<std::uint64_t>(chips));
            straggler.computeFactor = cfg.stragglerFactor;
            straggler.hbmFactor = cfg.stragglerFactor;
            s.stragglers.push_back(straggler);
        }
        out.push_back(std::move(s));
    }
    return out;
}

RobustTuneResult
tuneRobustShortlist(const LlmAutotuner &tuner, Algorithm algo,
                    const std::vector<AutotuneResult> &full_shortlist,
                    int chips, const RobustTuneConfig &cfg,
                    StatsRegistry *stats)
{
    if (!(cfg.quantile > 0.0 && cfg.quantile <= 1.0))
        fatal("tuneRobustShortlist: quantile %g outside (0, 1]",
              cfg.quantile);
    if (full_shortlist.empty())
        fatal("tuneRobustShortlist: the shortlist is empty");

    RobustTuneResult result;
    result.scenarios = cfg.scenarios.empty() ? sampleScenarios(cfg, chips)
                                             : cfg.scenarios;

    // The caller may hold a longer shortlist than this re-rank wants
    // (the PlanEngine caches one shortlist sized for every phase);
    // rankShapes is prefix-stable, so the prefix is its top cfg.topK.
    std::vector<AutotuneResult> shortlist = full_shortlist;
    if (cfg.topK > 0 &&
        static_cast<int>(shortlist.size()) > cfg.topK)
        shortlist.resize(static_cast<size_t>(cfg.topK));
    const ChipConfig &chip = tuner.cost().chip();

    // Per-candidate GeMM subsets and their distinct specs (serial:
    // cheap, and keeps the truncation deterministic regardless of
    // worker scheduling).
    std::vector<std::vector<GemmPlan>> gemm_sets;
    std::vector<DistinctGemmSpecs> distinct;
    gemm_sets.reserve(shortlist.size());
    distinct.reserve(shortlist.size());
    for (const AutotuneResult &plan : shortlist) {
        std::vector<GemmPlan> gemms = plan.allPlans();
        if (cfg.maxGemmsPerEval > 0 &&
            static_cast<int>(gemms.size()) > cfg.maxGemmsPerEval)
            gemms.resize(static_cast<size_t>(cfg.maxGemmsPerEval));
        distinct.push_back(
            distinctGemmSpecs(plan, gemms, chip.bytesPerElement));
        gemm_sets.push_back(std::move(gemms));
    }

    // One pool task per (candidate, scenario, distinct spec), each an
    // independent simulation on a private cluster. Cell c = (ci, si)
    // owns the tasks from cell_task[c] on, one per distinct spec.
    const size_t num_scen = result.scenarios.size();
    std::vector<size_t> cell_task;
    std::vector<std::pair<size_t, size_t>> tasks; // (cell, spec index)
    for (size_t ci = 0; ci < shortlist.size(); ++ci)
        for (size_t si = 0; si < num_scen; ++si) {
            cell_task.push_back(tasks.size());
            for (size_t d = 0; d < distinct[ci].specs.size(); ++d)
                tasks.emplace_back(cell_task.size() - 1, d);
        }
    std::vector<Time> task_time(tasks.size(), 0.0);
    std::vector<std::vector<StatSnapshot>> task_stats(
        stats != nullptr ? tasks.size() : 0);
    parallelFor(static_cast<std::int64_t>(tasks.size()), 1,
                [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t t = begin; t < end; ++t) {
            const auto [c, d] = tasks[static_cast<size_t>(t)];
            StatsRegistry run_reg;
            task_time[static_cast<size_t>(t)] =
                runGemmUnderScenario(
                    chip, algo, distinct[c / num_scen].specs[d],
                    &result.scenarios[c % num_scen],
                    stats != nullptr ? &run_reg : nullptr)
                    .time;
            if (stats != nullptr)
                task_stats[static_cast<size_t>(t)] = run_reg.snapshot();
        }
    });
    result.simulations = static_cast<int>(tasks.size());

    // Fold each cell in GeMM order: a repeated GeMM adds its first
    // occurrence's time, and merges its stats, once more.
    const bool tracing = SearchTrace::global().enabled();
    for (size_t ci = 0; ci < shortlist.size(); ++ci) {
        RobustCandidate cand;
        cand.plan = shortlist[ci];
        cand.nominalEst = shortlist[ci].blockFcTime;
        const std::vector<size_t> &slot = distinct[ci].slot;
        for (size_t si = 0; si < num_scen; ++si) {
            const size_t first = cell_task[ci * num_scen + si];
            Time step = 0.0;
            for (size_t d : slot)
                step += task_time[first + d];
            result.gemmEvals += static_cast<int>(slot.size());
            cand.scenarioTimes.push_back(step);
            if (tracing)
                traceRobustEval(algo, chips, cand, static_cast<int>(si),
                                step);
            if (stats != nullptr) {
                const std::string prefix =
                    strprintf("robust/cand%zu/scen%zu/", ci, si);
                for (size_t d : slot)
                    stats->merge(task_stats[first + d], prefix);
            }
        }
        cand.objective = robustObjective(cand.scenarioTimes, cfg.quantile);
        // Opt-in "why": re-run the candidate's GeMM subset fault-free
        // with the critical-path profiler and trace the attribution.
        if (cfg.explain && tracing) {
            Time explain_time = 0.0;
            const ExplainRecord rec = explainPlanGemms(
                chip, algo, shortlist[ci], gemm_sets[ci], &explain_time);
            SearchTrace::global().record(explainRecordJson(
                "robust", algo, chips, static_cast<int>(ci),
                shortlist[ci].rows, shortlist[ci].cols, explain_time,
                rec));
        }
        result.candidates.push_back(std::move(cand));
    }

    // Pick the best objective; candidates are in nominal rank order,
    // so strict improvement is required to move off the nominal pick
    // (deterministic, and a tie keeps the fault-free optimum).
    for (size_t i = 1; i < result.candidates.size(); ++i)
        if (result.candidates[i].objective <
            result.candidates[static_cast<size_t>(result.pickedIndex)]
                .objective)
            result.pickedIndex = static_cast<int>(i);

    if (SearchTrace::global().enabled())
        traceRobustPick(algo, chips, result);
    return result;
}

RecoveryTuneResult
tuneWithRecoveryShortlist(const LlmAutotuner &tuner, Algorithm algo,
                          const std::vector<AutotuneResult> &full_shortlist,
                          int chips, const RecoveryTuneConfig &cfg)
{
    if (cfg.topK <= 0)
        fatal("tuneWithRecoveryShortlist: topK must be positive (got %d)",
              cfg.topK);
    if (!(cfg.chipMtbf > 0.0))
        fatal("tuneWithRecoveryShortlist: chipMtbf must be positive (got "
              "%g s) — recovery-aware tuning prices failures, so a "
              "failure rate is required", cfg.chipMtbf);
    if (cfg.checkpointBytesPerChip <= 0)
        fatal("tuneWithRecoveryShortlist: checkpointBytesPerChip must be "
              "positive (got %lld) — the checkpoint write cost anchors "
              "the Young-Daly interval",
              static_cast<long long>(cfg.checkpointBytesPerChip));
    if (full_shortlist.empty())
        fatal("tuneWithRecoveryShortlist: the shortlist is empty");

    std::vector<AutotuneResult> shortlist = full_shortlist;
    if (static_cast<int>(shortlist.size()) > cfg.topK)
        shortlist.resize(static_cast<size_t>(cfg.topK));
    const ChipConfig &chip = tuner.cost().chip();
    const double total_state =
        static_cast<double>(cfg.checkpointBytesPerChip) *
        static_cast<double>(chips);

    // Candidate pricing is independent per shape: evaluate on the pool,
    // then trace and collect in serial index order (bit-identical to
    // the serial loop).
    RecoveryTuneResult result;
    std::vector<RecoveryCandidate> evals(shortlist.size());
    parallelFor(static_cast<std::int64_t>(shortlist.size()), 1,
                [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t idx = begin; idx < end; ++idx) {
            const AutotuneResult &plan = shortlist[static_cast<size_t>(idx)];
            RecoveryCandidate cand;
            cand.plan = plan;
            cand.stepTime = plan.blockFcTime;

            const ReshardEstimate reshard = expectedReshard(
                chip, MeshShape{plan.rows, plan.cols}, total_state);
            if (reshard.time < 0.0)
                fatal("tuneWithRecoveryShortlist: a %dx%d mesh has no "
                      "survivor mesh to re-shard onto after a failure",
                      plan.rows, plan.cols);
            cand.reshardBytes = reshard.bytes;
            cand.reshardTime = reshard.time;

            TrainingRunModel run;
            run.checkpointBytesPerChip = cfg.checkpointBytesPerChip;
            run.chipMtbf = cfg.chipMtbf;
            run.chips = chips;
            run.detectionLatency = cfg.detectionLatency;
            run.restartTime = cfg.restartTime;
            run.reshardTime = reshard.time;
            const TrainingGoodput g = evaluateTrainingRun(chip, run);
            cand.checkpointInterval = g.optimalInterval;
            cand.goodput = g.goodput;
            cand.effectiveStepTime = cand.stepTime / cand.goodput;
            evals[static_cast<size_t>(idx)] = std::move(cand);
        }
    });
    const bool tracing = SearchTrace::global().enabled();
    for (RecoveryCandidate &cand : evals) {
        if (tracing)
            traceRecoveryEval(algo, chips, cand);
        result.candidates.push_back(std::move(cand));
    }

    // Argmin of the joint objective; strict improvement is required to
    // move off the nominal pick, so a tie keeps the fault-free optimum.
    for (size_t i = 1; i < result.candidates.size(); ++i)
        if (result.candidates[i].effectiveStepTime <
            result.candidates[static_cast<size_t>(result.pickedIndex)]
                .effectiveStepTime)
            result.pickedIndex = static_cast<int>(i);

    if (SearchTrace::global().enabled())
        traceRecoveryPick(algo, chips, result);
    return result;
}

namespace {

/** Does @p algo's mesh partition of @p spec divide evenly on a
 *  `rows x cols` survivor shape? For the 2D algorithms that is
 *  `validateSpec`'s operand sharding, which implies the local-GeMM
 *  partition. (The sliceCount axis is re-tuned separately; S=1 always
 *  divides.) */
bool
meshDivides(Algorithm algo, const Gemm2DSpec &spec, int rows, int cols)
{
    if (algo == Algorithm::kOneDTP)
        return spec.n % (static_cast<std::int64_t>(rows) * cols) == 0;
    if (algo == Algorithm::kFsdp)
        return spec.m % (static_cast<std::int64_t>(rows) * cols) == 0;
    Gemm2DSpec survivor = spec;
    survivor.rows = rows;
    survivor.cols = cols;
    return operandsShardEvenly(survivor);
}

void
traceReplanEval(Algorithm algo, int dead_chip, const ReplanCandidate &cand)
{
    const MeshShape to = cand.mesh.to();
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"replan\",\"algo\":%s,\"dead_chip\":%d,"
        "\"retire\":%s,\"rows\":%d,\"cols\":%d,\"feasible\":%s,"
        "\"slices\":%d,\"step_s\":%s,\"reshard_bytes\":%s,"
        "\"reshard_s\":%s,\"objective_s\":%s}",
        jsonString(algorithmName(algo)).c_str(), dead_chip,
        cand.mesh.failedRow >= 0 ? "\"row\"" : "\"col\"", to.rows,
        to.cols, cand.feasible ? "true" : "false",
        cand.feasible ? cand.spec.sliceCount : 0,
        jsonNumber(cand.stepTime).c_str(),
        jsonNumber(cand.reshardBytes).c_str(),
        jsonNumber(cand.reshardTime).c_str(),
        jsonNumber(cand.objective).c_str()));
}

void
traceReplanPick(Algorithm algo, int dead_chip, const ReplanResult &result)
{
    if (!result.feasible()) {
        SearchTrace::global().record(strprintf(
            "{\"phase\":\"replan_pick\",\"algo\":%s,\"dead_chip\":%d,"
            "\"feasible\":false}",
            jsonString(algorithmName(algo)).c_str(), dead_chip));
        return;
    }
    const ReplanCandidate &picked = result.picked();
    const MeshShape to = picked.mesh.to();
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"replan_pick\",\"algo\":%s,\"dead_chip\":%d,"
        "\"feasible\":true,\"retire\":%s,\"rows\":%d,\"cols\":%d,"
        "\"slices\":%d,\"objective_s\":%s}",
        jsonString(algorithmName(algo)).c_str(), dead_chip,
        picked.mesh.failedRow >= 0 ? "\"row\"" : "\"col\"", to.rows,
        to.cols, picked.spec.sliceCount,
        jsonNumber(picked.objective).c_str()));
}

} // namespace

const ReplanCandidate &
ReplanResult::picked() const
{
    if (pickedIndex < 0)
        fatal("ReplanResult::picked: no feasible survivor mesh — check "
              "feasible() first");
    return candidates.at(static_cast<size_t>(pickedIndex));
}

ReplanResult
replanAfterFailure(const CostModel &cost, Algorithm algo,
                   const Gemm2DSpec &spec, int dead_chip,
                   int remaining_steps)
{
    if (remaining_steps < 0)
        fatal("replanAfterFailure: remaining_steps must be non-negative "
              "(got %d)", remaining_steps);

    // Live state that must migrate: all three operands (A, B and the
    // accumulated C) are resident `DistMatrix` shards.
    const double live_bytes = liveStateBytes(spec);

    ReplanResult result;
    const std::vector<SurvivorMesh> options =
        survivorOptionsForChip(MeshShape{spec.rows, spec.cols}, dead_chip);
    const bool tracing = SearchTrace::global().enabled();
    for (const SurvivorMesh &sv : options) {
        ReplanCandidate cand;
        cand.mesh = sv;
        const MeshShape to = sv.to();
        cand.reshardBytes = reshardBytesModel(live_bytes, sv);
        cand.reshardTime = reshardTimeModel(cost.chip(), cand.reshardBytes,
                                            to.rows * to.cols);
        // A one-line shrink never preserves squareness from a square
        // start, so Cannon fits no survivor mesh; the elastic runtime
        // re-plans Cannon runs under a substitute 2D algorithm instead.
        if (supportsMesh(algo, to.rows, to.cols) &&
            meshDivides(algo, spec, to.rows, to.cols)) {
            cand.feasible = true;
            cand.spec = spec;
            cand.spec.rows = to.rows;
            cand.spec.cols = to.cols;
            cand.spec.sliceCount = 1; // re-tuned below; S=1 always divides
            // The closed-form estimator covers the 2D family; the 1D
            // baselines rank via the ring-collective proxy (kCollective
            // on the same 1 x C mesh — an AG of the moving matrix plus
            // the local GeMM, the same first-order shape).
            const Algorithm est_algo =
                (algo == Algorithm::kOneDTP || algo == Algorithm::kFsdp)
                    ? Algorithm::kCollective
                    : algo;
            const auto tuned = cost.tuneSliceCount(est_algo, cand.spec);
            cand.spec.sliceCount = tuned.first;
            cand.stepTime = tuned.second;
            cand.objective =
                cand.reshardTime + remaining_steps * cand.stepTime;
        }
        if (tracing)
            traceReplanEval(algo, dead_chip, cand);
        result.candidates.push_back(std::move(cand));
    }

    for (size_t i = 0; i < result.candidates.size(); ++i) {
        const ReplanCandidate &cand = result.candidates[i];
        if (!cand.feasible)
            continue;
        if (result.pickedIndex < 0 ||
            cand.objective <
                result.candidates[static_cast<size_t>(result.pickedIndex)]
                    .objective)
            result.pickedIndex = static_cast<int>(i);
    }
    if (tracing)
        traceReplanPick(algo, dead_chip, result);
    return result;
}

} // namespace meshslice
