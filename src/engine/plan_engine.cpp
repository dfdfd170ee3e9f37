#include "engine/plan_engine.hpp"

#include <memory>
#include <utility>

#include "engine/plan_json.hpp"
#include "tuner/cost_model.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "tuner/robust.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace meshslice {

const char *
planSourceName(PlanSource source)
{
    switch (source) {
      case PlanSource::kCold:
        return "cold";
      case PlanSource::kCacheHit:
        return "cache_hit";
      case PlanSource::kCoalesced:
        return "coalesced";
      case PlanSource::kIncremental:
        return "incremental";
    }
    return "?";
}

namespace {

/** The declared phase sequence, in the order `runPhases` runs the
 *  enabled phases (DESIGN.md §4k). */
constexpr const char *kShortlistPhase = "phase1-shortlist";
constexpr const char *kDataflowSlicePhase = "phase2-dataflow-slice";
constexpr const char *kRobustPhase = "robust-rerank";
constexpr const char *kRecoveryPhase = "recovery-pricing";
constexpr const char *kPipelinePhase = "pipeline-3d";

/** Set the plan's 2D TP decision (shape + per-GeMM plans), keeping the
 *  3D cluster axes in sync for the phases that run pre-pipeline. */
void
adoptTpPick(EnginePlan &plan, const AutotuneResult &pick,
            const char *phase_name)
{
    plan.tp = pick;
    plan.cluster.tpRows = pick.rows;
    plan.cluster.tpCols = pick.cols;
    plan.pickedBy = phase_name;
}

} // namespace

PlanEngine::PlanEngine() : PlanEngine(Options{}) {}

PlanEngine::PlanEngine(Options options)
    : options_(std::move(options)), cache_(options_.cacheCapacity, &stats_)
{
    stats_.enable(true);
    if (!options_.persistPath.empty())
        cache_.loadFileIfExists(options_.persistPath);
}

std::vector<std::string>
PlanEngine::phaseNames()
{
    return {kShortlistPhase, kDataflowSlicePhase, kRobustPhase,
            kRecoveryPhase, kPipelinePhase};
}

EnginePlan
PlanEngine::runPhases(const PlanQuery &q,
                      std::vector<AutotuneResult> &shortlist)
{
    const LlmAutotuner tuner(CostModel::calibrated(q.chip));
    auto ran = [this](const char *phase) {
        stats_.add(std::string("engine/phase/") + phase + "/runs", 1.0);
    };
    EnginePlan plan;

    // Phase 1+2 of the paper's autotuner: the ranked top-K mesh-shape
    // shortlist. Fault-independent, so an incremental serve reuses the
    // cached one.
    if (shortlist.empty()) {
        shortlist = tuner.rankShapes(q.algo, q.model, q.train, q.chips,
                                     shortlistSizeFor(q),
                                     q.optimizeDataflow);
        ran(kShortlistPhase);
    }

    // The nominal decision: the shortlist head. Later phases may
    // override the pick; this one guarantees every plan has one.
    plan.cluster.dp = 1;
    plan.cluster.pp = 1;
    plan.cluster.oneD = false;
    adoptTpPick(plan, shortlist.front(), kDataflowSlicePhase);
    ran(kDataflowSlicePhase);

    if (q.runRobust) {
        const RobustTuneResult robust =
            tuneRobustShortlist(tuner, q.algo, shortlist, q.chips, q.robust);
        plan.hasRobust = true;
        plan.robustObjective = robust.picked().objective;
        plan.robustPickIndex = robust.pickedIndex;
        adoptTpPick(plan, robust.picked().plan, kRobustPhase);
        ran(kRobustPhase);
        const std::string prefix = std::string("engine/phase/") +
                                   kRobustPhase + "/";
        stats_.add(prefix + "simulations", robust.simulations);
        stats_.add(prefix + "gemm_evals", robust.gemmEvals);
    }

    if (q.runRecovery) {
        const RecoveryCandidate picked =
            tuneWithRecoveryShortlist(tuner, q.algo, shortlist, q.chips,
                                      q.recovery)
                .picked();
        plan.hasRecovery = true;
        plan.checkpointInterval = picked.checkpointInterval;
        plan.goodput = picked.goodput;
        plan.effectiveStepTime = picked.effectiveStepTime;
        adoptTpPick(plan, picked.plan, kRecoveryPhase);
        ran(kRecoveryPhase);
    }

    // Phase-3 3D composition (pp x dp x tp) runs its own shape search
    // at the micro-batch size, so it replaces the 2D pick wholesale.
    if (q.runPipeline) {
        const PipelineCandidate picked =
            tunePipeline(tuner, q.model, q.train, q.chips, q.pipeline)
                .picked();
        plan.hasPipeline = true;
        plan.axes = picked.axes;
        plan.pipelineEstTotal = picked.estTotal;
        plan.pipelineSimTotal = picked.simTotal;
        plan.stageMemoryBytes = picked.stageMemoryBytes;
        plan.peakStash = picked.peakStash;
        plan.cluster.dp = picked.axes.dp;
        plan.cluster.pp = picked.axes.pp;
        adoptTpPick(plan, picked.tpPlan, kPipelinePhase);
        ran(kPipelinePhase);
    }
    return plan;
}

PlanResult
PlanEngine::plan(const PlanQuery &query)
{
    if (query.chips <= 0)
        fatal("PlanEngine: chips must be positive (got %d)", query.chips);
    if (query.train.batch < 1 || query.train.seqLen < 1)
        fatal("PlanEngine: %s on %d chips needs a positive batch and "
              "seqLen (got batch %lld, seqLen %lld)",
              query.model.name.c_str(), query.chips,
              static_cast<long long>(query.train.batch),
              static_cast<long long>(query.train.seqLen));
    PlanKey key = planKeyOf(query);
    const std::string full = key.full();

    bool waited = false;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        // A hit copies the shared parsed plan and its JSON under the
        // lock, and the plan itself outside it.
        std::string cached_json;
        std::shared_ptr<const EnginePlan> cached_plan;
        if (cache_.lookup(full, &cached_json, &cached_plan)) {
            lock.unlock();
            stats_.add(waited ? "engine/serve/coalesced"
                              : "engine/serve/cache_hit", 1.0);
            PlanResult result;
            result.plan = *cached_plan;
            result.planJson = std::move(cached_json);
            result.key = std::move(key);
            result.source = waited ? PlanSource::kCoalesced
                                   : PlanSource::kCacheHit;
            return result;
        }
        if (inflight_.count(full) == 0)
            break;
        waited = true;
        cv_.wait(lock);
    }
    inflight_.insert(full);
    std::string cached_shortlist;
    const bool incremental =
        cache_.shortlistForBase(key.base(), &cached_shortlist);
    lock.unlock();

    std::vector<AutotuneResult> shortlist;
    if (incremental)
        shortlist = shortlistFromJson(
            cached_shortlist, "PlanCache shortlist " + key.digest());
    const auto plan = std::make_shared<const EnginePlan>(
        runPhases(query, shortlist));
    std::string plan_json = enginePlanToJson(*plan);
    std::string shortlist_json = shortlistToJson(shortlist);

    if (incremental && options_.verifyIncremental) {
        std::vector<AutotuneResult> cold_shortlist;
        const EnginePlan cold = runPhases(query, cold_shortlist);
        if (enginePlanToJson(cold) != plan_json ||
            shortlistToJson(cold_shortlist) != shortlist_json)
            panic("PlanEngine: incremental re-tune of %s is not "
                  "bit-identical to the cold full tune",
                  key.digest().c_str());
        stats_.add("engine/serve/incremental_verified", 1.0);
    }

    lock.lock();
    cache_.insert(full, key.base(), plan, plan_json,
                  std::move(shortlist_json));
    inflight_.erase(full);
    lock.unlock();
    cv_.notify_all();
    stats_.add(incremental ? "engine/serve/incremental"
                           : "engine/serve/cold", 1.0);
    stats_.add("engine/serve/computed", 1.0);

    PlanResult result;
    result.plan = *plan;
    result.planJson = std::move(plan_json);
    result.key = std::move(key);
    result.source =
        incremental ? PlanSource::kIncremental : PlanSource::kCold;
    return result;
}

std::vector<PlanResult>
PlanEngine::planMany(const std::vector<PlanQuery> &queries)
{
    std::vector<PlanResult> results(queries.size());
    parallelFor(static_cast<std::int64_t>(queries.size()), 1,
                [&](std::int64_t begin, std::int64_t end) {
                    for (std::int64_t i = begin; i < end; ++i)
                        results[static_cast<size_t>(i)] =
                            plan(queries[static_cast<size_t>(i)]);
                });
    return results;
}

void
PlanEngine::persist() const
{
    if (options_.persistPath.empty())
        fatal("PlanEngine: persist() requires Options::persistPath");
    std::unique_lock<std::mutex> lock(mu_);
    cache_.saveFile(options_.persistPath);
}

long
PlanEngine::computedCount() const
{
    return static_cast<long>(stats_.counter("engine/serve/computed"));
}

} // namespace meshslice
