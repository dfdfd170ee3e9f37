// plan_cold: the paper's autotune-then-simulate loop on a cold engine.

#include <cstdio>

#include "engine/plan_json.hpp"
#include "harness/workload.hpp"
#include "tuner/cost_model.hpp"

namespace perfbench {

using namespace meshslice;

PlanColdBlock::PlanColdBlock(Run &run)
    : run_(run), seeds_(planColdSeeds(run.seed))
{
}

double
PlanColdBlock::setUp()
{
    usePool(run_.threads);
    const double start = hostNow();
    CostModel::calibrated(tpuV4Config());
    PlanEngine engine;
    return hostNow() - start;
}

void
PlanColdBlock::request(long op)
{
    usePool(run_.threads);
    const bool traced = run_.tracedOp(op);
    // Scenario seeds alternate a, b, a, b, ...: from the third request
    // on, each repeats an earlier one and must reproduce it exactly.
    const std::uint64_t seed =
        seeds_[static_cast<size_t>(run_.inputOf(op) % 2)];
    const std::string line = planColdQuery(seed);
    const long req = run_.nextRequest++;
    Tracer &tracer = run_.tracer;
    tracer.setActive(traced);

    const double start = hostNow();
    PlanQuery query;
    PlanResult served;
    CheckResult check;
    {
        Span span(tracer, "client.plan_cold", req);
        {
            Span parse(tracer, "engine.query_parse", req);
            query = planQueryFromJson(line, tpuV4Config(), "plan_cold");
        }
        engine_ = std::make_unique<PlanEngine>();
        Span plan(tracer, "engine.plan", req);
        served = engine_->plan(query);
        tracer.rename(plan.id(), std::string("engine.plan.") +
                                     planSourceName(served.source));
        plan.close();
        check = checkTpPlan(run_, served.plan.tp, query.chip, req);
    }
    if (!traced)
        requestS_.push_back(hostNow() - start);

    bool ok = served.source == PlanSource::kCold && check.completed;
    const bool round_trip =
        enginePlanToJson(enginePlanFromJson(served.planJson, "plan_cold")) ==
        served.planJson;
    ok = ok && round_trip;
    const auto first = firstPlan_.find(seed);
    if (first == firstPlan_.end()) {
        firstPlan_[seed] = served.planJson;
        firstCheck_[seed] = check.simSeconds;
        const EnginePlan &p = served.plan;
        char line_buf[256];
        std::snprintf(line_buf, sizeof(line_buf),
                      "plan_cold scenario_seed=%llu mesh=%dx%d picked_by=%s "
                      "pp=%d dp=%d check_sim_ms=%.17g",
                      static_cast<unsigned long long>(seed), p.tp.rows,
                      p.tp.cols, p.pickedBy.c_str(), p.cluster.pp,
                      p.cluster.dp, check.simTotal() * 1e3);
        run_.report.sim(line_buf);
    } else {
        ok = ok && first->second == served.planJson &&
             firstCheck_[seed] == check.simSeconds;
    }
    run_.report.operation(ok, ok ? "" : "plan_cold request " +
                                            std::to_string(req));

    if (run_.traced && op < kExactWindow) {
        run_.counts.simEvents += check.events;
        run_.counts.commBytes += check.commBytes;
        run_.counts.simHostSeconds += check.hostSeconds;
    }

    query_ = query;
    servedJson_ = served.planJson;
    tracedRequest_ = traced;
    fetch();

    if (run_.traced && op < kExactWindow) {
        const StatsRegistry &stats = engine_->stats();
        run_.counts.cacheHits += stats.counter("engine/cache/hit");
        run_.counts.cacheMisses += stats.counter("engine/cache/miss");
        run_.counts.evictions += stats.counter("engine/cache/eviction");
    }
    tracer.setActive(traced);
    if (traced) {
        splitServePath(run_, query, served.planJson, req);
        splitTunerPhases(run_, query, served.plan, true, req);
    }
}

void
PlanColdBlock::fetch()
{
    if (engine_ == nullptr)
        return;
    // In a traced request every other fetch is traced, so the overhead
    // compares fetches made at the same moments of the host's load.
    Tracer &tracer = run_.tracer;
    for (int f = 0; f < kFetches; ++f) {
        const bool fetch_traced = tracedRequest_ && f % 2 == 1;
        tracer.setActive(fetch_traced);
        const long fetch_req = run_.nextRequest++;
        const double t0 = hostNow();
        PlanResult hit;
        {
            Span span(tracer, "client.fetch", fetch_req);
            Span plan(tracer, "engine.plan", fetch_req);
            hit = engine_->plan(query_);
            tracer.rename(plan.id(), std::string("engine.plan.") +
                                         planSourceName(hit.source));
        }
        const double seconds = hostNow() - t0;
        if (!tracedRequest_)
            fetchS_.push_back(seconds);
        else
            (fetch_traced ? tracedFetchS_ : pairedFetchS_).push_back(seconds);
        const bool hit_ok = hit.source == PlanSource::kCacheHit &&
                            hit.planJson == servedJson_;
        run_.report.operation(hit_ok, hit_ok ? ""
                                             : "plan_cold fetch " +
                                                   std::to_string(fetch_req));
    }
    tracer.setActive(false);
}

void
PlanColdBlock::reportEndToEnd()
{
    const std::string n = std::to_string(requestS_.size());
    hostMetric(run_, "plan_cold_s", median(requestS_), "s",
               "median of " + n + " requests (fresh-engine plan + check)");
    const std::string f = std::to_string(fetchS_.size());
    const std::string of = " of " + f + " plan fetches (cache hits)";
    hostMetric(run_, "serve_p50_us",
               windowedPercentile(fetchS_, kP50Window, 0.5) * 1e6, "us",
               "mean p50 of windows of " + std::to_string(kP50Window) + of);
    hostMetric(run_, "serve_p99_us",
               windowedPercentile(fetchS_, kP99Window, 0.99) * 1e6, "us",
               "mean p99 of windows of " + std::to_string(kP99Window) + of);
    hostMetric(run_, "serve_per_s", medianWindowRate(fetchS_, kRateWindow),
               "1/s",
               "closed-loop fetches per second, median over windows of " +
                   std::to_string(kRateWindow));
}

Overhead
PlanColdBlock::overhead() const
{
    // The fetches, not the few requests.
    return overheadOf(tracedFetchS_, pairedFetchS_,
                      "plan fetches, alternating within traced requests");
}

} // namespace perfbench
