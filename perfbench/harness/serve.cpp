// serve_mix: NDJSON plan-server traffic against one warm engine.

#include "engine/plan_json.hpp"
#include "harness/workload.hpp"
#include "tuner/cost_model.hpp"

namespace perfbench {

using namespace meshslice;

ServeBlock::ServeBlock(Run &run)
    : run_(run), chip_(tpuV4Config()), universe_(serveUniverse(run.seed)),
      stream_(static_cast<int>(universe_.size()), run.seed)
{
}

double
ServeBlock::setUp()
{
    usePool(1);
    const double start = hostNow();
    CostModel::calibrated(chip_);
    PlanEngine::Options options;
    options.cacheCapacity = kServeCacheCapacity;
    auto engine = std::make_unique<PlanEngine>(options);
    const bool first_set_up = engine_ == nullptr;
    firstServe_.resize(universe_.size());
    for (size_t rank = universe_.size(); rank-- > 0;) {
        const PlanResult r = engine->plan(planQueryFromJson(
            universe_[rank], chip_, "serve_mix warm-up"));
        if (first_set_up)
            firstServe_[rank] = r.planJson;
        else
            run_.report.check(firstServe_[rank] == r.planJson,
                              "warm-up serves repeat across engines");
    }
    const double seconds = hostNow() - start;
    if (!first_set_up)
        return seconds;
    engine_ = std::move(engine);
    const StatsRegistry &stats = engine_->stats();
    servedAtSetUp_ = stats.counter("engine/serve/cache_hit") +
                     stats.counter("engine/serve/incremental") +
                     stats.counter("engine/serve/cold");
    statsAtSetUp_[0] = stats.counter("engine/cache/hit");
    statsAtSetUp_[1] = stats.counter("engine/cache/miss");
    statsAtSetUp_[2] = stats.counter("engine/cache/eviction");
    return seconds;
}

void
ServeBlock::request(long op)
{
    usePool(1);
    const bool traced = run_.traced && (op / kBlock) % 2 == 1;
    const int rank = stream_.next();
    const std::string &line = universe_[static_cast<size_t>(rank)];
    const long req = run_.nextRequest++;
    Tracer &tracer = run_.tracer;
    tracer.setActive(traced);

    const double start = hostNow();
    PlanQuery query;
    PlanResult served;
    {
        Span span(tracer, "client.serve", req);
        {
            Span parse(tracer, "engine.query_parse", req);
            query = planQueryFromJson(line, chip_, "serve_mix");
        }
        Span plan(tracer, "engine.plan", req);
        served = engine_->plan(query);
        tracer.rename(plan.id(), std::string("engine.plan.") +
                                     planSourceName(served.source));
    }
    const double seconds = hostNow() - start;
    ++bySource_[static_cast<int>(served.source)];
    if (traced) {
        tracedS_.push_back(seconds);
    } else {
        latencyS_.push_back(seconds);
        if (served.source == PlanSource::kCold)
            coldS_.push_back(seconds);
    }

    // Every serve, hit or re-tuned miss, repeats the key's first serve.
    const bool ok =
        served.planJson == firstServe_[static_cast<size_t>(rank)];
    run_.report.operation(ok, ok ? "" : "serve_mix request " +
                                            std::to_string(req));

    if (traced) {
        splitServePath(run_, query, served.planJson, req);
        const bool cold = served.source == PlanSource::kCold;
        if (served.source != PlanSource::kCacheHit)
            splitTunerPhases(run_, query, served.plan, cold, req);
        if (cold) {
            const CheckResult check =
                checkTpPlan(run_, served.plan.tp, chip_, req);
            run_.report.check(check.completed, "served plan check");
            if (op < kExactWindow) {
                run_.counts.simEvents += check.events;
                run_.counts.commBytes += check.commBytes;
                run_.counts.simHostSeconds += check.hostSeconds;
            }
        }
    }
    if (run_.traced && op + 1 == kExactWindow) {
        const StatsRegistry &stats = engine_->stats();
        run_.counts.cacheHits +=
            stats.counter("engine/cache/hit") - statsAtSetUp_[0];
        run_.counts.cacheMisses +=
            stats.counter("engine/cache/miss") - statsAtSetUp_[1];
        run_.counts.evictions +=
            stats.counter("engine/cache/eviction") - statsAtSetUp_[2];
    }
}

void
ServeBlock::reportEndToEnd()
{
    // Cache hits, incremental re-tunes and cold tunes account for every
    // request: a closed loop on one thread never coalesces.
    const StatsRegistry &stats = engine_->stats();
    const double served = stats.counter("engine/serve/cache_hit") +
                          stats.counter("engine/serve/incremental") +
                          stats.counter("engine/serve/cold") -
                          servedAtSetUp_;
    const long requests = bySource_[0] + bySource_[1] + bySource_[2] +
                          bySource_[3];
    run_.report.check(served == static_cast<double>(requests) &&
                          bySource_[static_cast<int>(
                              PlanSource::kCoalesced)] == 0,
                      "serve_mix source counts sum to the requests");

    const std::string n = std::to_string(latencyS_.size());
    const std::string mix =
        " (" + std::to_string(bySource_[1]) + " hits, " +
        std::to_string(bySource_[3]) + " incremental, " +
        std::to_string(bySource_[0]) + " cold)";
    const std::string of = " of " + n + " requests";
    hostMetric(run_, "serve_p50_us",
               windowedPercentile(latencyS_, kP50Window, 0.5) * 1e6, "us",
               "mean p50 of windows of " + std::to_string(kP50Window) + of +
                   mix);
    hostMetric(run_, "serve_p99_us",
               windowedPercentile(latencyS_, kP99Window, 0.99) * 1e6, "us",
               "mean p99 of windows of " + std::to_string(kP99Window) + of);
    hostMetric(run_, "serve_per_s", medianWindowRate(latencyS_, kRateWindow),
               "1/s",
               "closed-loop requests per second, median over windows of " +
                   std::to_string(kRateWindow));
    hostMetric(run_, "plan_cold_s", mean(coldS_), "s",
               "mean of " + std::to_string(coldS_.size()) +
                   " cold 16-chip serves");
}

Overhead
ServeBlock::overhead() const
{
    return overheadOf(tracedS_, latencyS_,
                      "requests, alternating blocks of " +
                          std::to_string(kBlock) +
                          " of one stream (different draws)");
}

} // namespace perfbench
