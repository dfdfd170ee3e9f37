// Layer calls shared by the blocks: the simulated plan check and the
// traced layer split of a served plan.

#include <cmath>
#include <cstdio>

#include "core/executor.hpp"
#include "engine/plan_json.hpp"
#include "harness/workload.hpp"
#include "net/topology.hpp"
#include "tuner/pipeline_tuner.hpp"
#include "tuner/robust.hpp"
#include "util/fingerprint.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace meshslice;

void
hostMetric(Run &run, const std::string &name, double raw,
           const std::string &unit, const std::string &note)
{
    const double value =
        unit == "1/s" ? run.speed.rate(raw) : run.speed.seconds(raw);
    char raw_text[32];
    std::snprintf(raw_text, sizeof(raw_text), "; raw %.6g", raw);
    run.report.metric(name, value, unit, "host", note + raw_text);
}

void
usePool(int threads)
{
    if (ThreadPool::global().threads() != threads)
        ThreadPool::setGlobalThreads(threads);
}

double
CheckResult::simTotal() const
{
    double total = 0.0;
    for (double t : simSeconds)
        total += t;
    return total;
}

CheckResult
checkTpPlan(Run &run, const AutotuneResult &tp, const ChipConfig &chip,
            long request)
{
    CheckResult out;
    Span validate(run.tracer, "core.validate", request);
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<TorusMesh> mesh;
    {
        Span build(run.tracer, "hw.cluster_build", request);
        cluster = std::make_unique<Cluster>(chip, tp.rows * tp.cols);
        mesh = std::make_unique<TorusMesh>(*cluster, tp.rows, tp.cols);
    }
    GemmExecutor exec(*mesh);
    const double start = hostNow();
    for (const GemmPlan &plan : tp.allPlans()) {
        const Gemm2DSpec spec =
            makeSpec(plan.gemm, plan.dataflow, tp.rows, tp.cols,
                     plan.sliceCount, chip.bytesPerElement);
        Span gemm(run.tracer, "core.gemm", request);
        const GemmRunResult r = exec.run(Algorithm::kMeshSlice, spec);
        if (!(r.time > 0.0) || !std::isfinite(r.time) || !(r.flops > 0.0))
            out.completed = false;
        out.simSeconds.push_back(r.time);
    }
    out.hostSeconds = hostNow() - start;
    out.events = cluster->sim().eventsProcessed();
    out.commBytes = static_cast<double>(cluster->commBytesIssued());
    if (out.simSeconds.size() != 12)
        out.completed = false;
    return out;
}

void
splitTunerPhases(Run &run, const PlanQuery &query, const EnginePlan &served,
                 bool cold, long request)
{
    const LlmAutotuner tuner(CostModel::calibrated(query.chip));
    auto rank = [&] {
        return tuner.rankShapes(query.algo, query.model, query.train,
                                query.chips, shortlistSizeFor(query),
                                query.optimizeDataflow);
    };
    std::vector<AutotuneResult> shortlist;
    if (cold) {
        Span span(run.tracer, "tuner.shortlist", request);
        shortlist = rank();
    } else {
        shortlist = rank();
    }
    if (query.runRobust) {
        RobustTuneResult robust;
        {
            Span span(run.tracer, "tuner.robust", request);
            robust = tuneRobustShortlist(tuner, query.algo, shortlist,
                                         query.chips, query.robust);
        }
        run.report.check(robust.pickedIndex == served.robustPickIndex &&
                             robust.picked().objective ==
                                 served.robustObjective,
                         "tuneRobustShortlist reproduces the served pick");
    }
    if (query.runRecovery) {
        Span span(run.tracer, "tuner.recovery", request);
        tuneWithRecoveryShortlist(tuner, query.algo, shortlist, query.chips,
                                  query.recovery);
    }
    if (query.runPipeline) {
        PipelineTuneResult pipeline;
        {
            Span span(run.tracer, "tuner.pipeline", request);
            pipeline = tunePipeline(tuner, query.model, query.train,
                                    query.chips, query.pipeline);
        }
        const PipelineAxes &axes = pipeline.picked().axes;
        run.report.check(axes.pp == served.axes.pp &&
                             axes.dp == served.axes.dp &&
                             axes.tpRows == served.axes.tpRows &&
                             axes.tpCols == served.axes.tpCols,
                         "tunePipeline reproduces the served axes");
    }
}

void
splitServePath(Run &run, const PlanQuery &query, const std::string &plan_json,
               long request)
{
    std::string full;
    {
        Span span(run.tracer, "engine.key", request);
        full = planKeyOf(query).full();
    }
    {
        Span span(run.tracer, "util.digest", request);
        fnv1a64Hex(full);
    }
    Span span(run.tracer, "engine.plan_parse", request);
    enginePlanFromJson(plan_json, "served plan");
}

Overhead
overheadOf(const std::vector<double> &traced,
           const std::vector<double> &untraced, const std::string &what)
{
    const double base = median(untraced);
    return Overhead{
        base > 0.0 ? (median(traced) / base - 1.0) * 100.0 : 0.0,
        "median of " + std::to_string(traced.size()) + " traced over " +
            std::to_string(untraced.size()) + " untraced " + what};
}

} // namespace perfbench
