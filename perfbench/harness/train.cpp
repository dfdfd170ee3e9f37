// elastic_train: seeded runElastic runs, each losing one chip mid-step.

#include <cstdio>

#include "gemm/dist_matrix.hpp"
#include "harness/workload.hpp"
#include "net/topology.hpp"
#include "tuner/cost_model.hpp"

namespace perfbench {

using namespace meshslice;

TrainBlock::TrainBlock(Run &run, int cycle)
    : run_(run), cycle_(cycle), chip_(tpuV4Config()), base_(elasticBase(chip_))
{
}

double
TrainBlock::setUp()
{
    usePool(run_.threads);
    const double start = hostNow();
    CostModel::calibrated(chip_);
    ElasticRunConfig probe = base_;
    probe.functionalState = false;
    const ElasticRunResult r = runElastic(chip_, probe);
    if (configs_.empty()) {
        stepTime_ = r.stepTimeFullMesh;
        configs_ = elasticConfigs(chip_, base_, stepTime_, run_.seed);
    }
    const double seconds = hostNow() - start;
    run_.report.check(r.stepTimeFullMesh == stepTime_,
                      "the step probe repeats across set-ups");
    return seconds;
}

void
TrainBlock::request(long op)
{
    usePool(run_.threads);
    const bool traced = run_.tracedOp(op);
    const size_t index = static_cast<size_t>(run_.inputOf(op) % cycle_);
    const ElasticRunConfig &cfg = configs_.at(index);
    const long req = run_.nextRequest++;
    Tracer &tracer = run_.tracer;
    tracer.setActive(traced);

    const double start = hostNow();
    ElasticRunResult r;
    {
        Span span(tracer, "client.train", req);
        Span run(tracer, "run.elastic", req);
        r = runElastic(chip_, cfg);
    }
    const double seconds = hostNow() - start;
    if (traced) {
        tracedS_.push_back(seconds);
    } else {
        runS_.push_back(seconds);
    }

    bool ok = r.recovered && r.functionalChecked && r.functionalOk &&
              r.modelError < 0.35;
    const auto first = firstOutcome_.find(index);
    if (first == firstOutcome_.end()) {
        firstOutcome_[index] = Outcome{r.wall, r.goodput, r.statsJson};
        char line[256];
        std::snprintf(line, sizeof(line),
                      "elastic_train config=%zu dead_chip=%d redone_steps=%d "
                      "final_mesh=%dx%d sim_wall_ms=%.17g goodput=%.17g "
                      "model_error=%.6f",
                      index, r.deadChip, r.redoneSteps, r.finalSpec.rows,
                      r.finalSpec.cols, r.wall * 1e3, r.goodput,
                      r.modelError);
        run_.report.sim(line);
    } else {
        ok = ok && first->second.wall == r.wall &&
             first->second.goodput == r.goodput &&
             first->second.statsJson == r.statsJson;
    }
    run_.report.operation(ok, ok ? "" : "elastic run " + std::to_string(req));

    if (!traced)
        return;
    // Layer split: the layers runElastic drives, from outside.
    ElasticRunConfig timed = cfg;
    timed.functionalState = false;
    {
        Span span(tracer, "run.timed_only", req);
        runElastic(chip_, timed);
    }
    const Gemm2DSpec &spec = cfg.spec;
    const Matrix a = Matrix::random(spec.m, spec.k, cfg.functionalSeed);
    const Matrix b = Matrix::random(spec.k, spec.n, cfg.functionalSeed + 1);
    {
        Span span(tracer, "gemm.kernel", req);
        Matrix::gemm(a, b);
    }
    Matrix gathered;
    {
        Span span(tracer, "gemm.scatter_gather", req);
        gathered = DistMatrix::scatter(a, MeshShape{spec.rows, spec.cols})
                       .gather();
    }
    run_.report.check(gathered.maxAbsDiff(a) == 0.0,
                      "scatter + gather is the identity");
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<TorusMesh> mesh;
    {
        Span span(tracer, "hw.cluster_build", req);
        cluster = std::make_unique<Cluster>(chip_, spec.chips());
        mesh = std::make_unique<TorusMesh>(*cluster, spec.rows, spec.cols);
    }
}

void
TrainBlock::reportEndToEnd()
{
    hostMetric(run_, "train_steps_per_s",
               medianWindowRate(runS_, kTrainWindow) * base_.steps, "1/s",
               std::to_string(base_.steps) +
                   " steps per run over host seconds, median over windows "
                   "of " +
                   std::to_string(kTrainWindow) + " of " +
                   std::to_string(runS_.size()) + " elastic runs");
}

Overhead
TrainBlock::overhead() const
{
    return overheadOf(tracedS_, runS_, "elastic runs, paired on equal "
                                       "configs");
}

} // namespace perfbench
