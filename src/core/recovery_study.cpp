#include "core/recovery_study.hpp"

#include <algorithm>
#include <cmath>

#include "hw/cluster.hpp"
#include "net/topology.hpp"
#include "util/logging.hpp"

namespace meshslice {

Time
checkpointWriteTime(const ChipConfig &cfg, Bytes bytes_per_chip)
{
    if (bytes_per_chip <= 0)
        fatal("checkpointWriteTime: checkpoint state must be positive "
              "(got %lld bytes per chip)",
              static_cast<long long>(bytes_per_chip));
    return static_cast<double>(bytes_per_chip) / cfg.hostDmaBandwidth;
}

Time
checkpointModelCost(const ChipConfig &cfg, int chips, Bytes bytes_per_chip,
                    Rate target_bw)
{
    const Rate rate = std::min(cfg.hbmBandwidth,
                               target_bw / static_cast<double>(chips));
    return cfg.launchOverhead +
           static_cast<double>(bytes_per_chip) / rate + cfg.syncLatency;
}

namespace {

/** Fatal unless the goodput model is well-posed (C > 0, M > 0, D >= 0). */
void
validateGoodputModel(const GoodputModel &m, const char *who)
{
    if (!(m.checkpointWrite > 0.0))
        fatal("%s: checkpointWrite must be positive (got %g s) — a free "
              "checkpoint makes the optimal interval zero and the model "
              "degenerate", who, m.checkpointWrite);
    if (!(m.mtbf > 0.0))
        fatal("%s: mtbf must be positive (got %g s)", who, m.mtbf);
    if (m.downtime < 0.0)
        fatal("%s: downtime must be >= 0 (got %g s)", who, m.downtime);
}

} // namespace

double
goodputAt(const GoodputModel &m, Time tau)
{
    validateGoodputModel(m, "goodputAt");
    if (!(tau > 0.0))
        fatal("goodputAt: checkpoint interval must be positive (got %g s)",
              tau);
    // One segment: tau useful seconds plus the checkpoint write, then
    // in expectation (tau+C)/M failures, each costing D downtime plus
    // half the segment's wall redone.
    const Time s = tau + m.checkpointWrite;
    const Time wall = s * (1.0 + (m.downtime + s / 2.0) / m.mtbf);
    return tau / wall;
}

Time
youngDalyInterval(const GoodputModel &m)
{
    validateGoodputModel(m, "youngDalyInterval");
    const Time c = m.checkpointWrite;
    // d/dtau of tau / [(tau+C)(1 + (D + (tau+C)/2)/M)] = 0
    //   =>  tau^2 + 2*C*tau - (C^2 + 2C(M + D)) + ... collapses to
    //   (tau+C)^2 = 2C(M + D) + 2C^2  =>  tau* = sqrt(C^2 + 2C(M+D)).
    return std::sqrt(c * c + 2.0 * c * (m.mtbf + m.downtime));
}

TrainingGoodput
evaluateTrainingRun(const ChipConfig &cfg, const TrainingRunModel &run)
{
    if (run.chips < 1)
        fatal("evaluateTrainingRun: need at least one chip (got %d)",
              run.chips);
    if (!(run.chipMtbf > 0.0))
        fatal("evaluateTrainingRun: chipMtbf must be positive (got %g s)",
              run.chipMtbf);
    if (run.detectionLatency < 0.0 || run.restartTime < 0.0 ||
        run.reshardTime < 0.0)
        fatal("evaluateTrainingRun: detectionLatency (%g s), restartTime "
              "(%g s) and reshardTime (%g s) must all be >= 0",
              run.detectionLatency, run.restartTime, run.reshardTime);

    GoodputModel m;
    m.checkpointWrite =
        checkpointWriteTime(cfg, run.checkpointBytesPerChip);
    // The job fails when any chip does: the minimum of `chips`
    // independent exponentials is exponential with 1/chips the mean.
    m.mtbf = run.chipMtbf / static_cast<double>(run.chips);
    m.downtime = run.detectionLatency + run.restartTime + run.reshardTime;

    TrainingGoodput out;
    out.checkpointWrite = m.checkpointWrite;
    out.jobMtbf = m.mtbf;
    out.downtime = m.downtime;
    out.optimalInterval = youngDalyInterval(m);
    out.goodput = goodputAt(m, out.optimalInterval);
    return out;
}

CollectiveRecoveryResult
runCollectiveRecovery(const ChipConfig &cfg, int rows, int cols,
                      Bytes shard_bytes, const FaultScenario *scenario,
                      CollKind kind, bool row_ring, int index)
{
    Cluster cluster(cfg, rows * cols);
    TorusMesh mesh(cluster, rows, cols);
    // Same idiom as runGemmUnderScenario: the injector object exists on
    // both paths but is armed only when a scenario is supplied, so the
    // fault-free run takes bit-identical code paths.
    FaultInjector injector(cluster.sim(), cluster.net(),
                           scenario ? *scenario : FaultScenario{});
    if (scenario) {
        injector.arm();
        cluster.attachFaults(&injector);
    }

    CollectiveRecoveryResult result;
    bool finished = false;
    runRecoverableCollective(
        mesh, kind, row_ring, index, shard_bytes,
        row_ring ? kLaneHorizontalComm : kLaneVerticalComm,
        [&](const RecoveryOutcome &out) {
            result.outcome = out;
            finished = true;
        });
    result.finalTime = cluster.sim().run();
    if (!finished)
        fatal("runCollectiveRecovery: the collective never completed — "
              "the event queue drained at %g s without the recovery "
              "transaction finishing", result.finalTime);
    result.eventsProcessed = cluster.sim().eventsProcessed();
    cluster.collectResourceStats(cluster.stats());
    result.statsJson = cluster.stats().toJson();
    return result;
}

ElasticWallPrediction
predictElasticWall(const ElasticPredictionInput &in)
{
    if (in.steps <= 0)
        fatal("predictElasticWall: steps must be positive (got %d)",
              in.steps);
    if (!(in.stepTime > 0.0))
        fatal("predictElasticWall: stepTime must be positive (got %g)",
              in.stepTime);

    ElasticWallPrediction out;
    out.usefulTime = in.steps * in.stepTime;

    // Walk the elastic runtime's state machine with estimates in place
    // of simulated phases. One pass, single-kill: after recovery the
    // kill can't fire again.
    Time wall = 0.0;
    Time since_ckpt = 0.0; // useful seconds since the last checkpoint
    int step = 0;
    int committed_at_ckpt = 0; // steps safe in the last checkpoint
    bool faulted = false;
    const bool has_kill = in.killTime >= 0.0;
    // Where a recovered run resumes: the kill's detection, the re-plan
    // and the re-shard, back to back.
    const Time resume_at = in.killTime + in.detectionLatency +
                           in.replanTime + in.reshardTime;

    while (step < in.steps) {
        const Time t_step = faulted ? in.survivorStepTime : in.stepTime;
        if (!faulted && has_kill && in.killTime < wall + t_step) {
            // The kill lands inside this step (or a checkpoint that
            // preceded it — the runtime aborts whichever phase is
            // live). Recovery: detect, re-plan, re-shard + restore,
            // roll back to the last checkpoint.
            wall = resume_at;
            out.redoneSteps = step - committed_at_ckpt;
            step = committed_at_ckpt;
            since_ckpt = 0.0;
            faulted = true;
            out.recovered = true;
            continue;
        }
        wall += t_step;
        since_ckpt += t_step;
        ++step;
        if (step < in.steps && in.checkpointInterval > 0.0 &&
            since_ckpt >= in.checkpointInterval) {
            const Time c = faulted ? in.survivorCheckpointCost
                                   : in.checkpointCost;
            if (!faulted && has_kill && in.killTime < wall + c) {
                wall = resume_at;
                out.redoneSteps = step - committed_at_ckpt;
                step = committed_at_ckpt;
                since_ckpt = 0.0;
                faulted = true;
                out.recovered = true;
                continue;
            }
            wall += c;
            ++out.checkpoints;
            committed_at_ckpt = step;
            since_ckpt = 0.0;
        }
    }

    out.wall = wall;
    out.goodput = out.usefulTime / wall;
    return out;
}

} // namespace meshslice
