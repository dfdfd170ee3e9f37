#include "tuner/cluster_plan.hpp"

#include "tuner/autotuner.hpp"
#include "util/logging.hpp"

namespace meshslice {

ClusterStepCost
estimateClusterStep(const CostModel &cost, const TransformerConfig &model,
                    const TrainingConfig &train, const ClusterPlan &plan,
                    int microbatches, double dp_overlap)
{
    const ChipConfig &cfg = cost.chip();
    if (model.layers % plan.pp != 0)
        panic("estimateClusterStep: pp %d must divide %lld layers",
              plan.pp, static_cast<long long>(model.layers));
    if (train.batch % plan.dp != 0)
        panic("estimateClusterStep: dp %d must divide batch %lld",
              plan.dp, static_cast<long long>(train.batch));

    TrainingConfig replica = train;
    replica.batch = train.batch / plan.dp;

    ClusterStepCost out;
    const int tp = plan.tpDegree();
    if (plan.oneD) {
        // Wang-overlapped 1D TP on a ring at S = 8.
        Time fc = 0.0;
        for (const FcGemm &gemm : blockFcGemms(model, replica))
            fc += cost.estimate1DGemmTime(baseline1DSpec(
                Algorithm::kOneDTP, GemmWork{gemm.m, gemm.k, gemm.n},
                gemm.pass == Pass::kBackwardWeight, tp, 8,
                cfg.bytesPerElement));
        out.tpBlockTime = fc + nonFcBlockTime(cfg, model, replica, tp);
    } else {
        LlmAutotuner tuner(cost);
        AutotuneResult fc = tuner.planAtShape(
            Algorithm::kMeshSlice, model, replica, plan.tpRows,
            plan.tpCols, true);
        out.tpBlockTime =
            fc.blockFcTime + nonFcBlockTime(cfg, model, replica, tp);
    }

    const std::int64_t blocks_per_stage = model.layers / plan.pp;
    out.computePerStage =
        out.tpBlockTime * static_cast<double>(blocks_per_stage);
    // 1F1B pipeline bubble: (m + p - 1) / m.
    out.pipelineTime = out.computePerStage *
                       (static_cast<double>(microbatches + plan.pp - 1) /
                        static_cast<double>(microbatches));

    // DP gradient all-reduce of each chip's weight shard.
    const double params_per_chip =
        model.parameterCount() / static_cast<double>(plan.pp * tp);
    out.dpBytesPerChip =
        static_cast<Bytes>(params_per_chip * cfg.bytesPerElement);
    if (plan.dp > 1) {
        // AllReduce = RdS + AG of (bytes / dp) shards around the DP ring.
        const Time allreduce =
            2.0 * cost.collectiveTime(plan.dp,
                                      out.dpBytesPerChip / plan.dp);
        out.dpTime = (1.0 - dp_overlap) * allreduce;
    }

    out.stepTime = out.pipelineTime + out.dpTime;
    const double step_flops =
        6.0 * model.parameterCount() * static_cast<double>(train.tokens());
    out.utilization =
        step_flops / (out.stepTime * cfg.peakFlops *
                      static_cast<double>(plan.chips()));
    return out;
}

} // namespace meshslice
