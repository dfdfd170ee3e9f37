/**
 * @file
 * Example: how far does 2D tensor parallelism scale?
 *
 * Reproduces the reasoning of Sec 2.2: sweeps the TP degree from 4 to
 * 1024 chips for a GPT-3 FC layer, comparing 1D TP on a ring against
 * autotuned MeshSlice 2D TP, and reports where 1D TP falls off a cliff
 * while 2D TP keeps scaling.
 */
#include <cstdio>

#include "bench/common.hpp"
#include "net/topology.hpp"
#include "tuner/autotuner.hpp"
#include "util/math.hpp"

using namespace meshslice;

int
main()
{
    const ChipConfig cfg = tpuV4Config();
    const TransformerConfig model = gpt3Config();
    const CostModel cost = CostModel::calibrated(cfg);
    const LlmAutotuner tuner(cost);

    std::printf("GPT-3 FFN1 forward GeMM, weak scaling: 1D TP ring vs "
                "autotuned MeshSlice 2D mesh\n\n");
    std::printf("%6s %10s %14s %16s %12s\n", "chips", "1DTP util",
                "MeshSlice util", "MeshSlice shape", "speedup");

    for (int chips : {4, 16, 64, 256, 1024}) {
        const TrainingConfig train = TrainingConfig::weakScaling(chips);
        FcGemm gemm{"ffn1.fwd", train.tokens(), model.hiddenDim,
                    model.ffnDim, Pass::kForward, 2};

        // 1D TP: AllGather the activations around the full ring.
        Gemm1DSpec one_d;
        one_d.m = gemm.m;
        one_d.k = gemm.k;
        one_d.n = gemm.n;
        one_d.commBytes = gemm.m * gemm.k * cfg.bytesPerElement;
        one_d.chips = chips;
        one_d.sliceCount = 8;
        one_d.local = GemmWork{gemm.m, gemm.k, gemm.n / chips};
        Cluster ring_cluster(cfg, chips);
        RingNetwork ring(ring_cluster);
        GemmRunResult r1 = runGemm1D(ring, one_d);

        // MeshSlice: best shape + S by the cost model.
        int best_rows = chips, best_cols = 1;
        Time best = 1e300;
        int best_s = 1;
        for (auto [rows, cols] : meshShapesOf(chips)) {
            if (!shapeFeasible(gemm.m, gemm.k, gemm.n,
                               static_cast<int>(rows),
                               static_cast<int>(cols)))
                continue;
            Gemm2DSpec spec = makeSpec(gemm, Dataflow::kOS,
                                       static_cast<int>(rows),
                                       static_cast<int>(cols));
            auto [s, t] = cost.tuneSliceCount(Algorithm::kMeshSlice, spec);
            if (t < best) {
                best = t;
                best_rows = static_cast<int>(rows);
                best_cols = static_cast<int>(cols);
                best_s = s;
            }
        }
        Gemm2DSpec spec = makeSpec(gemm, Dataflow::kOS, best_rows,
                                   best_cols, best_s);
        Cluster mesh_cluster(cfg, chips);
        TorusMesh mesh(mesh_cluster, best_rows, best_cols);
        GemmExecutor exec(mesh);
        GemmRunResult r2 = exec.run(Algorithm::kMeshSlice, spec);

        std::printf("%6d %9.1f%% %13.1f%% %13dx%-3d %11.2fx\n", chips,
                    r1.utilization(cfg, chips) * 100.0,
                    r2.utilization(cfg, chips) * 100.0, best_rows,
                    best_cols, r1.time / r2.time);
    }
    std::printf("\n1D TP's traffic grows linearly with the ring size "
                "while 2D TP communicates only within rows/columns — "
                "the reason the paper replaces 8-way 1D TP with up to "
                "256-way 2D TP.\n");
    return 0;
}
