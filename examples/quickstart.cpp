/**
 * @file
 * Quickstart: the MeshSlice library in ~60 lines.
 *
 * 1. Verify the MeshSlice algorithm numerically: run the S-way sliced
 *    2D GeMM on real data over a 2x4 mesh and compare against a dense
 *    reference.
 * 2. Simulate the same GeMM at TPUv4-cluster scale and compare the
 *    five 2D algorithms' execution times.
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "core/executor.hpp"
#include "core/functional.hpp"

using namespace meshslice;

int
main()
{
    // ---- Part 1: numerical correctness on a small mesh. -------------
    const MeshShape mesh_shape{2, 4};
    const int slice_count = 4, block = 2;
    Matrix a = Matrix::random(64, 128, /*seed=*/1);
    Matrix b = Matrix::random(128, 64, /*seed=*/2);

    DistMatrix da = DistMatrix::scatter(a, mesh_shape);
    DistMatrix db = DistMatrix::scatter(b, mesh_shape);
    DistMatrix dc = funcGemm(Algorithm::kMeshSlice, Dataflow::kOS, da, db,
                             slice_count, block);

    Matrix reference = Matrix::gemm(a, b);
    std::printf("MeshSlice OS on a %dx%d mesh, S=%d: max |diff| vs dense "
                "reference = %.2e\n",
                mesh_shape.rows, mesh_shape.cols, slice_count,
                dc.gather().maxAbsDiff(reference));

    // ---- Part 2: timing on a simulated 256-chip TPUv4 cluster. ------
    const ChipConfig cfg = tpuV4Config();
    Gemm2DSpec spec;
    spec.m = 262144; // 128 sequences x 2048 tokens
    spec.k = 12288;  // GPT-3 hidden dim
    spec.n = 49152;  // GPT-3 FFN dim
    spec.dataflow = Dataflow::kOS;
    spec.rows = 32;
    spec.cols = 8;
    spec.sliceCount = 8;

    std::printf("\nGPT-3 FFN1 forward GeMM on a simulated 32x8 TPUv4 "
                "mesh:\n%-12s %10s %12s\n", "algorithm", "time (ms)",
                "utilization");
    for (Algorithm algo :
         {Algorithm::kMeshSlice, Algorithm::kCollective, Algorithm::kWang,
          Algorithm::kSumma}) {
        Cluster cluster(cfg, spec.chips());
        TorusMesh mesh(cluster, spec.rows, spec.cols);
        GemmExecutor exec(mesh);
        GemmRunResult res = exec.run(algo, spec);
        std::printf("%-12s %10.3f %11.1f%%\n", algorithmName(algo),
                    res.time * 1e3,
                    res.utilization(cfg, spec.chips()) * 100.0);
    }
    return 0;
}
