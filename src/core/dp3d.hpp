/**
 * @file
 * 3D-cluster composition (Sec 7): stacked 2D tori with depth rings,
 * plus timed executors for the two ways to run a GeMM on 1024+ chips:
 *
 *  - MeshSlice+DP: every depth layer runs the MeshSlice 2D GeMM on its
 *    batch shard; the weight gradients are then all-reduced over the
 *    depth rings (standard data parallelism).
 *  - 2.5D GeMM (Solomonik–Demmel): the inputs are replicated over the
 *    c depth layers, each layer runs P/c Cannon-style shifted
 *    iterations from a rotated start, and the partial outputs are
 *    reduced back over depth. Inherits Cannon's square-base-mesh
 *    restriction and skew traffic.
 */
#ifndef MESHSLICE_CORE_DP3D_HPP_
#define MESHSLICE_CORE_DP3D_HPP_

#include <memory>
#include <vector>

#include "core/executor.hpp"
#include "core/spec.hpp"
#include "net/topology.hpp"

namespace meshslice {

/**
 * A rows x cols x depth torus: `depth` stacked 2D tori plus one depth
 * ring per (row, col) position. Chip (r, c, l) has index
 * l * rows * cols + r * cols + c.
 */
class Torus3D
{
  public:
    Torus3D(Cluster &cluster, int rows, int cols, int depth);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int depth() const { return depth_; }
    int chips() const { return rows_ * cols_ * depth_; }

    TorusMesh &layer(int l) { return *layers_.at(static_cast<size_t>(l)); }
    const Ring &depthRing(int r, int c) const
    {
        return depthRings_.at(static_cast<size_t>(r * cols_ + c));
    }
    /** Every depth ring, row-major over the (row, col) positions. */
    const std::vector<Ring> &depthRings() const { return depthRings_; }

    Cluster &cluster() { return cluster_; }

  private:
    Cluster &cluster_;
    int rows_;
    int cols_;
    int depth_;
    std::vector<std::unique_ptr<TorusMesh>> layers_;
    std::vector<Ring> depthRings_;
};

/** Outcome of a 3D GeMM execution. */
struct Gemm3DResult
{
    Time time = 0.0;
    Flops flops = 0.0;
    CommStats intraLayer; ///< 2D-mesh communication (both directions)
    CommStats interLayer; ///< depth-ring communication

    double
    utilization(const ChipConfig &cfg, int chips) const
    {
        if (time <= 0.0)
            return 0.0;
        return flops / (time * cfg.peakFlops * static_cast<double>(chips));
    }
};

/**
 * MeshSlice+DP on @p torus: each layer executes @p algo (normally
 * kMeshSlice) on the per-layer spec (whose M must already be the
 * per-replica batch share), then the depth rings all-reduce
 * @p weight_grad_bytes of gradients per chip. Layers run concurrently.
 */
Gemm3DResult runMeshSliceDP(Torus3D &torus, Algorithm algo,
                            const Gemm2DSpec &layer_spec,
                            Bytes weight_grad_bytes);

/**
 * 2.5D GeMM of an (m x n, contracting k) product on @p torus. Requires
 * a square base mesh and depth | rows.
 */
Gemm3DResult run25DGemm(Torus3D &torus, std::int64_t m, std::int64_t k,
                        std::int64_t n, int bytes_per_element = 2);

} // namespace meshslice

#endif // MESHSLICE_CORE_DP3D_HPP_
