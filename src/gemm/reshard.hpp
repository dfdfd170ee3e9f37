/**
 * @file
 * Elastic mesh re-sharding after a fail-stop failure.
 *
 * When a chip dies permanently, the surviving R'xC' mesh (one row or
 * one column smaller) must take over the work of the old RxC mesh:
 * every `DistMatrix` operand is re-partitioned onto the survivor
 * shapes and the blocks that changed owner move over the ICI. This
 * module provides both halves of that story:
 *
 *  - the *functional* re-shard (`reshard`): a bit-exact redistribution
 *    of real shard data, so tests can prove a MeshSlice GeMM on the
 *    survivor mesh still matches the single-chip reference; and
 *  - the *modeled* re-shard (`planReshard` / `reshardTime`): the exact
 *    block-movement traffic (per-move SendRecv bytes, per-chip
 *    ingress/egress) and a first-order time estimate, and its
 *    closed-form twin (`reshardBytesModel` / `reshardTimeModel`),
 *    which `expectedReshard` averages over the failed line to price a
 *    failure for the recovery-aware tuner, the elastic runtime's
 *    Young–Daly solve and the recovery report.
 *
 * Ownership convention matches `DistMatrix`: the global matrix is cut
 * into equal blocks, shard (i, j) lives on the chip at mesh coordinate
 * (i, j). Survivors keep their physical chip ids; only their mesh
 * coordinates are renumbered (row-major, skipping the dead row/col).
 * The cross-mesh remap between pipeline stages (`planRemap` /
 * `remapBytesModel`) is the same geometry with owners compared by
 * position: both plans come from one block-overlap walk, and both
 * models from one per-axis strip count.
 */
#ifndef MESHSLICE_GEMM_RESHARD_HPP_
#define MESHSLICE_GEMM_RESHARD_HPP_

#include <cstdint>
#include <utility>
#include <vector>

#include "gemm/dist_matrix.hpp"
#include "util/units.hpp"

namespace meshslice {

struct ChipConfig;

/**
 * The survivor mesh after exactly one row *or* one column of an RxC
 * mesh is retired (the row/column containing the dead chip — 2D
 * collectives need full rows/columns, so the whole line is drained
 * even though only one chip died; its healthy peers become spares).
 */
struct SurvivorMesh
{
    /** The mesh shape before the failure. */
    MeshShape from;
    /** Index of the retired row, or -1 when a column was retired. */
    int failedRow = -1;
    /** Index of the retired column, or -1 when a row was retired. */
    int failedCol = -1;

    /** Shape of the surviving mesh (one row or column fewer). */
    MeshShape to() const;

    /**
     * Old mesh coordinate of the survivor at new coordinate (p, q):
     * rows/cols renumber past the retired line.
     */
    std::pair<int, int> oldCoord(int p, int q) const;

    /** Old linear chip id (r * from.cols + c) of survivor (p, q). */
    int oldChipAt(int p, int q) const;

    /** Fatal unless exactly one of failedRow/failedCol is in range
     *  and the survivor mesh is non-empty. */
    void validate() const;
};

/** One block movement of a re-shard (modeled SendRecv). */
struct ReshardMove
{
    /** Old linear chip ids. `srcChip` may be in the retired line:
     *  its blocks still hold the state that must reach survivors. */
    int srcChip = -1;
    int dstChip = -1;
    Bytes bytes = 0;
};

/** The complete traffic picture of one re-shard. */
struct ReshardPlan
{
    MeshShape from;
    MeshShape to;
    /** Cross-chip movements, matrix by matrix, each matrix's ordered
     *  by (dst, src) for determinism. */
    std::vector<ReshardMove> moves;
    /** Sum of `moves[].bytes` (bytes that cross the ICI). */
    Bytes totalBytes = 0;
    /** Bytes whose owner did not change (pure local relabeling). */
    Bytes localBytes = 0;
    /** Heaviest per-chip receive / send totals over all the plan's
     *  matrices — what the first-order time model is limited by. */
    Bytes maxChipIngress = 0;
    Bytes maxChipEgress = 0;
};

/**
 * The survivor meshes reachable after chip @p dead_chip (old linear
 * id) fails on a `from`-shaped mesh: retire its row (when the mesh has
 * at least two rows) and/or retire its column (at least two columns).
 * Ordered retire-row first for determinism; fatal when neither exists
 * (a 1x1 mesh has no survivors) or the chip id is out of range. The
 * elastic re-planner ranks these options by degraded step time plus
 * re-shard cost.
 */
std::vector<SurvivorMesh> survivorOptionsForChip(MeshShape from,
                                                 int dead_chip);

/**
 * Old linear chip id -> new linear chip id under @p sv, with -1 for
 * every chip of the retired line. The elastic runtime uses this to
 * renumber scenario patterns and straggler ids after a shrink.
 */
std::vector<int> oldToNewChipMap(const SurvivorMesh &sv);

/**
 * Exact block-movement plan for re-sharding the live global
 * @p matrices, each (rows, cols) of @p bytes_per_element-byte
 * elements, from `sv.from` onto `sv.to()`: every matrix's moves in
 * list order, summed totals, and per-chip maxima over the matrices'
 * summed traffic. Dimensions must divide evenly by both mesh shapes
 * (the same invariant `DistMatrix::scatter` enforces).
 */
ReshardPlan
planReshard(const std::vector<std::pair<std::int64_t, std::int64_t>> &matrices,
            int bytes_per_element, const SurvivorMesh &sv);

/**
 * Functional re-shard: returns @p m redistributed onto the survivor
 * mesh. Pure data movement — every element is copied bit-exactly, so
 * `reshard(m, sv).gather()` equals `m.gather()` exactly.
 */
DistMatrix reshard(const DistMatrix &m, const SurvivorMesh &sv);

/**
 * Continuous (mesh-only) approximation of the moved fraction: the
 * measure of the unit square whose owner changes between the two
 * partitions, times @p total_bytes. Equals `planReshard(...).totalBytes`
 * exactly whenever the dimensions divide both meshes — the discrete
 * plan is the ground truth, this form is what closed-form tuner
 * sweeps use when no matrix is in scope.
 */
double reshardBytesModel(double total_bytes, const SurvivorMesh &sv);

/** Modeled moved bytes and time of one single-failure re-shard. */
struct ReshardEstimate
{
    double bytes = 0.0;
    Time time = -1.0; ///< negative: the mesh has no survivor mesh
};

/**
 * The expected single-failure re-shard of @p state_bytes of live state
 * on @p mesh: `reshardBytesModel` averaged over the uniformly random
 * failed row (or column), priced by `reshardTimeModel` on the survivor
 * chips. The recovery controller picks the orientation after seeing the
 * failure, so this returns the cheaper one, rows on a tie; a 1x1 mesh
 * has neither and gets a negative time.
 */
ReshardEstimate expectedReshard(const ChipConfig &cfg, MeshShape mesh,
                                double state_bytes);

/**
 * First-order re-shard time for @p plan: one launch, then every chip
 * streams its ingress/egress through its 4 torus links in parallel
 * (the bottleneck chip sets the pace), then one barrier.
 */
Time reshardTime(const ChipConfig &cfg, const ReshardPlan &plan);

/**
 * Companion of `reshardBytesModel` for closed-form sweeps: the
 * first-order re-shard time when only the modeled moved-byte total is
 * known. Assumes the moved bytes spread evenly over the survivors'
 * ingress (the balanced approximation of `reshardTime`'s bottleneck).
 */
Time reshardTimeModel(const ChipConfig &cfg, double moved_bytes,
                      int survivor_chips);

/**
 * Per-chip streaming rate both re-shard time models charge: all four
 * torus links in parallel, derated by the logical-mesh contention
 * factor. Exposed so the simulated re-shard uses the identical NIC
 * capacity as the closed-form `reshardTime`.
 */
Rate reshardChipRate(const ChipConfig &cfg);

/**
 * One block movement of a cross-mesh remap: source mesh coordinate on
 * the producing mesh, destination coordinate on the consuming mesh.
 * `matched` marks position-preserving movements ((i, j) -> (i, j)),
 * which ride the direct boundary link between the two meshes; the rest
 * needs rerouting inside the destination mesh.
 */
struct RemapMove
{
    int srcRow = 0;
    int srcCol = 0;
    int dstRow = 0;
    int dstCol = 0;
    Bytes bytes = 0;
    bool matched = false;
};

/**
 * The complete traffic picture of handing a (rows x cols) tensor from
 * one 2D mesh layout to another — the cross-mesh resharding between
 * adjacent pipeline stages (Zhuang et al.'s inter-stage cost). Unlike
 * `ReshardPlan`, the two meshes are *disjoint chip sets* (stage s and
 * stage s+1), so every byte crosses the boundary; the interesting
 * split is matched (same (i, j) position on both meshes — a pure
 * point-to-point boundary hop) versus moved (owner position changes —
 * extra intra-mesh forwarding on the consumer side).
 */
struct RemapPlan
{
    MeshShape from;
    MeshShape to;
    /** Movements ordered by (dst, src) position for determinism. */
    std::vector<RemapMove> moves;
    Bytes totalBytes = 0;   ///< the whole tensor (matched + moved)
    Bytes matchedBytes = 0; ///< position-preserving boundary traffic
    Bytes movedBytes = 0;   ///< traffic that changes mesh position
    /** Heaviest per-destination-position receive / per-source send. */
    Bytes maxChipIngress = 0;
    Bytes maxChipEgress = 0;
};

/**
 * Exact block-overlap plan for re-laying a global (rows x cols) tensor
 * of @p bytes_per_element-byte elements from a `from`-shaped mesh onto
 * a `to`-shaped one (`planReshard`'s destination-major overlap walk).
 * Dimensions must divide evenly by both shapes. When `from == to` the
 * plan is all-matched: zero remap bytes, which is how layout-aligned
 * adjacent stages get their free boundary. The discrete reference the
 * tests check `remapBytesModel` against.
 */
RemapPlan planRemap(std::int64_t rows, std::int64_t cols,
                    int bytes_per_element, MeshShape from, MeshShape to);

/**
 * Continuous companion of `planRemap` for closed-form sweeps: the
 * moved-byte total (position-changing fraction of @p total_bytes).
 * Equals `planRemap(...).movedBytes` exactly whenever the dimensions
 * divide both meshes — `reshardBytesModel`'s per-axis strip count with
 * no line retired. The pipeline stage model charges it.
 */
double remapBytesModel(double total_bytes, MeshShape from, MeshShape to);

} // namespace meshslice

#endif // MESHSLICE_GEMM_RESHARD_HPP_
