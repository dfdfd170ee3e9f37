/**
 * @file
 * Specifications of distributed GeMM problems and their dataflow
 * geometry (Sec 2.3, Fig 1/2, Sec 3.1).
 *
 * A 2D GeMM computes an M x N output contracting a K dimension on a
 * `rows x cols` mesh. The dataflow fixes which matrix stays stationary
 * and how the other two move:
 *
 *  | dataflow | horizontal (row rings)  | vertical (col rings) | local iter GeMM      |
 *  |----------|-------------------------|----------------------|----------------------|
 *  | OS       | A (M*K), AllGather      | B (K*N), AllGather   | (M/Pr, K/S, N/Pc)    |
 *  | LS       | C (M*N), ReduceScatter  | B (K*N), AllGather   | (M/Pr, K/Pc, N/S)    |
 *  | RS       | A (M*K), AllGather      | C (M*N), ReduceScatter | (M/S, K/Pr, N/Pc)  |
 *
 * (The paper's `col`-subscripted ops are within-row = horizontal; the
 * `row`-subscripted ops are within-column = vertical.)
 */
#ifndef MESHSLICE_CORE_SPEC_HPP_
#define MESHSLICE_CORE_SPEC_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/chip_config.hpp"
#include "hw/compute_model.hpp"
#include "net/collectives.hpp"
#include "util/units.hpp"

namespace meshslice {

/** Which matrix of C = A * B stays stationary (Fig 1). */
enum class Dataflow { kOS, kLS, kRS };

const char *dataflowName(Dataflow df);

/**
 * Inverse of `dataflowName` for plan deserialization. Unknown names
 * are `fatal` with @p context naming the offending document.
 */
Dataflow dataflowFromName(std::string_view name,
                          const std::string &context);

/** The distributed GeMM algorithms evaluated in the paper (Sec 4.2/4.3),
 *  plus the one-sided sliced GeMM (Brock & Golin) added on top. */
enum class Algorithm
{
    kMeshSlice,
    kCollective,
    kWang,
    kSumma,
    kCannon,
    kOneSided,
    kOneDTP,
    kFsdp,
};

const char *algorithmName(Algorithm algo);

/** Inverse of `algorithmName`; `fatal` on an unknown name. */
Algorithm algorithmFromName(std::string_view name,
                            const std::string &context);

/** The six 2D algorithms (Fig 9..12 baselines + OneSided). */
std::vector<Algorithm> all2DAlgorithms();

/** All eight algorithms including the 1D baselines. */
std::vector<Algorithm> allAlgorithms();

/** A 2D distributed GeMM problem instance. */
struct Gemm2DSpec
{
    std::int64_t m = 0; ///< output rows
    std::int64_t k = 0; ///< contraction dimension
    std::int64_t n = 0; ///< output columns
    Dataflow dataflow = Dataflow::kOS;
    int rows = 1;       ///< mesh rows (Pr)
    int cols = 1;       ///< mesh columns (Pc)
    int sliceCount = 1; ///< MeshSlice S (1 = Collective behaviour)
    int bytesPerElement = 2;

    int chips() const { return rows * cols; }
    Flops totalFlops() const
    {
        return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);
    }
    std::string str() const;

    /** Field-wise over all eight fields (`str()` omits the element
     *  size, so it is no identity). */
    bool operator==(const Gemm2DSpec &) const = default;
};

/**
 * Reject malformed 2D specs via `fatal()`: non-positive dimensions,
 * mesh factors or slice counts, and dimensions the dataflow's mesh /
 * slice partition does not divide evenly (which would silently drop
 * work to integer truncation). Called by `GemmExecutor::run`; safe to
 * call early from user-facing spec builders.
 */
void validateSpec(const Gemm2DSpec &spec);

/**
 * True iff A, B and C, each in its per-dataflow shape
 * (core/functional.hpp), split evenly over the spec's rows x cols mesh
 * — the operand-sharding rule `validateSpec` enforces.
 */
bool operandsShardEvenly(const Gemm2DSpec &spec);

/** One moving matrix: its full size and the collective it uses. */
struct FlowSide
{
    Bytes matrixBytes = 0;
    CollKind op = CollKind::kAllGather;
};

/** The matrix moving horizontally (on row rings of length `cols`). */
FlowSide horizontalFlow(const Gemm2DSpec &spec);

/** The matrix moving vertically (on column rings of length `rows`). */
FlowSide verticalFlow(const Gemm2DSpec &spec);

/** Bytes of the stationary matrix's per-chip shard. */
Bytes stationaryShardBytes(const Gemm2DSpec &spec);

/** Bytes of the step's three live operands (A, B and the accumulated
 *  C) over the whole mesh: what a recovery re-shard migrates and an
 *  elastic checkpoint holds. */
double liveStateBytes(const Gemm2DSpec &spec);

/** Local GeMM computed per chip in one of the S loop iterations. */
GemmWork localSliceWork(const Gemm2DSpec &spec);

/**
 * The tensor dimension MeshSlice slices for this dataflow (K for OS,
 * N for LS, M for RS).
 */
std::int64_t slicedDim(const Gemm2DSpec &spec);

/**
 * Valid slice counts: divisors of the per-chip sliced extent divided by
 * the memory block size B (paper Sec 3.1.2), capped at @p max_s.
 */
std::vector<int> validSliceCounts(const ChipConfig &cfg,
                                  const Gemm2DSpec &spec, int max_s = 64);

/**
 * @name The per-algorithm rules of the 2D GeMMs
 *
 * The one definition of each decision that the timed executor, the
 * functional runtime, the cost and memory models and the tuners make
 * per algorithm.
 * @{
 */

/**
 * True if @p algo runs the @p df dataflow. Cannon implements only OS
 * (Sec 2.3.2) and OneSided pulls into a stationary C tile, so both run
 * OS alone; the other 2D algorithms run all three.
 */
bool supportsDataflow(Algorithm algo, Dataflow df);

/** True if @p algo runs on a `rows x cols` mesh: Cannon needs a square
 *  one, the other 2D algorithms take any shape. */
bool supportsMesh(Algorithm algo, int rows, int cols);

/**
 * SUMMA's panel iteration count on a `rows x cols` mesh: the matrices
 * split into P x P panels, P = lcm(Pr, Pc) (Sec 2.3.3).
 */
int summaIterations(int rows, int cols);

/**
 * The slice count @p algo actually runs for @p spec: Collective 1,
 * Cannon its P systolic steps, SUMMA min(S, summaIterations) compute
 * groups, every other 2D algorithm `spec.sliceCount`. The dataflow's
 * sliced dimension must divide by it (`validateSpec`).
 */
int effectiveSliceCount(Algorithm algo, const Gemm2DSpec &spec);

/** True if @p algo runs the slice count it is given, so the tuner
 *  searches S; Collective and Cannon fix theirs. */
bool tunesSliceCount(Algorithm algo);

/**
 * True if Wang overlaps the horizontal direction of @p spec: the one
 * whose per-link traffic, one slice's shard times ring length - 1, is
 * the heavier (horizontal on a tie). The other direction is one
 * blocking collective.
 */
bool wangOverlapsHorizontal(const Gemm2DSpec &spec);

/** @} */

/** A 1D distributed GeMM (1D TP or FSDP baseline, Sec 4.3). */
struct Gemm1DSpec
{
    std::int64_t m = 0;
    std::int64_t k = 0;
    std::int64_t n = 0;
    /** Matrix communicated around the ring (activations for 1D TP,
     *  weights for FSDP). */
    Bytes commBytes = 0;
    /** True if the communication is a ReduceScatter (otherwise AG). */
    bool commIsReduce = false;
    int chips = 1;
    int sliceCount = 1;
    int bytesPerElement = 2;
    /** Per-chip local GeMM over the whole operation (set by builder:
     *  (m, k, n/chips) for 1D TP, (m/chips, k, n) for FSDP). */
    GemmWork local;

    GemmWork localWork() const { return local; }
    Flops totalFlops() const
    {
        return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);
    }
};

/** The 1D analogue of `validateSpec(Gemm2DSpec)` (used by
 *  `runGemm1D`). */
void validateSpec(const Gemm1DSpec &spec);

/**
 * The 1D baseline spec (Sec 4.3) of the @p gemm product on a ring of
 * @p chips at @p slice_count slices. 1D TP (@p algo kOneDTP) moves
 * activations, all-gathering the (m x k) input; FSDP moves weights,
 * all-gathering the (k x n) weights. In the backward-weight pass
 * (@p backward_weight) both reduce-scatter the (m x n) weight gradient
 * instead.
 */
Gemm1DSpec baseline1DSpec(Algorithm algo, const GemmWork &gemm,
                          bool backward_weight, int chips, int slice_count,
                          int bytes_per_element);

/** Outcome of one simulated distributed GeMM. */
struct GemmRunResult
{
    Time time = 0.0;
    Flops flops = 0.0;
    CommStats horizontal; ///< summed over iterations (max over rings)
    CommStats vertical;

    /**
     * Overlap-efficiency attribution (filled by `GemmExecutor::run` /
     * `runGemm1D` from the fluid network's core accounting):
     * `computeBusy` is the mean per-chip core busy-seconds during the
     * run; `exposedComm` is the wall time the cores sat idle — the
     * communication (and bubbles) the schedule failed to hide.
     */
    Time computeBusy = 0.0;
    Time exposedComm = 0.0;

    /** Achieved / peak throughput over the whole cluster. */
    double
    utilization(const ChipConfig &cfg, int chips) const
    {
        if (time <= 0.0)
            return 0.0;
        return flops / (time * cfg.peakFlops * static_cast<double>(chips));
    }

    /** Fraction of the run during which the cores were busy. */
    double
    computeBoundFraction() const
    {
        if (time <= 0.0)
            return 0.0;
        return computeBusy / time;
    }

    /** Fraction of the run during which the cores were idle (waiting
     *  on un-hidden communication or pipeline bubbles). */
    double
    commBoundFraction() const
    {
        return 1.0 - computeBoundFraction();
    }

    /**
     * Fraction of the issued communication wall time that was hidden
     * behind computation: 1 = fully overlapped (MeshSlice's goal),
     * 0 = fully exposed (the Collective baseline). Clamped to [0, 1].
     */
    double
    overlapEfficiency() const
    {
        const Time comm_wall = horizontal.total + vertical.total;
        if (comm_wall <= 0.0)
            return 1.0;
        const double eff = (comm_wall - exposedComm) / comm_wall;
        return eff < 0.0 ? 0.0 : (eff > 1.0 ? 1.0 : eff);
    }
};

} // namespace meshslice

#endif // MESHSLICE_CORE_SPEC_HPP_
