/**
 * @file
 * Analytical cost models of communication and computation
 * (Sec 3.2.2 / 4.5).
 *
 * Communication: `cost = t_launch + steps(P) * (t_sync + shard/bw)`,
 * the paper's linear model (with the step count reflecting whether the
 * ICI rings are driven bidirectionally). The three parameters are
 * *calibrated against the simulator* by the same procedure the paper
 * used against real TPUs: AG runs on 2- and 4-chip rings over shard
 * sizes from 8 KB to 512 MB, `t_sync` from the chip-count delta and
 * `bw`/`t_launch` from linear regression.
 *
 * Computation: FLOPs divided by the shape's effective throughput (the
 * measured-constant model of Sec 3.2.2).
 *
 * On top of these, `estimateGemmTime` assembles the
 * prologue/steady-state/epilogue pipeline estimate for every algorithm
 * so the autotuner can rank configurations.
 */
#ifndef MESHSLICE_TUNER_COST_MODEL_HPP_
#define MESHSLICE_TUNER_COST_MODEL_HPP_

#include <string>

#include "core/spec.hpp"
#include "hw/chip_config.hpp"

namespace meshslice {

/** Calibrated parameters of the linear communication model. */
struct CommCostParams
{
    Rate bw = 0.0;       ///< effective per-step link bandwidth
    Time tSync = 0.0;    ///< per-step synchronization latency
    Time tLaunch = 0.0;  ///< per-operation launch overhead
};

/**
 * Calibrate the communication model against the cluster simulator
 * (stand-in for the paper's 2- and 4-chip TPUv4 microbenchmarks).
 *
 * Memoized process-wide on `chipConfigFingerprint`: repeated calls
 * with an identical configuration (every bench binary and every test
 * constructs `CostModel::calibrated(tpuV4Config())`) run the ring
 * simulations exactly once. Thread-safe with per-key single-flight:
 * concurrent callers with the *same* config wait for the one running
 * calibration instead of repeating it, while callers with *different*
 * configs calibrate concurrently — the PlanEngine hammers this from
 * every pool thread.
 */
CommCostParams calibrateCommModel(const ChipConfig &cfg);

/**
 * Exact textual fingerprint of every ChipConfig field the ring
 * simulations (and therefore any derived result) can depend on, in
 * hex-float form via `util/fingerprint` so distinct values never
 * collide through rounding. Keys the calibration memoization and the
 * cluster component of the PlanEngine's plan-cache key.
 */
std::string chipConfigFingerprint(const ChipConfig &cfg);

/**
 * Number of *actual* (cache-missing) calibration simulations this
 * process has performed. Tests assert it does not grow across
 * repeated `CostModel::calibrated` calls with the same config.
 */
long calibrationRunCount();

/** Drop all memoized calibrations (tests only; the counter stays). */
void clearCalibrationCache();

/** Analytical cost model over a fixed chip configuration. */
class CostModel
{
  public:
    CostModel(const ChipConfig &cfg, const CommCostParams &params)
        : cfg_(cfg), params_(params)
    {
    }

    /** Convenience: calibrate then construct. */
    static CostModel calibrated(const ChipConfig &cfg);

    const CommCostParams &params() const { return params_; }
    const ChipConfig &chip() const { return cfg_; }

    /** AG/RdS of @p shard bytes per chip on a P-ring. */
    Time collectiveTime(int ring_size, Bytes shard_bytes) const;

    /** SUMMA pipelined bcast/reduce of @p payload on a P-ring. */
    Time broadcastTime(int ring_size, Bytes payload_bytes) const;

    /** One SendRecv rotation of @p block bytes. */
    Time shiftTime(Bytes block_bytes) const;

    /** Local GeMM time (effective-FLOPS model). */
    Time computeTime(const GemmWork &work) const;

    /**
     * Pipeline estimate of a full 2D GeMM under @p algo:
     * prologue + (S-1) * steady + epilogue (Sec 3.2.2).
     */
    Time estimateGemmTime(Algorithm algo, const Gemm2DSpec &spec) const;

    /** MeshSlice-specific alias used by the autotuner. */
    Time
    meshSliceTime(const Gemm2DSpec &spec) const
    {
        return estimateGemmTime(Algorithm::kMeshSlice, spec);
    }

    /**
     * Best slice count for @p algo on this spec (searches the valid S
     * values, Sec 3.2.2). Returns {S, estimated time}.
     */
    std::pair<int, Time> tuneSliceCount(Algorithm algo,
                                        const Gemm2DSpec &spec) const;

    /**
     * Pipeline estimate of a 1D baseline (1D TP or FSDP) on its ring:
     * one slice's shift + (S-1) * max(shift, compute) + one slice's
     * compute.
     */
    Time estimate1DGemmTime(const Gemm1DSpec &spec) const;

    /** The slice count in {1, 2, 4, 8, 16, 32} with the lowest
     *  `estimate1DGemmTime` of @p spec (the lowest S on a tie). */
    int tune1DSliceCount(Gemm1DSpec spec) const;

  private:
    ChipConfig cfg_;
    CommCostParams params_;
};

} // namespace meshslice

#endif // MESHSLICE_TUNER_COST_MODEL_HPP_
