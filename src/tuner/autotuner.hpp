/**
 * @file
 * The MeshSlice LLM autotuner (Sec 3.2).
 *
 * Phase 1 picks, per FC layer, the dataflow that keeps the largest of
 * {X, W, Y} stationary, then derives the backward-pass dataflows from
 * the same row of Table 1 (so nothing is transposed between passes and
 * each matrix always flows in the same direction). Phase 2 exhaustively
 * co-optimizes the cluster's mesh shape and each GeMM's slice count
 * using the analytical cost models.
 */
#ifndef MESHSLICE_TUNER_AUTOTUNER_HPP_
#define MESHSLICE_TUNER_AUTOTUNER_HPP_

#include <string_view>
#include <vector>

#include "model/transformer.hpp"
#include "tuner/cost_model.hpp"

namespace meshslice {

/** Which matrix of Y = X W stays stationary (Table 1 rows). */
enum class Stationary { kY, kX, kW };

const char *stationaryName(Stationary st);

/** Inverse of `stationaryName`; `fatal` on an unknown name. */
Stationary stationaryFromName(std::string_view name,
                              const std::string &context);

/** A fully configured GeMM: shape, dataflow and slice count. */
struct GemmPlan
{
    FcGemm gemm;
    Dataflow dataflow = Dataflow::kOS;
    int sliceCount = 1;
    Time estTime = 0.0;
};

/** The three training GeMMs of one FC layer, configured. */
struct FcLayerPlan
{
    int fcLayer = 0;
    Stationary stationary = Stationary::kY;
    std::vector<GemmPlan> passes; ///< fwd, bwdD, bwdW
};

/** Autotuner output: mesh shape plus per-layer plans. */
struct AutotuneResult
{
    int rows = 1;
    int cols = 1;
    std::vector<FcLayerPlan> layers; ///< one per FC layer (4)
    Time blockFcTime = 0.0;          ///< estimated fwd+bwd FC time/block

    /** Flattened per-GeMM plans (12 entries). */
    std::vector<GemmPlan> allPlans() const;
};

/** Table 1: the largest matrix of Y[M,n] = X[M,k] W[k,n]. */
Stationary chooseStationary(std::int64_t m, std::int64_t k, std::int64_t n);

/**
 * Table 1 row lookup: dataflows and computational shapes of the three
 * training GeMMs of a layer with forward shape (M, k_in, n_out).
 */
std::vector<GemmPlan> dataflowsForLayer(Stationary st, const FcGemm &fwd);

/** Build an executor/cost-model spec from a planned GeMM. */
Gemm2DSpec makeSpec(const FcGemm &gemm, Dataflow df, int rows, int cols,
                    int slice_count = 1, int bytes_per_element = 2);

/** True if the mesh shape divides all three GeMM dimensions. */
bool shapeFeasible(const FcGemm &gemm, int rows, int cols);

/** The MeshSlice LLM autotuner. */
class LlmAutotuner
{
  public:
    explicit LlmAutotuner(CostModel cost) : cost_(std::move(cost)) {}

    const CostModel &cost() const { return cost_; }

    /**
     * Run both phases for @p chips-way 2D TP.
     * @p optimize_dataflow false = the Table 2 baseline (Y-stn
     * everywhere); true = phase-1 stationary selection.
     */
    AutotuneResult tune(const TransformerConfig &model,
                        const TrainingConfig &train, int chips,
                        bool optimize_dataflow = true) const;

    /**
     * Phase 2 for a fixed algorithm and fixed per-GeMM dataflows:
     * best mesh shape (by summed estimated time) and the per-GeMM
     * tuned slice counts at that shape — `rankShapes(..., 1).front()`.
     */
    AutotuneResult tuneForAlgorithm(Algorithm algo,
                                    const TransformerConfig &model,
                                    const TrainingConfig &train, int chips,
                                    bool optimize_dataflow = true) const;

    /**
     * The phase-2 sweep: the top @p k feasible mesh shapes by nominal
     * estimated block FC time, each returned as a complete plan
     * (tuned slice counts included). Entry 0 is the shape
     * `tuneForAlgorithm` picks. Deterministic order: estimated time,
     * ties broken by lower row count. Cannon only considers square
     * shapes. The fault-aware tuners re-rank this shortlist
     * (`tuneRobustShortlist`, `tuneWithRecoveryShortlist`).
     *
     * Every candidate shape is traced as a `"phase":"shape"` record:
     * shapes the divisibility pre-check prunes as `"feasible":false`,
     * evaluated shapes right after their `"slice"` records. `fatal`
     * when no shape divides the GeMMs or no slice count fits in HBM.
     */
    std::vector<AutotuneResult> rankShapes(Algorithm algo,
                                           const TransformerConfig &model,
                                           const TrainingConfig &train,
                                           int chips, int k,
                                           bool optimize_dataflow
                                           = true) const;

    /**
     * Phase 1 plus slice-count tuning at a *fixed* mesh shape (used by
     * the mesh-shape and slice-count sweeps of Fig 13/14). If
     * @p force_s > 0, every GeMM uses that slice count instead of the
     * tuned one.
     */
    AutotuneResult planAtShape(Algorithm algo,
                               const TransformerConfig &model,
                               const TrainingConfig &train, int rows,
                               int cols, bool optimize_dataflow = true,
                               int force_s = 0) const;

  private:
    CostModel cost_;
};

} // namespace meshslice

#endif // MESHSLICE_TUNER_AUTOTUNER_HPP_
