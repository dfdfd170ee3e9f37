/**
 * @file
 * Fault-sensitivity study of the distributed GeMM algorithms.
 *
 * Runs a GeMM spec under a `FaultScenario` and under the fault-free
 * baseline on identical fresh clusters, and reports — per algorithm —
 * the slowdown, the extra *exposed* (un-hidden) communication, and the
 * overlap-efficiency delta. This is the Sec-3/Fig-10 question turned
 * around: the paper argues MeshSlice's sliced collectives hide
 * communication; the study measures how much of that hiding survives
 * slow links, stragglers and launch jitter.
 */
#ifndef MESHSLICE_CORE_FAULT_STUDY_HPP_
#define MESHSLICE_CORE_FAULT_STUDY_HPP_

#include <vector>

#include "core/spec.hpp"
#include "sim/critical_path.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"

namespace meshslice {

/** One algorithm's nominal-vs-faulted comparison. */
struct FaultStudyEntry
{
    Algorithm algo = Algorithm::kMeshSlice;
    GemmRunResult nominal; ///< fault-free baseline
    GemmRunResult faulted; ///< same spec under the scenario
    /** faulted.time / nominal.time (>= 1 for any real degradation). */
    double slowdown = 1.0;
    /** Extra core-idle (exposed-comm) seconds caused by the faults. */
    Time exposedCommDelta = 0.0;
    /** overlapEfficiency(faulted) - overlapEfficiency(nominal). */
    double overlapDelta = 0.0;
};

/** Study outcome over a set of algorithms. */
struct FaultStudyResult
{
    std::vector<FaultStudyEntry> entries;

    const FaultStudyEntry *find(Algorithm algo) const;
};

/**
 * Simulate @p algo executing @p spec on a fresh cluster, optionally
 * under @p scenario (nullptr = fault-free; identical code paths, so
 * the two runs differ only by the injected faults). 2D algorithms run
 * on a `spec.rows x spec.cols` torus; `kOneDTP` / `kFsdp` run the
 * forward-pass 1D schedule on a ring of `spec.chips()` chips.
 *
 * When @p stats is non-null, the run's per-resource accounting (the
 * fresh cluster's own registry) is merged into it after the run. The
 * run itself only ever touches its private cluster, so concurrent
 * calls from pool workers are safe; callers wanting deterministic
 * aggregates pass nullptr here and merge per-run snapshots serially.
 *
 * When @p explain is non-null, the critical-path profiler is switched
 * on for the run and @p explain receives the full analysis
 * (attribution, hot spans, what-if sensitivities) of the recorded span
 * graph. Observational only: the simulated result is bit-identical
 * either way.
 */
GemmRunResult runGemmUnderScenario(const ChipConfig &cfg, Algorithm algo,
                                   const Gemm2DSpec &spec,
                                   const FaultScenario *scenario,
                                   StatsRegistry *stats = nullptr,
                                   ExplainRecord *explain = nullptr);

/**
 * Run every algorithm of @p algos nominally and under @p scenario.
 * Algorithms that cannot run the spec's dataflow or mesh
 * (`supportsDataflow`, `supportsMesh`) are skipped. When @p stats
 * is non-null and enabled, per-algorithm deltas are recorded under
 * `fault_study/<algo>/...` (nominal_s, faulted_s, slowdown,
 * exposed_comm_nominal_s, exposed_comm_faulted_s, overlap_nominal,
 * overlap_faulted).
 */
FaultStudyResult runFaultStudy(const ChipConfig &cfg, const Gemm2DSpec &spec,
                               const FaultScenario &scenario,
                               const std::vector<Algorithm> &algos,
                               StatsRegistry *stats = nullptr);

} // namespace meshslice

#endif // MESHSLICE_CORE_FAULT_STUDY_HPP_
