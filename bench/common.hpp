/**
 * @file
 * Shared harness for the paper-reproduction benchmarks: runs all 12
 * FC-layer training GeMMs of one transformer block through the cluster
 * simulator for a given algorithm, with the autotuner picking mesh
 * shape, dataflows and slice counts (optimal-per-algorithm, as the
 * paper's methodology requires for fairness, Sec 4.2).
 */
#ifndef MESHSLICE_BENCH_COMMON_HPP_
#define MESHSLICE_BENCH_COMMON_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "model/transformer.hpp"
#include "tuner/autotuner.hpp"

namespace meshslice {

/**
 * Parse @p text as a whole-string positive decimal integer no larger
 * than @p max: no sign, no whitespace, no trailing text, no overflow.
 * The one strict integer parser of the bench and example CLIs.
 */
std::optional<std::int64_t> parsePositiveInt(const char *text,
                                             std::int64_t max);

/**
 * Shared CLI of the report-style benchmarks:
 *
 *   <report> [chips] [--seed N] [--mtbf SECONDS] [--out PATH] [--smoke]
 *
 * The leading positional argument is the chip count (back-compatible
 * with the original `report <chips>` form). `--seed` re-bases every
 * scenario seed the report derives, `--mtbf` overrides the per-chip
 * MTBF of the recovery models (reports that have no failure process
 * accept and ignore it, so wrapper scripts can pass one flag set to
 * every report), and `--out` redirects the BENCH_*.json artifact.
 * `--smoke` asks the report for a fast CI run: shrunken sweeps and
 * shortlists, but the *same* JSON schema, so artifact validators can
 * run against smoke output. Both `--flag value` and `--flag=value`
 * spellings work; an unknown flag is fatal with a usage message.
 */
struct BenchArgs
{
    int chips = 16;
    std::uint64_t seed = 7;
    /** Per-chip MTBF override in seconds; 0 = the report's default. */
    Time mtbf = 0.0;
    /** BENCH_*.json path override; empty = the report's default. */
    std::string out;
    /** Fast-CI mode: shrink sweeps, keep the JSON schema. */
    bool smoke = false;

    static BenchArgs parse(int argc, char **argv, int default_chips = 16);
};

/** Aggregate of one block's FC layers under one algorithm. */
struct FcSimResult
{
    Time fcTime = 0.0;   ///< simulated fwd+bwd FC time of one block
    Flops fcFlops = 0.0; ///< total GeMM FLOPs of the block
    double utilization = 0.0;
    CommStats comm;        ///< launch/transfer/sync summed, both dirs
    Time computeIdeal = 0.0; ///< ideal (communication-free) GeMM time
    int rows = 0;          ///< chosen mesh rows (0 for 1D ring)
    int cols = 0;
};

/**
 * Simulate one block's 12 FC GeMMs under @p algo on @p chips chips.
 * 2D algorithms get an autotuned mesh shape / dataflows / slice
 * counts; 1D baselines run on a ring. @p optimize_dataflow false
 * forces Y-stationary dataflows (the Table 2 baseline).
 */
FcSimResult simulateFcBlock(const ChipConfig &cfg,
                            const TransformerConfig &model,
                            const TrainingConfig &train, int chips,
                            Algorithm algo, bool optimize_dataflow = true,
                            const ChipConfig *plan_cfg = nullptr);

/**
 * Simulate a single 2D GeMM (autotuned S) under @p algo on the given
 * mesh shape; used by the per-shape and per-S sweeps (Fig 11/13/14).
 */
GemmRunResult simulateOneGemm(const ChipConfig &cfg, Algorithm algo,
                              const Gemm2DSpec &spec);

/**
 * Repeats behind every gated host-throughput leaf: one sub-second run
 * swings by ±30% between identical builds on a shared host, so each
 * such leaf is the median of this many timed repeats.
 */
constexpr int kTimedRepeats = 5;

/**
 * Host time a timed repeat covers at least. Host stalls last up to a
 * few hundred ms, so back-to-back repeats of a millisecond-scale run
 * all fall inside one; repeats this long leave most of them outside.
 */
constexpr double kMinRepeatMs = 100.0;

/**
 * One timed repeat: calls @p run, which returns the host ms it timed,
 * until those add up to `kMinRepeatMs` (at least once), and returns
 * the mean ms per call.
 */
double timedRepeatMs(const std::function<double()> &run);

/** Median of @p samples (mean of the middle two when even); 0 when
 *  empty. */
double medianOf(std::vector<double> samples);

/** FLOP utilization of a run on @p chips chips. */
double utilizationOf(const ChipConfig &cfg, const GemmRunResult &result,
                     int chips);

/**
 * End-to-end step time estimate for the whole model: FC time from the
 * simulation plus the non-FC roofline estimate (Sec 4.4), per block.
 */
Time endToEndBlockTime(const ChipConfig &cfg,
                       const TransformerConfig &model,
                       const TrainingConfig &train, int chips,
                       const FcSimResult &fc);

} // namespace meshslice

#endif // MESHSLICE_BENCH_COMMON_HPP_
