#include "core/memory_model.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Shards of all three matrices, resident for the whole operation. */
Bytes
residentBytes(const Gemm2DSpec &spec)
{
    const Bytes e = spec.bytesPerElement;
    const Bytes chips = spec.chips();
    return (spec.m * spec.k + spec.k * spec.n + spec.m * spec.n) * e /
           chips;
}

} // namespace

MemoryFootprint
gemmMemoryFootprint(Algorithm algo, const Gemm2DSpec &spec)
{
    MemoryFootprint fp;
    fp.residentShards = residentBytes(spec);

    const FlowSide h = horizontalFlow(spec);
    const FlowSide v = verticalFlow(spec);
    // Fully gathered panel sizes per chip (the Collective working set):
    // a horizontal AG materializes the matrix's whole row share, a
    // vertical one its whole column share.
    const Bytes h_panel = h.matrixBytes / spec.rows;
    const Bytes v_panel = v.matrixBytes / spec.cols;
    const Bytes s = std::max(1, effectiveSliceCount(algo, spec));

    auto side_bytes = [](const FlowSide &side, Bytes panel, Bytes slices) {
        // AG sides buffer the gathered panel; RdS sides stage the
        // partial result of the same extent before scattering.
        return std::pair<Bytes, Bytes>{
            side.op == CollKind::kAllGather ? panel / slices : 0,
            side.op == CollKind::kReduceScatter ? panel / slices : 0};
    };

    switch (algo) {
      case Algorithm::kMeshSlice: {
        auto [hg, hp] = side_bytes(h, h_panel, s);
        auto [vg, vp] = side_bytes(v, v_panel, s);
        // Double buffering: next iteration's gather overlaps this
        // iteration's compute.
        fp.gatherBuffers = 2 * (hg + vg);
        fp.partialBuffers = 2 * (hp + vp);
        return fp;
      }
      case Algorithm::kCollective: {
        auto [hg, hp] = side_bytes(h, h_panel, s);
        auto [vg, vp] = side_bytes(v, v_panel, s);
        fp.gatherBuffers = hg + vg; // no pipeline, single buffers
        fp.partialBuffers = hp + vp;
        return fp;
      }
      case Algorithm::kWang: {
        // The blocking direction materializes its full panel; the
        // overlapped direction stages 1/S rotations, double-buffered.
        const bool ov_h = wangOverlapsHorizontal(spec);
        const Bytes ov_panel = ov_h ? h_panel : v_panel;
        const Bytes bl_panel = ov_h ? v_panel : h_panel;
        fp.gatherBuffers = bl_panel + 2 * (ov_panel / s);
        return fp;
      }
      case Algorithm::kSumma: {
        // Per-iteration broadcast panels (1/P of the row/col share),
        // double-buffered; reduce sides stage symmetric partials.
        const Bytes p_iter = summaIterations(spec.rows, spec.cols);
        fp.gatherBuffers = 2 * (h_panel + v_panel) / p_iter;
        return fp;
      }
      case Algorithm::kOneSided: {
        // Each tile pulls 1/S slices of both panels via one-sided
        // gets, double-buffered so the next slice's gets overlap this
        // slice's compute — same working set as MeshSlice at equal S.
        fp.gatherBuffers = 2 * (h_panel + v_panel) / s;
        return fp;
      }
      case Algorithm::kCannon: {
        // Shards rotate: one extra receive buffer per input matrix.
        const Bytes e = spec.bytesPerElement;
        fp.gatherBuffers =
            (spec.m * spec.k + spec.k * spec.n) * e / spec.chips();
        return fp;
      }
      default:
        panic("gemmMemoryFootprint: %s is not a 2D algorithm",
              algorithmName(algo));
    }
}

MemoryFootprint
gemmMemoryFootprint1D(const Gemm1DSpec &spec)
{
    MemoryFootprint fp;
    const Bytes e = spec.bytesPerElement;
    fp.residentShards =
        (spec.m * spec.k + spec.k * spec.n + spec.m * spec.n) * e /
        spec.chips;
    // The communicated matrix is materialized in full on each chip —
    // that is what AG around the whole ring produces (the 1D memory
    // cliff that motivates 2D TP).
    fp.gatherBuffers = spec.commBytes;
    return fp;
}

bool
fitsInMemory(const ChipConfig &cfg, Algorithm algo,
             const Gemm2DSpec &spec)
{
    return gemmMemoryFootprint(algo, spec).total() <= cfg.hbmCapacity;
}

PipelineMemoryFootprint
pipelineStageMemory(const PipelineStageMemorySpec &spec)
{
    if (spec.residentBytes < 0 || spec.activationBytes < 0 ||
        spec.boundaryBytes < 0)
        fatal("pipelineStageMemory: negative byte counts (resident %lld, "
              "activation %lld, boundary %lld)",
              static_cast<long long>(spec.residentBytes),
              static_cast<long long>(spec.activationBytes),
              static_cast<long long>(spec.boundaryBytes));
    if (spec.peakInFlight <= 0)
        fatal("pipelineStageMemory: peak in-flight count must be "
              "positive (got %d) — every schedule stashes at least the "
              "micro-batch it is working on", spec.peakInFlight);
    PipelineMemoryFootprint fp;
    fp.resident = spec.residentBytes;
    const Bytes per_mb =
        spec.recompute ? spec.boundaryBytes : spec.activationBytes;
    fp.stash = static_cast<Bytes>(spec.peakInFlight) * per_mb;
    // One receive buffer for the incoming micro-batch and one send
    // buffer for the outgoing one (double-buffered boundaries).
    fp.boundaryBuffers = 2 * spec.boundaryBytes;
    return fp;
}

bool
pipelineFitsInMemory(const ChipConfig &cfg,
                     const PipelineStageMemorySpec &spec)
{
    return pipelineStageMemory(spec).total() <= cfg.hbmCapacity;
}

} // namespace meshslice
