#include "core/functional.hpp"

#include "gemm/ring_collectives.hpp"
#include "gemm/slicing.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** One chip's GeMM: OS out += a b, LS out += a b^T, RS out += a^T b. */
void
localGemm(Dataflow df, const Matrix &a, const Matrix &b, Matrix &out)
{
    if (df == Dataflow::kLS)
        Matrix::gemmAcc(a, b.transpose(), out);
    else if (df == Dataflow::kRS)
        Matrix::gemmAcc(a.transpose(), b, out);
    else
        Matrix::gemmAcc(a, b, out);
}

/** dst[row0 + r][col0 + c] += part[r][c]. */
void
addBlock(Matrix &dst, const Matrix &part, std::int64_t row0,
         std::int64_t col0)
{
    for (std::int64_t r = 0; r < part.rows(); ++r)
        for (std::int64_t c = 0; c < part.cols(); ++c)
            dst.at(row0 + r, col0 + c) += part.at(r, c);
}

/** Slice @p s of @p s_count of every shard on a ring, gathered: row
 *  rings concatenate column slices, column rings row slices. */
Matrix
gatherSlice(const DistMatrix &x, bool horizontal, int ring, int s_count,
            int s, int block)
{
    std::vector<Matrix> parts;
    for (int q = 0; q < (horizontal ? x.mesh().cols : x.mesh().rows); ++q)
        parts.push_back(
            horizontal ? sliceCols(x.shardAt(ring, q), s_count, s, block)
                       : sliceRows(x.shardAt(q, ring), s_count, s, block));
    return horizontal ? Matrix::hcat(parts) : Matrix::vcat(parts);
}

/**
 * One step of a sliced schedule: row rings gather A's panel unless A
 * is stationary (LS), column rings B's unless B is (RS), and every
 * chip multiplies. OS accumulates into C; in LS (RS) each row's
 * (column's) partial C, @p width wide, is reduced along its ring and
 * handed to @p scatter(c, horizontal, ring, part).
 */
template <typename Gather, typename Scatter>
void
sliceStep(Dataflow df, const DistMatrix &a, const DistMatrix &b,
          DistMatrix &c, std::int64_t width, const Gather &gather,
          const Scatter &scatter)
{
    const MeshShape mesh = a.mesh();
    const bool ls = df == Dataflow::kLS, rs = df == Dataflow::kRS;
    std::vector<Matrix> a_panel, b_panel;
    for (int i = 0; i < mesh.rows && !ls; ++i)
        a_panel.push_back(gather(a, true, i));
    for (int j = 0; j < mesh.cols && !rs; ++j)
        b_panel.push_back(gather(b, false, j));
    for (int r = 0; r < (rs ? mesh.cols : mesh.rows); ++r) {
        Matrix part(ls ? a.shardRows() : rs ? width : 0,
                    ls ? width : rs ? b.shardCols() : 0);
        for (int q = 0; q < (rs ? mesh.rows : mesh.cols); ++q) {
            const int i = rs ? q : r, j = rs ? r : q;
            localGemm(df,
                      ls ? a.shardAt(i, j) : a_panel[static_cast<size_t>(i)],
                      rs ? b.shardAt(i, j) : b_panel[static_cast<size_t>(j)],
                      ls || rs ? part : c.shardAt(i, j));
        }
        if (ls || rs)
            scatter(c, ls, r, part);
    }
}

/** MeshSlice (Fig 5), Collective and OneSided: one step per slice. */
DistMatrix
slicedGemm(const Gemm2DSpec &spec, const DistMatrix &a, const DistMatrix &b,
           int block)
{
    const int s_count = spec.sliceCount;
    DistMatrix c(a.mesh(), spec.m, spec.n);
    for (int s = 0; s < s_count; ++s) {
        const auto gather = [&](const DistMatrix &x, bool horizontal,
                                int ring) {
            return gatherSlice(x, horizontal, ring, s_count, s, block);
        };
        // Chip q of the ring keeps block q of the reduced slice.
        const auto scatter = [&](DistMatrix &x, bool horizontal, int ring,
                                 const Matrix &part) {
            const std::int64_t w =
                (horizontal ? x.shardCols() : x.shardRows()) / s_count;
            for (int q = 0; q < (horizontal ? x.mesh().cols : x.mesh().rows);
                 ++q) {
                if (horizontal)
                    unsliceColsInto(x.shardAt(ring, q),
                                    part.colBlock(q * w, w), s_count, s,
                                    block);
                else
                    unsliceRowsInto(x.shardAt(q, ring),
                                    part.rowBlock(q * w, w), s_count, s,
                                    block);
            }
        };
        sliceStep(spec.dataflow, a, b, c, slicedDim(spec) / s_count,
                  gather, scatter);
    }
    return c;
}

/**
 * SUMMA (Fig 2a): one step per `summaIterations` panel of the sliced
 * dimension, broadcast from (or reduced into) its owner shard on each
 * ring. Loop unrolling's compute groups only regroup the timing.
 */
DistMatrix
summaGemm(const Gemm2DSpec &spec, const DistMatrix &a, const DistMatrix &b)
{
    const MeshShape mesh = a.mesh();
    const int p_iter = summaIterations(mesh.rows, mesh.cols);
    const std::int64_t w = slicedDim(spec) / p_iter;
    if (w * p_iter != slicedDim(spec))
        panic("funcGemm: SUMMA's %d panels do not divide %s", p_iter,
              spec.str().c_str());
    DistMatrix c(mesh, spec.m, spec.n);
    for (int p = 0; p < p_iter; ++p) {
        // Panel p lies in column oc of every row, row orow of every
        // column.
        const int oc = p * mesh.cols / p_iter, orow = p * mesh.rows / p_iter;
        const auto gather = [&](const DistMatrix &x, bool horizontal,
                                int ring) {
            return horizontal ? x.shardAt(ring, oc).colBlock(
                                    p * w - oc * x.shardCols(), w)
                              : x.shardAt(orow, ring).rowBlock(
                                    p * w - orow * x.shardRows(), w);
        };
        const auto scatter = [&](DistMatrix &x, bool horizontal, int ring,
                                 const Matrix &part) {
            if (horizontal)
                addBlock(x.shardAt(ring, oc), part, 0,
                         p * w - oc * x.shardCols());
            else
                addBlock(x.shardAt(orow, ring), part,
                         p * w - orow * x.shardRows(), 0);
        };
        sliceStep(spec.dataflow, a, b, c, w, gather, scatter);
    }
    return c;
}

/**
 * Wang et al.: the direction `wangOverlapsHorizontal` picks moves
 * piecewise, the other in one collective. An overlapped input rotates:
 * after t steps chip (i, j) holds the shard of ring position src,
 * block src of its gathered dimension (K in OS, C's N in LS, M in
 * RS). C's ReduceScatter is the ring reduce-scatter of the partials.
 */
DistMatrix
wangGemm(const Gemm2DSpec &spec, const DistMatrix &a, const DistMatrix &b)
{
    const MeshShape mesh = a.mesh();
    const Dataflow df = spec.dataflow;
    const bool ov_h = wangOverlapsHorizontal(spec);
    const int ring = ov_h ? mesh.cols : mesh.rows;
    const bool rotate = (ov_h ? horizontalFlow(spec) : verticalFlow(spec))
                            .op == CollKind::kAllGather;
    // Each chip's output: its C shard in OS, its unreduced partial
    // otherwise (its C rows in LS, its C columns in RS).
    DistMatrix out(mesh, spec.m * (df == Dataflow::kRS ? mesh.rows : 1),
                   spec.n * (df == Dataflow::kLS ? mesh.cols : 1));
    for (int i = 0; i < mesh.rows; ++i) {
        for (int j = 0; j < mesh.cols; ++j) {
            // Each input whole: its stationary shard or gathered panel.
            const Matrix all_a = df == Dataflow::kLS
                                     ? a.shardAt(i, j)
                                     : gatherSlice(a, true, i, 1, 0, 1);
            const Matrix all_b = df == Dataflow::kRS
                                     ? b.shardAt(i, j)
                                     : gatherSlice(b, false, j, 1, 0, 1);
            if (!rotate)
                localGemm(df, all_a, all_b, out.shardAt(i, j));
            for (int t = 0; rotate && t < ring; ++t) {
                const int src = ((ov_h ? j : i) + t) % ring;
                const Matrix &held =
                    ov_h ? a.shardAt(i, src) : b.shardAt(src, j);
                const std::int64_t w = ov_h ? a.shardCols() : b.shardRows();
                if (df == Dataflow::kOS) { // the other input's K block
                    localGemm(df,
                              ov_h ? held : all_a.colBlock(src * w, w),
                              ov_h ? all_b.rowBlock(src * w, w) : held,
                              out.shardAt(i, j));
                    continue;
                }
                Matrix blk(ov_h ? w : a.shardRows(), ov_h ? b.shardCols() : w);
                localGemm(df, ov_h ? held : all_a, ov_h ? all_b : held, blk);
                addBlock(out.shardAt(i, j), blk, ov_h ? src * w : 0,
                         ov_h ? 0 : src * w);
            }
        }
    }
    if (df == Dataflow::kOS)
        return out;
    // C's ring reduce-scatter: along rows in LS (scattering N, so
    // transposed), along columns in RS.
    DistMatrix c(mesh, spec.m, spec.n);
    const bool horizontal = df == Dataflow::kLS;
    const int len = horizontal ? mesh.cols : mesh.rows;
    for (int r = 0; r < (horizontal ? mesh.rows : mesh.cols); ++r) {
        std::vector<Matrix> parts;
        for (int q = 0; q < len; ++q)
            parts.push_back(horizontal ? out.shardAt(r, q).transpose()
                                       : out.shardAt(q, r));
        const std::vector<Matrix> reduced =
            ringReduceScatterFunctional(parts);
        for (int q = 0; q < len; ++q)
            (horizontal ? c.shardAt(r, q) : c.shardAt(q, r)) =
                horizontal ? reduced[static_cast<size_t>(q)].transpose()
                           : reduced[static_cast<size_t>(q)];
    }
    return c;
}

} // namespace

DistMatrix
funcGemm(Algorithm algo, Dataflow dataflow, const DistMatrix &a,
         const DistMatrix &b, int s_count, int block)
{
    Gemm2DSpec spec{.m = dataflow == Dataflow::kRS ? a.cols() : a.rows(),
                    .k = dataflow == Dataflow::kRS ? a.rows() : a.cols(),
                    .n = dataflow == Dataflow::kLS ? b.rows() : b.cols(),
                    .dataflow = dataflow,
                    .rows = a.mesh().rows,
                    .cols = a.mesh().cols,
                    .sliceCount = s_count};
    if (!(a.mesh() == b.mesh()))
        panic("funcGemm: operands on different meshes");
    if (!supportsDataflow(algo, dataflow))
        panic("funcGemm: %s runs output-stationary only, got %s",
              algorithmName(algo), dataflowName(dataflow));
    if (!supportsMesh(algo, spec.rows, spec.cols))
        panic("funcGemm: %s requires a square mesh, got %dx%d",
              algorithmName(algo), spec.rows, spec.cols);
    spec.sliceCount = effectiveSliceCount(algo, spec);
    switch (algo) {
      case Algorithm::kMeshSlice:
      case Algorithm::kCollective:
      case Algorithm::kOneSided:
        return slicedGemm(spec, a, b, spec.sliceCount == 1 ? 1 : block);
      case Algorithm::kSumma:
        return summaGemm(spec, a, b);
      case Algorithm::kWang:
        return wangGemm(spec, a, b);
      case Algorithm::kCannon:
        return func25DGemm(a, b, 1);
      default:
        panic("funcGemm: %s is not a 2D algorithm", algorithmName(algo));
    }
}

DistMatrix
func25DGemm(const DistMatrix &a, const DistMatrix &b, int depth)
{
    const MeshShape mesh = a.mesh();
    const int p = mesh.rows;
    if (!(mesh == b.mesh()) ||
        !supportsMesh(Algorithm::kCannon, mesh.rows, mesh.cols) ||
        depth <= 0 || p % depth != 0)
        panic("func25DGemm: needs one square base mesh whose side the "
              "depth divides, got %dx%d at depth %d",
              mesh.rows, mesh.cols, depth);
    DistMatrix c(mesh, a.rows(), b.cols());
    // Layer l runs the P/c Cannon steps from rotation offset l * P/c,
    // so the layers cover every shift once and the depth reduction is
    // the accumulation into C. After `shift` rotations chip (i, j)
    // multiplies A(i, i+j+shift) by B(i+j+shift, j).
    for (int shift = 0; shift < p; ++shift)
        for (int i = 0; i < p; ++i)
            for (int j = 0; j < p; ++j) {
                const int kidx = (i + j + shift) % p;
                Matrix::gemmAcc(a.shardAt(i, kidx), b.shardAt(kidx, j),
                                c.shardAt(i, j));
            }
    return c;
}

} // namespace meshslice
