/**
 * @file
 * A matrix sharded over a 2D mesh of chips (Sec 2.3.1): the matrix is
 * partitioned in both dimensions and shard (i, j) lives on chip (i, j).
 * This is the functional counterpart of the timing simulator's shards —
 * it holds real data so algorithm implementations can be verified
 * against a dense reference GeMM.
 */
#ifndef MESHSLICE_GEMM_DIST_MATRIX_HPP_
#define MESHSLICE_GEMM_DIST_MATRIX_HPP_

#include <algorithm>
#include <utility>
#include <vector>

#include "gemm/matrix.hpp"
#include "util/parallel.hpp"

namespace meshslice {

/** Shape of a chip mesh. */
struct MeshShape
{
    int rows = 1;
    int cols = 1;

    int chips() const { return rows * cols; }
    bool operator==(const MeshShape &o) const = default;
};

/** A (rows x cols) matrix split into mesh.rows x mesh.cols shards. */
class DistMatrix
{
  public:
    DistMatrix() = default;

    /** Zero-initialized distributed matrix of global shape. */
    DistMatrix(MeshShape mesh, std::int64_t rows, std::int64_t cols);

    /** Shard a dense matrix (dimensions must divide evenly). */
    static DistMatrix scatter(const Matrix &full, MeshShape mesh);

    /** Reassemble the dense matrix from the shards. */
    Matrix gather() const;

    MeshShape mesh() const { return mesh_; }
    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }
    std::int64_t shardRows() const { return rows_ / mesh_.rows; }
    std::int64_t shardCols() const { return cols_ / mesh_.cols; }

    Matrix &shardAt(int r, int c);
    const Matrix &shardAt(int r, int c) const;

    /** Copies global row @p r, columns [c0, c0 + count), into @p out:
     *  one contiguous run per shard the range crosses. */
    void readRow(std::int64_t r, std::int64_t c0, std::int64_t count,
                 float *out) const;

    /** True iff every element has the bits of @p full's element at the
     *  same global position and none is NaN. Compares in place. */
    bool sameAs(const Matrix &full) const;

    /**
     * Calls `visit(r, c0, row, count)` once per shard row: `row` points
     * at the `count` contiguous elements of global row `r`, columns
     * [c0, c0 + count). Shards run as tasks on the shared pool, each
     * shard's rows in order on one thread, so @p visit must be safe to
     * call concurrently for different shards.
     */
    template <typename Visit>
    void
    forEachShardRow(Visit &&visit) const
    {
        const std::int64_t sr = shardRows();
        const std::int64_t sc = shardCols();
        const std::int64_t shards_per_task = std::max<std::int64_t>(
            1, Matrix::kElementsPerTask / std::max<std::int64_t>(sr * sc, 1));
        parallelFor(mesh_.chips(), shards_per_task,
                    [&](std::int64_t begin, std::int64_t end) {
                        for (std::int64_t s = begin; s < end; ++s) {
                            const float *data =
                                shards_[static_cast<size_t>(s)].data();
                            const std::int64_t r0 = s / mesh_.cols * sr;
                            const std::int64_t c0 = s % mesh_.cols * sc;
                            for (std::int64_t r = 0; r < sr; ++r)
                                visit(r0 + r, c0, data + r * sc, sc);
                        }
                    });
    }

    template <typename Visit>
    void
    forEachShardRow(Visit &&visit)
    {
        std::as_const(*this).forEachShardRow(
            [&](std::int64_t r, std::int64_t c0, const float *row,
                std::int64_t count) {
                visit(r, c0, const_cast<float *>(row), count);
            });
    }

  private:
    MeshShape mesh_;
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::vector<Matrix> shards_;
};

} // namespace meshslice

#endif // MESHSLICE_GEMM_DIST_MATRIX_HPP_
