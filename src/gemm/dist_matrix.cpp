#include "gemm/dist_matrix.hpp"

#include <algorithm>
#include <atomic>

#include "util/logging.hpp"

namespace meshslice {

DistMatrix::DistMatrix(MeshShape mesh, std::int64_t rows, std::int64_t cols)
    : mesh_(mesh), rows_(rows), cols_(cols)
{
    if (mesh.rows <= 0 || mesh.cols <= 0)
        panic("DistMatrix: bad mesh %dx%d", mesh.rows, mesh.cols);
    if (rows % mesh.rows != 0 || cols % mesh.cols != 0)
        panic("DistMatrix: %lldx%lld not divisible by mesh %dx%d",
              static_cast<long long>(rows), static_cast<long long>(cols),
              mesh.rows, mesh.cols);
    shards_.reserve(static_cast<size_t>(mesh.chips()));
    for (int i = 0; i < mesh.chips(); ++i)
        shards_.emplace_back(rows / mesh.rows, cols / mesh.cols);
}

DistMatrix
DistMatrix::scatter(const Matrix &full, MeshShape mesh)
{
    DistMatrix out(mesh, full.rows(), full.cols());
    out.forEachShardRow([&](std::int64_t r, std::int64_t c0, float *row,
                            std::int64_t count) {
        std::copy_n(full.data() + r * full.cols() + c0, count, row);
    });
    return out;
}

Matrix
DistMatrix::gather() const
{
    Matrix full(rows_, cols_);
    forEachShardRow([&](std::int64_t r, std::int64_t c0, const float *row,
                        std::int64_t count) {
        std::copy_n(row, count, full.data() + r * cols_ + c0);
    });
    return full;
}

void
DistMatrix::readRow(std::int64_t r, std::int64_t c0, std::int64_t count,
                    float *out) const
{
    if (r < 0 || r >= rows_ || c0 < 0 || count < 0 || c0 + count > cols_)
        panic("DistMatrix::readRow: row %lld, columns [%lld, %lld) outside "
              "%lldx%lld", static_cast<long long>(r),
              static_cast<long long>(c0),
              static_cast<long long>(c0 + count),
              static_cast<long long>(rows_), static_cast<long long>(cols_));
    const std::int64_t sr = shardRows();
    const std::int64_t sc = shardCols();
    const std::int64_t end = c0 + count;
    for (std::int64_t c = c0; c < end;) {
        const std::int64_t j = c / sc;
        const std::int64_t run_end = std::min((j + 1) * sc, end);
        const Matrix &shard =
            shardAt(static_cast<int>(r / sr), static_cast<int>(j));
        std::copy_n(shard.data() + (r % sr) * sc + (c - j * sc),
                    run_end - c, out + (c - c0));
        c = run_end;
    }
}

bool
DistMatrix::sameAs(const Matrix &full) const
{
    if (full.rows() != rows_ || full.cols() != cols_)
        return false;
    std::atomic<bool> same{true};
    forEachShardRow([&](std::int64_t r, std::int64_t c0, const float *row,
                        std::int64_t count) {
        if (!sameFloats(row, full.data() + r * cols_ + c0, count))
            same.store(false, std::memory_order_relaxed);
    });
    return same.load();
}

Matrix &
DistMatrix::shardAt(int r, int c)
{
    if (r < 0 || r >= mesh_.rows || c < 0 || c >= mesh_.cols)
        panic("DistMatrix::shardAt(%d,%d) out of mesh %dx%d", r, c,
              mesh_.rows, mesh_.cols);
    return shards_[static_cast<size_t>(r * mesh_.cols + c)];
}

const Matrix &
DistMatrix::shardAt(int r, int c) const
{
    return const_cast<DistMatrix *>(this)->shardAt(r, c);
}

} // namespace meshslice
