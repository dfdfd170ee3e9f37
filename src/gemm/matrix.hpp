/**
 * @file
 * A small dense row-major matrix library.
 *
 * This is the numerical substrate of the *functional* distributed GeMM
 * runtime: the timing simulator never touches element data, but the
 * functional algorithms (used to verify that MeshSlice's slicing is a
 * correct partition of the computation) run real float math through it.
 */
#ifndef MESHSLICE_GEMM_MATRIX_HPP_
#define MESHSLICE_GEMM_MATRIX_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace meshslice {

/** Dense row-major float matrix. */
class Matrix
{
  public:
    /** Elementwise passes hand the shared pool tasks of about this many
     *  elements; a smaller matrix runs inline. */
    static constexpr std::int64_t kElementsPerTask = 1 << 16;

    Matrix() = default;
    Matrix(std::int64_t rows, std::int64_t cols);

    std::int64_t rows() const { return rows_; }
    std::int64_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    float &
    at(std::int64_t r, std::int64_t c)
    {
        return data_[static_cast<size_t>(r * cols_ + c)];
    }
    float
    at(std::int64_t r, std::int64_t c) const
    {
        return data_[static_cast<size_t>(r * cols_ + c)];
    }

    const float *data() const { return data_.data(); }
    float *data() { return data_.data(); }

    /** Deterministic pseudo-random matrix in [-1, 1): element e (row
     *  major) is the (e+1)-th draw of the splitmix64 stream from
     *  @p seed. Rows fill in parallel on the shared pool; the result
     *  does not depend on the thread count. */
    static Matrix random(std::int64_t rows, std::int64_t cols,
                         std::uint64_t seed);

    /** Identity-like matrix (1 on the main diagonal). */
    static Matrix identity(std::int64_t n);

    Matrix transpose() const;

    /** Contiguous row block [start, start+count). */
    Matrix rowBlock(std::int64_t start, std::int64_t count) const;

    /** Contiguous column block [start, start+count). */
    Matrix colBlock(std::int64_t start, std::int64_t count) const;

    /** Horizontal concatenation (equal row counts). */
    static Matrix hcat(const std::vector<Matrix> &parts);

    /** Vertical concatenation (equal column counts). */
    static Matrix vcat(const std::vector<Matrix> &parts);

    /** this += other (same shape). */
    void add(const Matrix &other);

    /** Max absolute element difference; shapes must match. NaN when
     *  either side holds a NaN; equal elements (+0 and -0, equal
     *  infinities) differ by 0. */
    double maxAbsDiff(const Matrix &other) const;

    /** True if every element differs by at most @p tol (false when
     *  either side holds a NaN). */
    bool allClose(const Matrix &other, double tol = 1e-3) const;

    /**
     * c += a * b (shapes must agree). Cache-blocked (64-row x 256-k
     * panels) and parallelized over row panels on the shared pool;
     * inside a panel a register-blocked micro-kernel runs, built for
     * the baseline and for AVX-512F; the widest one the host supports
     * runs (`gemm/gemm_kernels.hpp`). Per output element the
     * contraction accumulates in increasing-k order with a separate
     * multiply and add per term, so results are bit-identical to the
     * naive triple loop on every host and for any `MESHSLICE_THREADS`.
     */
    static void gemmAcc(const Matrix &a, const Matrix &b, Matrix &c);

    /** a * b. */
    static Matrix gemm(const Matrix &a, const Matrix &b);

  private:
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * True iff x[i] and y[i] have the same bits and are not NaN, for every
 * i < @p n: exact equality that also tells -0 from +0 and fails on a
 * NaN on either side.
 */
bool sameFloats(const float *x, const float *y, std::int64_t n);

} // namespace meshslice

#endif // MESHSLICE_GEMM_MATRIX_HPP_
