/**
 * @file
 * Unit tests for the dense matrix substrate.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "gemm/gemm_kernels.hpp"
#include "gemm/matrix.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace meshslice {
namespace {

TEST(Matrix, ZeroInitialized)
{
    Matrix m(3, 4);
    for (std::int64_t r = 0; r < 3; ++r)
        for (std::int64_t c = 0; c < 4; ++c)
            EXPECT_EQ(m.at(r, c), 0.0f);
}

TEST(Matrix, RandomIsDeterministic)
{
    Matrix a = Matrix::random(8, 8, 42);
    Matrix b = Matrix::random(8, 8, 42);
    Matrix c = Matrix::random(8, 8, 43);
    EXPECT_TRUE(a.allClose(b, 0.0));
    EXPECT_FALSE(a.allClose(c, 1e-6));
}

TEST(Matrix, RandomValuesInRange)
{
    Matrix m = Matrix::random(16, 16, 7);
    for (std::int64_t r = 0; r < 16; ++r)
        for (std::int64_t c = 0; c < 16; ++c) {
            EXPECT_GE(m.at(r, c), -1.0f);
            EXPECT_LE(m.at(r, c), 1.0f);
        }
}

TEST(Matrix, TransposeRoundTrip)
{
    Matrix m = Matrix::random(5, 9, 1);
    Matrix tt = m.transpose().transpose();
    EXPECT_TRUE(m.allClose(tt, 0.0));
    EXPECT_EQ(m.transpose().rows(), 9);
    EXPECT_EQ(m.transpose().cols(), 5);
}

TEST(Matrix, GemmAgainstHandComputed)
{
    Matrix a(2, 3);
    Matrix b(3, 2);
    // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
    float av[] = {1, 2, 3, 4, 5, 6};
    float bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(av, av + 6, a.data());
    std::copy(bv, bv + 6, b.data());
    Matrix c = Matrix::gemm(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matrix, GemmWithIdentity)
{
    Matrix a = Matrix::random(6, 6, 3);
    Matrix c = Matrix::gemm(a, Matrix::identity(6));
    EXPECT_TRUE(c.allClose(a, 1e-6));
}

TEST(Matrix, GemmTransposeIdentity)
{
    // (A * B)^T == B^T * A^T
    Matrix a = Matrix::random(4, 7, 10);
    Matrix b = Matrix::random(7, 5, 11);
    Matrix lhs = Matrix::gemm(a, b).transpose();
    Matrix rhs = Matrix::gemm(b.transpose(), a.transpose());
    EXPECT_TRUE(lhs.allClose(rhs, 1e-4));
}

TEST(Matrix, HcatVcatRoundTrip)
{
    Matrix m = Matrix::random(6, 8, 5);
    Matrix left = m.colBlock(0, 3);
    Matrix right = m.colBlock(3, 5);
    EXPECT_TRUE(Matrix::hcat({left, right}).allClose(m, 0.0));
    Matrix top = m.rowBlock(0, 2);
    Matrix bottom = m.rowBlock(2, 4);
    EXPECT_TRUE(Matrix::vcat({top, bottom}).allClose(m, 0.0));
}

TEST(Matrix, AddAccumulates)
{
    Matrix a = Matrix::random(3, 3, 1);
    Matrix b = Matrix::random(3, 3, 2);
    Matrix c = a;
    c.add(b);
    for (std::int64_t r = 0; r < 3; ++r)
        for (std::int64_t cc = 0; cc < 3; ++cc)
            EXPECT_FLOAT_EQ(c.at(r, cc), a.at(r, cc) + b.at(r, cc));
}

namespace {

/** Reference kernel: naive i/p/j triple loop, fixed summation order
 *  (increasing p per output element), no zero-skip branch. */
void
naiveGemmAcc(const Matrix &a, const Matrix &b, Matrix &c)
{
    const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t p = 0; p < k; ++p) {
            const float av = a.at(i, p);
            for (std::int64_t j = 0; j < n; ++j)
                c.at(i, j) += av * b.at(p, j);
        }
}

Matrix
naiveGemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    naiveGemmAcc(a, b, c);
    return c;
}

bool
sameBytes(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(),
                       static_cast<size_t>(x.rows() * x.cols()) *
                           sizeof(float)) == 0;
}

} // namespace

TEST(Matrix, BlockedGemmMatchesNaiveExactlyOnOddShapes)
{
    // The blocked kernel accumulates each output element in the same
    // increasing-k order as the naive loop, so results must be
    // bit-identical — including shapes that don't divide the 64x256
    // tiles and degenerate 1-extent dims.
    struct Shape
    {
        std::int64_t m, k, n;
    };
    for (const Shape &s : {Shape{1, 1, 1}, Shape{1, 300, 1},
                           Shape{1, 7, 513}, Shape{63, 1, 65},
                           Shape{129, 257, 65}, Shape{64, 256, 64},
                           Shape{65, 511, 3}}) {
        const Matrix a = Matrix::random(s.m, s.k, 7);
        const Matrix b = Matrix::random(s.k, s.n, 8);
        const Matrix blocked = Matrix::gemm(a, b);
        const Matrix naive = naiveGemm(a, b);
        EXPECT_EQ(blocked.maxAbsDiff(naive), 0.0)
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(GemmKernels, EveryVariantMatchesTheNaiveLoopBitForBit)
{
    // Shapes off every tile: 1x1x1, k = 1, m off the 4-row register
    // tile and the 64-row panel, n off the 8- to 48-column vector
    // tiles, k off the 256-deep k-panel; m > 128 takes the pool path.
    struct Shape
    {
        std::int64_t m, k, n;
    };
    const Shape shapes[] = {{1, 1, 1},     {6, 1, 50},    {4, 2, 48},
                            {7, 300, 53},  {67, 257, 97}, {3, 700, 130},
                            {193, 513, 61}};
    const std::span<const GemmKernel> kernels = gemmKernels();
    ASSERT_STREQ(kernels.front().name, "baseline");
    ASSERT_TRUE(kernels.front().supported);
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        for (const GemmKernel &kernel : kernels) {
            if (!kernel.supported)
                continue;
            for (const Shape &s : shapes) {
                const Matrix a = Matrix::random(s.m, s.k, 31);
                const Matrix b = Matrix::random(s.k, s.n, 32);
                Matrix expected = Matrix::random(s.m, s.n, 33);
                Matrix got = expected;
                naiveGemmAcc(a, b, expected);
                gemmAccWith(kernel, a, b, got);
                EXPECT_TRUE(sameBytes(got, expected))
                    << kernel.name << " at " << threads << " threads on "
                    << s.m << "x" << s.k << "x" << s.n;
            }
        }
    }
    ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());
}

TEST(GemmKernels, ActiveVariantIsTheWidestSupported)
{
    const GemmKernel *widest = nullptr;
    for (const GemmKernel &kernel : gemmKernels())
        if (kernel.supported)
            widest = &kernel;
    EXPECT_EQ(&activeGemmKernel(), widest);
}

TEST(Matrix, MaxAbsDiffPropagatesNaNAndIgnoresZeroSign)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Matrix zeros(2, 2);
    Matrix with_nan(2, 2);
    with_nan.at(1, 0) = nan;
    EXPECT_TRUE(std::isnan(with_nan.maxAbsDiff(zeros)));
    EXPECT_TRUE(std::isnan(zeros.maxAbsDiff(with_nan)));
    EXPECT_TRUE(std::isnan(with_nan.maxAbsDiff(with_nan)));
    EXPECT_FALSE(with_nan.allClose(zeros, 0.0));
    EXPECT_FALSE(zeros.allClose(with_nan, 1e30));
    // A NaN after a large difference still wins.
    Matrix big(2, 2);
    big.at(0, 0) = 5.0f;
    big.at(1, 1) = nan;
    EXPECT_TRUE(std::isnan(big.maxAbsDiff(zeros)));

    Matrix negative_zeros(2, 2);
    for (std::int64_t r = 0; r < 2; ++r)
        for (std::int64_t c = 0; c < 2; ++c)
            negative_zeros.at(r, c) = -0.0f;
    EXPECT_EQ(negative_zeros.maxAbsDiff(zeros), 0.0);
    EXPECT_TRUE(negative_zeros.allClose(zeros, 0.0));
    const float inf = std::numeric_limits<float>::infinity();
    Matrix infs(1, 1);
    infs.at(0, 0) = inf;
    EXPECT_EQ(infs.maxAbsDiff(infs), 0.0);
}

TEST(Matrix, SameFloatsIsBitEqualityWithoutNaN)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float x[] = {1.0f, -0.0f, 3.5f};
    const float y[] = {1.0f, -0.0f, 3.5f};
    const float plus_zero[] = {1.0f, 0.0f, 3.5f};
    const float nans[] = {1.0f, -0.0f, nan};
    EXPECT_TRUE(sameFloats(x, y, 3));
    EXPECT_FALSE(sameFloats(x, plus_zero, 3));
    EXPECT_FALSE(sameFloats(nans, nans, 3));
    EXPECT_TRUE(sameFloats(nans, nans, 2));
}

TEST(Matrix, RandomIsTheSerialStreamAtAnyThreadCount)
{
    // Element e is the (e+1)-th draw of one splitmix64 stream, however
    // the rows are split over the pool.
    const std::int64_t rows = 300, cols = 301;
    Matrix serial(rows, cols);
    std::uint64_t state = 77;
    for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t c = 0; c < cols; ++c)
            serial.at(r, c) =
                static_cast<float>(uniform01(state) * 2.0 - 1.0);
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_TRUE(sameBytes(Matrix::random(rows, cols, 77), serial))
            << threads << " threads";
    }
    ThreadPool::setGlobalThreads(ThreadPool::defaultThreadCount());
}

TEST(Matrix, BlockedGemmAccHandlesZeroExtent)
{
    Matrix a(0, 5), b(5, 0), c(0, 0);
    Matrix::gemmAcc(a, b, c); // must not crash
    EXPECT_TRUE(c.empty());
}

TEST(Matrix, GemmAccAccumulatesOnExisting)
{
    Matrix a = Matrix::random(4, 4, 20);
    Matrix b = Matrix::random(4, 4, 21);
    Matrix c = Matrix::gemm(a, b);
    Matrix twice = Matrix::gemm(a, b);
    Matrix::gemmAcc(a, b, twice);
    for (std::int64_t r = 0; r < 4; ++r)
        for (std::int64_t cc = 0; cc < 4; ++cc)
            EXPECT_NEAR(twice.at(r, cc), 2.0f * c.at(r, cc), 1e-4);
}

} // namespace
} // namespace meshslice
