#include "gemm/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "gemm/gemm_kernels.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace meshslice {

Matrix::Matrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows * cols), 0.0f)
{
    if (rows < 0 || cols < 0)
        panic("Matrix: negative dimensions %lld x %lld",
              static_cast<long long>(rows), static_cast<long long>(cols));
}

Matrix
Matrix::random(std::int64_t rows, std::int64_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    // Row r's first draw is draw r * cols of the serial stream, so
    // its state starts at seed + (r * cols) * gamma.
    const auto fill = [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
            std::uint64_t state =
                seed + static_cast<std::uint64_t>(r * cols) *
                           kSplitMix64Gamma;
            float *row = m.data() + r * cols;
            for (std::int64_t c = 0; c < cols; ++c)
                row[c] = static_cast<float>(uniform01(state) * 2.0 - 1.0);
        }
    };
    parallelFor(rows,
                std::max<std::int64_t>(
                    1, kElementsPerTask / std::max<std::int64_t>(cols, 1)),
                fill);
    return m;
}

Matrix
Matrix::identity(std::int64_t n)
{
    Matrix m(n, n);
    for (std::int64_t i = 0; i < n; ++i)
        m.at(i, i) = 1.0f;
    return m;
}

Matrix
Matrix::transpose() const
{
    Matrix t(cols_, rows_);
    for (std::int64_t r = 0; r < rows_; ++r)
        for (std::int64_t c = 0; c < cols_; ++c)
            t.at(c, r) = at(r, c);
    return t;
}

Matrix
Matrix::rowBlock(std::int64_t start, std::int64_t count) const
{
    if (start < 0 || start + count > rows_)
        panic("Matrix::rowBlock out of range");
    Matrix b(count, cols_);
    std::copy_n(data_.begin() + static_cast<size_t>(start * cols_),
                static_cast<size_t>(count * cols_), b.data_.begin());
    return b;
}

Matrix
Matrix::colBlock(std::int64_t start, std::int64_t count) const
{
    if (start < 0 || start + count > cols_)
        panic("Matrix::colBlock out of range");
    Matrix b(rows_, count);
    for (std::int64_t r = 0; r < rows_; ++r)
        std::copy_n(data_.begin() +
                        static_cast<size_t>(r * cols_ + start),
                    static_cast<size_t>(count),
                    b.data_.begin() + static_cast<size_t>(r * count));
    return b;
}

Matrix
Matrix::hcat(const std::vector<Matrix> &parts)
{
    if (parts.empty())
        panic("Matrix::hcat: no parts");
    std::int64_t cols = 0;
    for (const Matrix &p : parts) {
        if (p.rows() != parts.front().rows())
            panic("Matrix::hcat: row mismatch");
        cols += p.cols();
    }
    Matrix out(parts.front().rows(), cols);
    std::int64_t offset = 0;
    for (const Matrix &p : parts) {
        for (std::int64_t r = 0; r < p.rows(); ++r)
            std::copy_n(p.data_.begin() +
                            static_cast<size_t>(r * p.cols()),
                        static_cast<size_t>(p.cols()),
                        out.data_.begin() +
                            static_cast<size_t>(r * cols + offset));
        offset += p.cols();
    }
    return out;
}

Matrix
Matrix::vcat(const std::vector<Matrix> &parts)
{
    if (parts.empty())
        panic("Matrix::vcat: no parts");
    std::int64_t rows = 0;
    for (const Matrix &p : parts) {
        if (p.cols() != parts.front().cols())
            panic("Matrix::vcat: column mismatch");
        rows += p.rows();
    }
    Matrix out(rows, parts.front().cols());
    auto it = out.data_.begin();
    for (const Matrix &p : parts)
        it = std::copy(p.data_.begin(), p.data_.end(), it);
    return out;
}

void
Matrix::add(const Matrix &other)
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("Matrix::add: shape mismatch");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

double
Matrix::maxAbsDiff(const Matrix &other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        panic("Matrix::maxAbsDiff: shape mismatch (%lldx%lld vs %lldx%lld)",
              static_cast<long long>(rows_), static_cast<long long>(cols_),
              static_cast<long long>(other.rows_),
              static_cast<long long>(other.cols_));
    double worst = 0.0;
    for (size_t i = 0; i < data_.size(); ++i) {
        const float x = data_[i], y = other.data_[i];
        if (x == y)
            continue;
        const double d = std::fabs(x - y);
        if (std::isnan(d))
            return d;
        worst = std::max(worst, d);
    }
    return worst;
}

bool
Matrix::allClose(const Matrix &other, double tol) const
{
    return maxAbsDiff(other) <= tol;
}

bool
sameFloats(const float *x, const float *y, std::int64_t n)
{
    // Branch-free integer ORs, so the loop vectorizes: any differing
    // bit, or |x| above the infinity pattern (a NaN, which wraps the
    // subtraction into bit 31), leaves a bit set.
    std::uint32_t bad = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        const auto bits = std::bit_cast<std::uint32_t>(x[i]);
        bad |= (bits ^ std::bit_cast<std::uint32_t>(y[i])) |
               ((0x7f800000u - (bits & 0x7fffffffu)) >> 31);
    }
    return bad == 0;
}

namespace {

/** Rows of A/C per panel: one panel of C plus the matching A panel
 *  stays cache-resident while a K-panel of B streams through. */
constexpr std::int64_t kRowTile = 64;

/** Contraction extent per panel (~64 KiB of B rows at n=64). */
constexpr std::int64_t kColTileK = 256;

typedef float Vec4 __attribute__((vector_size(16)));
typedef float Vec16 __attribute__((vector_size(64)));

/**
 * C[0:R, 0:NV*W] += A[0:R, k0:k1] * B[k0:k1, 0:NV*W] for one register
 * tile (W = floats per vector V). The R x NV accumulators stay in
 * registers while k runs innermost in increasing order, one multiply
 * and one add per term, so every element sums its terms in the naive
 * loop's order. The build compiles every target with
 * -ffp-contract=off: GCC fuses `acc + a * b` into an FMA under
 * `target("avx512f")` otherwise, which rounds once instead of twice.
 */
template <typename V, int R, int NV>
[[gnu::always_inline]] inline void
registerTile(const float *__restrict a, const float *__restrict b,
             float *__restrict c, std::int64_t k0, std::int64_t k1,
             std::int64_t k, std::int64_t n)
{
    constexpr std::int64_t kW = sizeof(V) / sizeof(float);
    V acc[R][NV];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v)
            std::memcpy(&acc[r][v], c + r * n + v * kW, sizeof(V));
    for (std::int64_t p = k0; p < k1; ++p) {
        V bv[NV];
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v)
            std::memcpy(&bv[v], b + p * n + v * kW, sizeof(V));
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
            const float av = a[r * k + p];
#pragma GCC unroll 8
            for (int v = 0; v < NV; ++v)
                acc[r][v] = acc[r][v] + av * bv[v];
        }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v)
            std::memcpy(c + r * n + v * kW, &acc[r][v], sizeof(V));
}

/** The scalar edge: C[i0:i1, j0:j1] += A[i0:i1, k0:k1] *
 *  B[k0:k1, j0:j1], each element in increasing-k order. */
inline void
scalarBlock(const float *__restrict a, const float *__restrict b,
            float *__restrict c, std::int64_t i0, std::int64_t i1,
            std::int64_t j0, std::int64_t j1, std::int64_t k0,
            std::int64_t k1, std::int64_t k, std::int64_t n)
{
    for (std::int64_t i = i0; i < i1; ++i)
        for (std::int64_t p = k0; p < k1; ++p) {
            const float av = a[i * k + p];
            for (std::int64_t j = j0; j < j1; ++j)
                c[i * n + j] += av * b[p * n + j];
        }
}

/**
 * One (rows [i0, i1), k-panel [k0, k1)) update: R x (NV*W) register
 * tiles, column strip by column strip so one strip of the B panel is
 * reused by every row tile of the panel, then the scalar edge for the
 * leftover columns and rows. Each element of C is updated by exactly
 * one tile or edge per k-panel.
 */
template <typename V, int R, int NV>
[[gnu::always_inline]] inline void
panelKernel(const float *__restrict a, const float *__restrict b,
            float *__restrict c, std::int64_t i0, std::int64_t i1,
            std::int64_t k0, std::int64_t k1, std::int64_t k,
            std::int64_t n)
{
    constexpr std::int64_t kTileN = NV * (sizeof(V) / sizeof(float));
    const std::int64_t i_end = i0 + (i1 - i0) / R * R;
    const std::int64_t j_end = n / kTileN * kTileN;
    for (std::int64_t j = 0; j < j_end; j += kTileN)
        for (std::int64_t i = i0; i < i_end; i += R)
            registerTile<V, R, NV>(a + i * k, b + j, c + i * n + j, k0, k1,
                                   k, n);
    scalarBlock(a, b, c, i0, i_end, j_end, n, k0, k1, k, n);
    scalarBlock(a, b, c, i_end, i1, 0, n, k0, k1, k, n);
}

// One instantiation per instruction set; GCC lowers the 16-byte
// baseline vectors on any target.
void
panelBaseline(const float *a, const float *b, float *c, std::int64_t i0,
              std::int64_t i1, std::int64_t k0, std::int64_t k1,
              std::int64_t k, std::int64_t n)
{
    panelKernel<Vec4, 4, 2>(a, b, c, i0, i1, k0, k1, k, n);
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) void
panelAvx512(const float *a, const float *b, float *c, std::int64_t i0,
            std::int64_t i1, std::int64_t k0, std::int64_t k1,
            std::int64_t k, std::int64_t n)
{
    panelKernel<Vec16, 4, 3>(a, b, c, i0, i1, k0, k1, k, n);
}
#endif

} // namespace

std::span<const GemmKernel>
gemmKernels()
{
#if defined(__x86_64__)
    __builtin_cpu_init(); // a no-op unless called before constructors
#endif
    static const GemmKernel kernels[] = {
        {"baseline", true, panelBaseline},
#if defined(__x86_64__)
        {"avx512f", __builtin_cpu_supports("avx512f") != 0, panelAvx512},
#endif
    };
    return kernels;
}

const GemmKernel &
activeGemmKernel()
{
    static const GemmKernel &active = []() -> const GemmKernel & {
        const std::span<const GemmKernel> all = gemmKernels();
        for (auto it = all.rbegin(); it != all.rend(); ++it)
            if (it->supported)
                return *it;
        return all.front();
    }();
    return active;
}

void
gemmAccWith(const GemmKernel &kernel, const Matrix &a, const Matrix &b,
            Matrix &c)
{
    if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols())
        panic("Matrix::gemmAcc: shape mismatch");
    if (!kernel.supported)
        panic("gemmAccWith: the %s kernel does not run on this host",
              kernel.name);
    const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
    if (m == 0 || k == 0 || n == 0)
        return;
    // Cache-blocked (i/k tiled) kernel, parallelized over row panels:
    // each pool task owns disjoint C rows, so there are no write
    // races and the result is independent of the thread count.
    const std::int64_t panels = ceilDiv(m, kRowTile);
    const auto run_panels = [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t panel = begin; panel < end; ++panel) {
            const std::int64_t i0 = panel * kRowTile;
            const std::int64_t i1 = std::min(i0 + kRowTile, m);
            for (std::int64_t k0 = 0; k0 < k; k0 += kColTileK)
                kernel.panel(a.data(), b.data(), c.data(), i0, i1, k0,
                             std::min(k0 + kColTileK, k), k, n);
        }
    };
    // Pool dispatch costs a mutex round-trip plus a std::function call
    // per chunk — pure overhead when the pool has a single executing
    // thread or the matrix is a panel or two tall. Run those inline.
    if (ThreadPool::global().threads() == 1 || panels <= 2) {
        run_panels(0, panels);
        return;
    }
    parallelFor(panels, 1, run_panels);
}

void
Matrix::gemmAcc(const Matrix &a, const Matrix &b, Matrix &c)
{
    gemmAccWith(activeGemmKernel(), a, b, c);
}

Matrix
Matrix::gemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    gemmAcc(a, b, c);
    return c;
}

} // namespace meshslice
