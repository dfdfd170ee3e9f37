/**
 * @file
 * The GeMM micro-kernel variants behind `Matrix::gemmAcc` (internal:
 * tests and benches reach individual variants here; library code
 * calls `Matrix::gemmAcc`, which runs `activeGemmKernel()`).
 *
 * One register-blocked template is instantiated per instruction set:
 * 16-byte vectors for the baseline, and on x86-64 an AVX-512F build
 * through a `target` attribute. Every variant accumulates each
 * output element in increasing-k order with a separate multiply and
 * add per term, so all of them are bit-identical to the naive i/p/j
 * triple loop and to each other.
 */
#ifndef MESHSLICE_GEMM_GEMM_KERNELS_HPP_
#define MESHSLICE_GEMM_GEMM_KERNELS_HPP_

#include <cstdint>
#include <span>

#include "gemm/matrix.hpp"

namespace meshslice {

/** One compiled instantiation of the GeMM micro-kernel. */
struct GemmKernel
{
    /** Rows [i0, i1) of C += A[:, k0:k1] * B[k0:k1, :], row-major
     *  operands with inner extents @p k (A) and @p n (B and C). */
    using PanelFn = void (*)(const float *a, const float *b, float *c,
                             std::int64_t i0, std::int64_t i1,
                             std::int64_t k0, std::int64_t k1,
                             std::int64_t k, std::int64_t n);

    const char *name;  ///< "baseline", or "avx512f" on x86-64
    bool supported;    ///< this host can execute it
    PanelFn panel;
};

/** Every compiled variant, baseline first, widest last. */
std::span<const GemmKernel> gemmKernels();

/** The widest supported variant, picked once per process: the one
 *  `Matrix::gemmAcc` runs. */
const GemmKernel &activeGemmKernel();

/** `Matrix::gemmAcc` with an explicit variant (must be supported). */
void gemmAccWith(const GemmKernel &kernel, const Matrix &a,
                 const Matrix &b, Matrix &c);

} // namespace meshslice

#endif // MESHSLICE_GEMM_GEMM_KERNELS_HPP_
