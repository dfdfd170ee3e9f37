/**
 * @file
 * The functional runtime: the timed executor's GeMM algorithms run on
 * real float matrices, to verify that they compute the right product
 * (MeshSlice's interleaved blocked slicing, Sec 3.1, included).
 *
 * Dataflows (Fig 1/2), operands sharded on one mesh:
 *  - OS: C = A * B        A: M x K, B: K x N        (C stationary)
 *  - LS: C = A * B^T      A: M x K (stationary), B: N x K
 *  - RS: C = A^T * B      A: K x M, B: K x N (stationary)
 *
 * The 1D baselines (Sec 4.3) are Collective OS on a degenerate mesh:
 * 1D TP on 1 x P (X all-gathered, W and Y column-sharded), FSDP on
 * P x 1 (X and Y row-sharded, W all-gathered).
 */
#ifndef MESHSLICE_CORE_FUNCTIONAL_HPP_
#define MESHSLICE_CORE_FUNCTIONAL_HPP_

#include "core/spec.hpp"
#include "gemm/dist_matrix.hpp"

namespace meshslice {

/**
 * The sharded product of 2D algorithm @p algo for @p dataflow at slice
 * count @p s_count and memory block size @p block (Sec 3.1.2). Each
 * algorithm's decisions are the rules of `core/spec`, so each body
 * moves what its timed schedule moves: a sliced body (MeshSlice,
 * Collective, OneSided), SUMMA, Wang, and Cannon as `func25DGemm` at
 * depth 1. Panics if @p algo cannot run @p dataflow on the mesh.
 */
DistMatrix funcGemm(Algorithm algo, Dataflow dataflow, const DistMatrix &a,
                    const DistMatrix &b, int s_count, int block);

/**
 * 2.5D GeMM (Solomonik-Demmel, Sec 7), OS, on a P x P x c torus: each
 * depth layer holds a replica of the P x P shards and runs P/c Cannon
 * steps from its own rotation offset; the partial outputs are reduced
 * over depth. c divides P.
 */
DistMatrix func25DGemm(const DistMatrix &a, const DistMatrix &b,
                       int depth);

} // namespace meshslice

#endif // MESHSLICE_CORE_FUNCTIONAL_HPP_
