#pragma once
// Register-blocked GEMM-shaped scoring kernel for the decision path (no
// external BLAS — the no-dependency rule holds). It exists so arm scoring
// runs over a contiguous coefficient plane (SoA) instead of pointer-chasing
// one heap-allocated model per arm, and so batched greedy reads share one
// traversal of the plane across many contexts.
//
// One kernel serves every shape, written once over a vector type and built
// twice (common/simd.hpp): with 4-lane vectors for CPUs with AVX2 and with
// 2-lane SSE2 vectors for the rest, picked per call. Tiles of Rows rows x
// 8 columns of C (Rows contexts x 8 arms; 4 rows in the AVX2 build, 2 in
// the baseline, eight accumulators either way) live in registers while k
// runs innermost; a lone row (a one-context decision, or the m % Rows
// remainder) takes 16 columns per tile. The columns left after the last
// whole tile take one more tile that ends at the row's end and overlaps the
// one before it (recomputing a few outputs to the same bits); a row
// narrower than a tile takes one narrower tile, so a 5-arm catalog still
// scores in one pass over k; fewer columns than one vector holds take the
// naive loop.
//
// FP-order byte-identity contract: every output element accumulates its
// k-terms in ascending index order from a 0.0 start, one separate multiply
// and add per term — exactly the order of linalg::dot (and therefore
// LinearModel::predict, whose bias lands as the trailing `b * 1.0` term of
// an intercept-augmented row). Tiles block rows and columns only; each
// output stays in one accumulator lane for its whole k loop, so it sees
// the scalar reference's value sequence and the results are bitwise
// identical on any build without -ffast-math (the repo never sets it) and
// without FMA (neither build enables it). Keep it that way: a k-split, a
// multi-accumulator reduction or a fused multiply-add would break the
// pinned decision-identity tests (tests/test_decision_kernel.cpp).

#include <cstddef>

namespace bw::linalg {

/// C = A * B, all row-major: A is m x k, B is k x n, C is m x n.
/// C(i, j) = sum over kk ascending of A(i, kk) * B(kk, j) — bitwise equal
/// to dot(A.row(i), B.col(j)). Buffers must not alias. Through
/// score_block, m counts contexts and n counts arms: a one-context
/// decision is one lone row across every arm.
void gemm_rm(const double* a, std::size_t m, std::size_t k, const double* b,
             std::size_t n, double* c);

/// Decision-kernel entry point. `plane_t` is the TRANSPOSED coefficient
/// plane, k x arms with k = d + 1: row kk holds coefficient kk across every
/// arm, the intercept row last. `ctx` is the n x k context panel, row j =
/// [x_j; 1]. `out` receives n x arms row-major — out[j * arms + i] is arm
/// i's score for context j, so each context's predictions land as one
/// contiguous span ready for tolerant_select.
///
/// The transposed plane is what makes the kernel stream: each k step of a
/// tile loads 8 (or 16) adjacent arms unit-stride from one plane row, and
/// each tile stores unit-stride into out, while each out[j * arms + i]
/// still accumulates its k terms in ascending order from 0.0 (the
/// contract above). Buffers must not alias.
void score_block(const double* plane_t, std::size_t arms, std::size_t k,
                 const double* ctx, std::size_t n, double* out);

namespace detail {

/// gemm_rm's baseline (SSE2) build, the one gemm_rm runs on a CPU without
/// AVX2. Declared so the tests pin that build on any host.
void gemm_rm_baseline(const double* a, std::size_t m, std::size_t k, const double* b,
                      std::size_t n, double* c);

}  // namespace detail

}  // namespace bw::linalg
