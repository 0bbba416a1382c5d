#pragma once
// Blocked GEMM-shaped scoring kernels for the decision path (no external
// BLAS — the no-dependency rule holds). These exist so arm scoring can run
// over a contiguous coefficient plane (SoA) instead of pointer-chasing one
// heap-allocated model per arm, and so batched greedy reads can amortize
// one traversal of the weight matrix across many concurrent contexts.
//
// FP-order byte-identity contract: every output element accumulates its
// k-terms in ascending index order from a 0.0 start — exactly the order of
// linalg::dot (and therefore LinearModel::predict, whose bias lands as the
// trailing `b * 1.0` term of an intercept-augmented row). Tiling blocks
// over rows and output columns only; the k loop is never split, so each
// accumulator sees the same value sequence as the scalar reference and the
// results are bitwise identical on any build that does not enable
// -ffast-math (the repo never does). Keep it that way: a k-split or a
// multi-accumulator reduction would break the pinned decision-identity
// tests (tests/test_decision_kernel.cpp).

#include <cstddef>

namespace bw::linalg {

/// C = A * B, all row-major: A is m x k, B is k x n, C is m x n.
/// C(i, j) = sum over kk ascending of A(i, kk) * B(kk, j) — bitwise equal
/// to dot(A.row(i), B.col(j)). Buffers must not alias. One row-axpy loop
/// serves every shape: through score_block, m counts contexts and n
/// counts arms, so a one-context decision is m = 1 and n = 1 only for a
/// one-arm catalog.
void gemm_rm(const double* a, std::size_t m, std::size_t k, const double* b,
             std::size_t n, double* c);

/// Decision-kernel entry point. `plane_t` is the TRANSPOSED coefficient
/// plane, k x arms with k = d + 1: row kk holds coefficient kk across every
/// arm, the intercept row last. `ctx` is the n x k context panel, row j =
/// [x_j; 1]. `out` receives n x arms row-major — out[j * arms + i] is arm
/// i's score for context j, so each context's predictions land as one
/// contiguous span ready for tolerant_select.
///
/// The transposed plane is what makes the kernel stream: the inner loop
/// runs across arms with unit-stride loads from plane_t and unit-stride
/// stores into out, while each out[j * arms + i] still accumulates its k
/// terms in ascending order from 0.0 (the contract above). Buffers must
/// not alias.
void score_block(const double* plane_t, std::size_t arms, std::size_t k,
                 const double* ctx, std::size_t n, double* out);

}  // namespace bw::linalg
