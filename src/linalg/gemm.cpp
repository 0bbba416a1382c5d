#include "linalg/gemm.hpp"

namespace bw::linalg {

// Runtime-dispatched SIMD clones (GNU ifunc): the repo never sets -march, so
// plain -O3 vectorizes these loops with 16-byte SSE2 vectors only. The avx2
// clone widens them to 32 bytes on hosts that have it, picked at load time —
// no illegal instructions on older CPUs. FP safety: vectorizing across j
// (independent output accumulators) never reorders any single accumulator's
// k-sequence, and AVX2 alone does not enable FMA, so no mul+add contraction
// can change the rounding — the byte-identity contract in gemm.hpp holds in
// every clone. TSan builds skip the clones: the GNU ifunc resolver runs
// during relocation, before the TSan runtime initializes, and segfaults
// (reproducible with a 3-line target_clones program under -fsanitize=thread
// on this toolchain). Identical results either way, so nothing is lost.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define BW_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define BW_KERNEL_CLONES
#endif

BW_KERNEL_CLONES
void gemm_rm(const double* a, std::size_t m, std::size_t k, const double* b,
             std::size_t n, double* c) {
  // Row-axpy accumulation: C's row i starts at 0.0 and absorbs B's rows in
  // ascending kk order, so each C(i, j) sees exactly the linalg::dot value
  // sequence (the byte-identity contract in gemm.hpp). All inner loops run
  // unit-stride over j, which is what lets them vectorize; unrolling kk by
  // 4 inside one j pass quarters the C-row load/store re-streaming without
  // touching the per-element rounding order — the four adds chain in kk
  // order within the pass, the same chain the one-kk-at-a-time loop builds
  // across passes. An L1-resident C row makes this comfortably faster than
  // a register-tiled variant here, whose short k trip (d + 1) leaves its
  // accumulator tile bouncing through the stack.
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    std::size_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const double a0 = arow[kk];
      const double a1 = arow[kk + 1];
      const double a2 = arow[kk + 2];
      const double a3 = arow[kk + 3];
      const double* b0 = b + kk * n;
      const double* b1 = b0 + n;
      const double* b2 = b1 + n;
      const double* b3 = b2 + n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] = (((crow[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
      }
    }
    for (; kk < k; ++kk) {
      const double ak = arow[kk];
      const double* bk = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ak * bk[j];
    }
  }
}

void score_block(const double* plane_t, std::size_t arms, std::size_t k,
                 const double* ctx, std::size_t n, double* out) {
  // out (n x arms) = ctx (n x k) * plane_t (k x arms): with the plane
  // transposed, scoring IS a row-major GEMM whose inner loop streams across
  // arms — unit-stride loads from plane_t, unit-stride stores into out, and
  // the per-element k order gemm_rm already guarantees.
  gemm_rm(ctx, n, k, plane_t, arms, out);
}

}  // namespace bw::linalg
