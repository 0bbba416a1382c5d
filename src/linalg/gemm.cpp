#include "linalg/gemm.hpp"

#include <algorithm>

#include "common/simd.hpp"

namespace bw::linalg {
namespace {

// One register tile: Rows rows of C by the first `cols` columns (at most
// Vecs vectors' worth). Each output lives in one lane of one accumulator
// from a 0.0 start to its store, and absorbs a[kk] * b[kk] for kk
// ascending as a separate multiply and add — the exact value sequence of
// the naive dot, so every lane rounds as the scalar reference does. When
// `cols` is short of Vecs whole vectors, the vectors past it move left to
// end at column `cols`: they recompute columns another vector covers, to
// the same bits, so no load or store leaves the tile and no vector is
// partial. Needs cols >= kLanes<V>.
template <class V, std::size_t Rows, std::size_t Vecs>
BW_SIMD_INLINE void tile(const double* a, std::size_t k, const double* b, std::size_t n,
                         double* c, std::size_t cols) {
  using VU = simd::Unaligned<V>;
  constexpr std::size_t kLanes = simd::kLanes<V>;
  std::size_t col[Vecs];
  for (std::size_t v = 0; v < Vecs; ++v) col[v] = std::min(v * kLanes, cols - kLanes);
  V acc[Rows][Vecs] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* brow = b + kk * n;
    V bv[Vecs];
    for (std::size_t v = 0; v < Vecs; ++v) {
      bv[v] = *reinterpret_cast<const VU*>(brow + col[v]);
    }
    for (std::size_t r = 0; r < Rows; ++r) {
      const double x = a[r * k + kk];
      for (std::size_t v = 0; v < Vecs; ++v) acc[r][v] = acc[r][v] + x * bv[v];
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    for (std::size_t v = 0; v < Vecs; ++v) {
      *reinterpret_cast<VU*>(c + r * n + col[v]) = acc[r][v];
    }
  }
}

// Rows rows of C: whole tiles of Vecs vectors, then one more ending at
// column n, which overlaps the one before it. A row narrower than a tile
// takes one tile of the fewest halvings of Vecs that still span it, so a
// 5-arm catalog scores in one pass over k.
template <class V, std::size_t Rows, std::size_t Vecs>
BW_SIMD_INLINE void row_panel(const double* a, std::size_t k, const double* b,
                              std::size_t n, double* c) {
  constexpr std::size_t kWidth = simd::kLanes<V> * Vecs;
  if constexpr (Vecs > 1) {
    if (n <= kWidth / 2) return row_panel<V, Rows, Vecs / 2>(a, k, b, n, c);
  }
  if (n < kWidth) return tile<V, Rows, Vecs>(a, k, b, n, c, n);
  std::size_t j = 0;
  for (; j + kWidth <= n; j += kWidth) tile<V, Rows, Vecs>(a, k, b + j, n, c + j, kWidth);
  if (j < n) {
    tile<V, Rows, Vecs>(a, k, b + (n - kWidth), n, c + (n - kWidth), kWidth);
  }
}

// C = A * B with V-wide vectors: Rows rows x 8 columns per tile (eight
// accumulators in either build), 16 columns for a lone row (a one-context
// decision, or the m % Rows remainder), which has no neighbours to share
// B's loads with. Fewer columns than one vector holds take the naive loop.
template <class V, std::size_t Rows>
BW_SIMD_INLINE void gemm(const double* a, std::size_t m, std::size_t k, const double* b,
                         std::size_t n, double* c) {
  constexpr std::size_t kLanes = simd::kLanes<V>;
  if (n < kLanes) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double sum = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) sum = sum + a[i * k + kk] * b[kk * n + j];
        c[i * n + j] = sum;
      }
    }
    return;
  }
  std::size_t i = 0;
  for (; i + Rows <= m; i += Rows) {
    row_panel<V, Rows, 8 / kLanes>(a + i * k, k, b, n, c + i * n);
  }
  for (; i < m; ++i) row_panel<V, 1, 16 / kLanes>(a + i * k, k, b, n, c + i * n);
}

BW_SIMD_AVX2 void gemm_avx2(const double* a, std::size_t m, std::size_t k,
                            const double* b, std::size_t n, double* c) {
  gemm<simd::V4d, 4>(a, m, k, b, n, c);
}

}  // namespace

namespace detail {

void gemm_rm_baseline(const double* a, std::size_t m, std::size_t k, const double* b,
                      std::size_t n, double* c) {
  gemm<simd::V2d, 2>(a, m, k, b, n, c);
}

}  // namespace detail

void gemm_rm(const double* a, std::size_t m, std::size_t k, const double* b,
             std::size_t n, double* c) {
  if (simd::has_avx2()) return gemm_avx2(a, m, k, b, n, c);
  detail::gemm_rm_baseline(a, m, k, b, n, c);
}

void score_block(const double* plane_t, std::size_t arms, std::size_t k,
                 const double* ctx, std::size_t n, double* out) {
  // out (n x arms) = ctx (n x k) * plane_t (k x arms): with the plane
  // transposed, scoring IS a row-major GEMM whose tiles stream across
  // arms — unit-stride loads from plane_t, unit-stride stores into out, and
  // the per-element k order gemm_rm already guarantees.
  gemm_rm(ctx, n, k, plane_t, arms, out);
}

}  // namespace bw::linalg
