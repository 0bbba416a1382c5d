#pragma once
// Vector types and per-CPU dispatch for the decision kernels
// (linalg::gemm_rm and core::tolerant_select's wide-catalog pass).
//
// The repo never sets -march, so plain -O3 code gets SSE2 only. Each
// kernel is therefore written once, as a template over a GCC vector of
// doubles, and built twice in its own .cpp file:
//   - an AVX2 build: the template instantiated with V4d (four doubles, one
//     ymm register) in a function marked BW_SIMD_AVX2;
//   - a baseline build: instantiated with V2d (two doubles, one SSE2 xmm
//     register) in a plain function.
// The kernel's public entry point calls the AVX2 build when
// has_avx2() says the CPU runs it, else the baseline one. Each build needs
// its own vector width: a 32-byte vector is not native to the SSE2
// baseline, so GCC keeps it in memory there (a V4d kernel built for
// baseline x86-64 ran 3-10x slower than the plain loops it replaced).
// Plain scalar loops do not get there either: GCC will not reassociate a
// double min or sum without -ffast-math, so a lane-wise reduction must be
// spelled out in vectors.
//
// Rules for a kernel:
//   - BW_SIMD_AVX2 stays target("avx2"). Never add "fma" (nor an "arch="
//     that implies it): GCC contracts a * b + c into one fused
//     multiply-add as soon as FMA is enabled (even under -std=c++20), which
//     changes roundings; the kernels are pinned bitwise to their scalar
//     references (tests/test_decision_kernel.cpp,
//     tests/test_core_tolerant.cpp). AVX2 alone does not enable FMA.
//   - Helpers are always_inline (BW_SIMD_INLINE), so each build gets its own
//     copy, and take or return no vector by value: a vector in a signature
//     changes the ABI between the builds, and GCC warns (-Wpsabi).
//   - A scalar operand of a vector operation is broadcast (x * v, v > x).
//     Where a vector must be built from a scalar, `x - V{}` is exact for
//     every x, -0.0 included (x + V{} would turn -0.0 into +0.0).

#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#define BW_SIMD_AVX2 __attribute__((target("avx2")))
#else
#define BW_SIMD_AVX2
#endif

#define BW_SIMD_INLINE inline __attribute__((always_inline))

namespace bw::simd {

/// Two and four doubles as one GCC vector. Element-wise + - * round exactly
/// like scalars; a comparison yields a mask vector of 0 / -1 lanes, and
/// `mask ? a : b` selects lane-wise.
typedef double V2d __attribute__((vector_size(16)));
typedef double V4d __attribute__((vector_size(32)));

/// Unaligned views, for loads and stores in place. may_alias makes the
/// access well-defined; it is how GCC's own _mm256_loadu_pd type
/// (__m256d_u) is declared. (A memcpy through a vector's address instead
/// makes GCC keep a whole register tile on the stack.)
typedef double V2dU __attribute__((vector_size(16), aligned(8), may_alias));
typedef double V4dU __attribute__((vector_size(32), aligned(8), may_alias));

template <class V>
struct UnalignedOf;
template <>
struct UnalignedOf<V2d> {
  using type = V2dU;
};
template <>
struct UnalignedOf<V4d> {
  using type = V4dU;
};

/// `*reinterpret_cast<const Unaligned<V>*>(p)` is p[0 .. kLanes<V> - 1].
template <class V>
using Unaligned = typename UnalignedOf<V>::type;

template <class V>
inline constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/// True when the CPU and OS run AVX2 code; checked once.
inline bool has_avx2() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace bw::simd
