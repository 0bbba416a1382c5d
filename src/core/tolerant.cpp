#include "core/tolerant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace bw::core {
namespace {

/// Catalogs of at least this many arms take the vectorized kernel;
/// narrower ones keep the inline two-scan loop. 16 is one kernel block:
/// below it the kernel would run only its scalar tail loops, and the call
/// into the dispatched kernel costs more than the inline loop does.
constexpr std::size_t kWideSelectMinArms = 16;

/// R_limit (see tolerant.hpp): one expression for both paths, so the wide
/// kernel's limit has the narrow loop's bits.
BW_SIMD_INLINE double tolerance_limit(double r_min, const ToleranceParams& tolerance) {
  return r_min + tolerance.ratio * std::max(r_min, 0.0) + tolerance.seconds;
}

/// What the wide kernel found. When `finite` is false (some prediction is
/// ±inf or NaN) the other fields are unset.
struct WideSelect {
  bool finite = false;
  ArmIndex fastest = 0;
  ArmIndex arm = 0;
  std::size_t candidates = 0;
  double limit = 0.0;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The wide kernel reads four vectors per block, so no pass waits on one
/// vector's dependency chain.
constexpr std::size_t kStreams = 4;

template <class Mask>
BW_SIMD_INLINE bool any_lane(const Mask& mask) {
  auto any = mask[0];
  for (std::size_t l = 1; l < sizeof(Mask) / sizeof(any); ++l) any |= mask[l];
  return any != 0;
}

/// The smallest lane across the streams. Which of -0.0 and +0.0 wins a tie
/// is left open; callers compare the result, they do not copy its sign.
template <class V>
BW_SIMD_INLINE double min_lane(const V (&streams)[kStreams]) {
  const V low01 = streams[1] < streams[0] ? streams[1] : streams[0];
  const V low23 = streams[3] < streams[2] ? streams[3] : streams[2];
  const V low = low23 < low01 ? low23 : low01;
  double out = low[0];
  for (std::size_t l = 1; l < simd::kLanes<V>; ++l) out = low[l] < out ? low[l] : out;
  return out;
}

// The select for catalogs of kWideSelectMinArms arms or more, over blocks
// of kStreams vectors (16 arms in the AVX2 build, 8 in the baseline), each
// pass ending in a scalar loop over the arms left. Everything it compares
// or adds is exact, so it returns what the narrow loop would. It reports a
// non-finite prediction through `finite`; the entry point throws.
template <class V>
BW_SIMD_INLINE WideSelect select_wide(const double* p, const double* cost, std::size_t n,
                                      const ToleranceParams& tolerance) {
  using VU = simd::Unaligned<V>;
  using Mask = decltype(V{} < V{});
  constexpr std::size_t kBlock = kStreams * simd::kLanes<V>;
  const std::size_t blocked = n - n % kBlock;
  const V inf = kInf - V{};

  // Pass 1: the minimum prediction (a value, not yet an index) and a
  // finiteness flag: x - x is NaN exactly when x is ±inf or NaN, and a NaN
  // survives every later add.
  V low[kStreams] = {inf, inf, inf, inf};
  V bad[kStreams] = {};
  for (std::size_t i = 0; i < blocked; i += kBlock) {
    const VU* x = reinterpret_cast<const VU*>(p + i);
    for (std::size_t s = 0; s < kStreams; ++s) {
      low[s] = x[s] < low[s] ? x[s] : low[s];
      bad[s] = bad[s] + (x[s] - x[s]);
    }
  }
  double r_min = min_lane(low);
  const V bad_all = (bad[0] + bad[1]) + (bad[2] + bad[3]);
  double flag = 0.0;
  for (std::size_t l = 0; l < simd::kLanes<V>; ++l) flag = flag + bad_all[l];
  for (std::size_t i = blocked; i < n; ++i) {
    r_min = p[i] < r_min ? p[i] : r_min;
    flag = flag + (p[i] - p[i]);
  }
  if (flag != flag) return {};

  // Pass 2: the fastest arm is the first index holding that minimum. The
  // limit reads r_min back from that index: when -0.0 and +0.0 tie, the
  // lanes may have kept the other sign than the first index holds.
  std::size_t fastest = 0;
  for (; fastest < blocked; fastest += kBlock) {
    const VU* x = reinterpret_cast<const VU*>(p + fastest);
    const Mask hit =
        (x[0] == r_min) | (x[1] == r_min) | (x[2] == r_min) | (x[3] == r_min);
    if (any_lane(hit)) break;
  }
  while (!(p[fastest] == r_min)) ++fastest;
  const double limit = tolerance_limit(p[fastest], tolerance);

  // Pass 3: the candidate count and the cheapest candidate's cost; a
  // non-candidate contributes +inf. An arm is a candidate unless p > limit,
  // the narrow loop's own test, so the blocks count the arms above the
  // limit: a NaN limit (ratio = +inf with r_min <= 0) then keeps every arm
  // on both paths, where p <= limit would keep none.
  V cheap[kStreams] = {inf, inf, inf, inf};
  Mask over_count = {};
  for (std::size_t i = 0; i < blocked; i += kBlock) {
    const VU* x = reinterpret_cast<const VU*>(p + i);
    const VU* c = reinterpret_cast<const VU*>(cost + i);
    for (std::size_t s = 0; s < kStreams; ++s) {
      const Mask over = x[s] > limit;
      const V candidate = over ? inf : c[s];
      cheap[s] = candidate < cheap[s] ? candidate : cheap[s];
      over_count -= over;  // a true lane is -1
    }
  }
  double cheapest = min_lane(cheap);
  std::size_t candidates = blocked;
  for (std::size_t l = 0; l < simd::kLanes<V>; ++l) {
    candidates -= static_cast<std::size_t>(over_count[l]);
  }
  for (std::size_t i = blocked; i < n; ++i) {
    const bool in = !(p[i] > limit);
    candidates += in;
    const double candidate = in ? cost[i] : kInf;
    cheapest = candidate < cheapest ? candidate : cheapest;
  }

  // The fastest arm keeps every cost tie. Only a strictly cheaper candidate
  // displaces it, and then the lowest candidate index at that cost wins:
  // one more scan, which stops at the first hit.
  std::size_t arm = fastest;
  if (cheapest < cost[fastest]) {
    arm = 0;
    for (; arm < blocked; arm += kBlock) {
      const VU* x = reinterpret_cast<const VU*>(p + arm);
      const VU* c = reinterpret_cast<const VU*>(cost + arm);
      const Mask hit = (~(x[0] > limit) & (c[0] == cheapest)) |
                       (~(x[1] > limit) & (c[1] == cheapest)) |
                       (~(x[2] > limit) & (c[2] == cheapest)) |
                       (~(x[3] > limit) & (c[3] == cheapest));
      if (any_lane(hit)) break;
    }
    while (p[arm] > limit || !(cost[arm] == cheapest)) ++arm;
  }

  return {true, fastest, arm, candidates, limit};
}

BW_SIMD_AVX2 WideSelect select_wide_avx2(const double* p, const double* cost,
                                         std::size_t n,
                                         const ToleranceParams& tolerance) {
  return select_wide<simd::V4d>(p, cost, n, tolerance);
}

WideSelect select_wide_baseline(const double* p, const double* cost, std::size_t n,
                                const ToleranceParams& tolerance) {
  return select_wide<simd::V2d>(p, cost, n, tolerance);
}

// tolerant_select. A wide catalog runs the kernel's AVX2 build when
// `allow_avx2` is set and the CPU has AVX2, else its baseline build.
BW_SIMD_INLINE TolerantChoice select(std::span<const double> predictions,
                                     std::span<const double> resource_costs,
                                     const ToleranceParams& tolerance, bool allow_avx2) {
  BW_CHECK_MSG(!predictions.empty(), "tolerant_select: no arms");
  BW_CHECK_MSG(predictions.size() == resource_costs.size(),
               "tolerant_select: predictions/costs size mismatch");
  BW_CHECK_MSG(tolerance.ratio >= 0.0 && tolerance.seconds >= 0.0,
               "tolerance parameters must be non-negative");
  TolerantChoice choice;
  ArmIndex fastest = 0;
  if (predictions.size() >= kWideSelectMinArms) {
    const double* p = predictions.data();
    const double* cost = resource_costs.data();
    const std::size_t n = predictions.size();
    const WideSelect wide = allow_avx2 && simd::has_avx2()
                                ? select_wide_avx2(p, cost, n, tolerance)
                                : select_wide_baseline(p, cost, n, tolerance);
    BW_CHECK_MSG(wide.finite, "tolerant_select: non-finite prediction");
    fastest = wide.fastest;
    choice.arm = wide.arm;
    choice.limit = wide.limit;
    choice.candidates = wide.candidates;
  } else {
    // A narrow catalog: one fused scan for validity and the fastest arm,
    // then one for the candidates. Inline here, because a call into a
    // wide kernel costs more than these few arms do.
    BW_CHECK_MSG(std::isfinite(predictions[0]),
                 "tolerant_select: non-finite prediction");
    double r_min = predictions[0];
    for (ArmIndex arm = 1; arm < predictions.size(); ++arm) {
      const double p = predictions[arm];
      BW_CHECK_MSG(std::isfinite(p), "tolerant_select: non-finite prediction");
      if (p < r_min) {
        r_min = p;
        fastest = arm;
      }
    }
    const double limit = tolerance_limit(r_min, tolerance);
    choice.limit = limit;
    choice.arm = fastest;
    double best_cost = resource_costs[fastest];
    for (ArmIndex arm = 0; arm < predictions.size(); ++arm) {
      if (predictions[arm] > limit) continue;
      ++choice.candidates;
      // Most resource-efficient within the limit. Strict <: the fastest arm
      // keeps cost ties with every other candidate, and among strictly
      // cheaper arms of equal cost the lowest index wins.
      if (resource_costs[arm] < best_cost) {
        best_cost = resource_costs[arm];
        choice.arm = arm;
      }
    }
  }
  choice.predicted_runtime = predictions[choice.arm];
  choice.efficiency_tie_break = choice.arm != fastest;
  return choice;
}

}  // namespace

TolerantChoice tolerant_select(std::span<const double> predictions,
                               std::span<const double> resource_costs,
                               const ToleranceParams& tolerance) {
  return select(predictions, resource_costs, tolerance, true);
}

namespace detail {

TolerantChoice tolerant_select_baseline(std::span<const double> predictions,
                                        std::span<const double> resource_costs,
                                        const ToleranceParams& tolerance) {
  return select(predictions, resource_costs, tolerance, false);
}

}  // namespace detail

}  // namespace bw::core
