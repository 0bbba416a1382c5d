#pragma once
// Tolerant selection (Algorithm 1, line 7): among hardware whose predicted
// runtime is within
//   R_limit = (1 + tolerance_ratio) * R̂(H_fastest) + tolerance_seconds
// choose the most resource-efficient one.
//
// Tie rules:
//   - the fastest arm is the FIRST index holding the minimum R̂; -0.0 and
//     +0.0 tie, and R_limit is built from that index's own value;
//   - a candidate is an arm whose R̂ is not above R_limit, so a NaN R_limit
//     (tolerance_ratio = +inf with R̂_min <= 0) admits every arm;
//   - the fastest arm keeps every cost tie: only a candidate that costs
//     strictly less displaces it, and then the lowest candidate index at the
//     cheapest cost wins.
// Narrow and wide catalogs run different code (see tolerant.cpp) that
// returns the same bits.

#include <span>
#include <vector>

#include "core/types.hpp"

namespace bw::core {

struct TolerantChoice {
  ArmIndex arm = 0;
  double predicted_runtime = 0.0;
  double limit = 0.0;                 ///< R_limit actually used
  std::size_t candidates = 0;         ///< arms within the limit
  bool efficiency_tie_break = false;  ///< true if a non-fastest arm was chosen
};

/// `predictions[i]` = R̂(H_i, x); `resource_costs[i]` = catalog cost of arm
/// i (lower = more efficient). Throws InvalidArgument on empty or
/// mismatched inputs, negative tolerances, or a non-finite prediction.
///
/// Edge case (deviation from the paper's formula, documented in DESIGN.md):
/// an untrained or extrapolating linear model can predict *negative*
/// runtimes, where (1+tr)*R̂_min would fall below R̂_min and exclude every
/// arm. We therefore apply the ratio to max(R̂_min, 0):
///   R_limit = R̂_min + tr * max(R̂_min, 0) + ts
/// which equals the paper's formula whenever R̂_min >= 0.
///
/// Span-based so the batched decision kernel can feed per-context slices of
/// its score matrix straight in without copying.
TolerantChoice tolerant_select(std::span<const double> predictions,
                               std::span<const double> resource_costs,
                               const ToleranceParams& tolerance);

/// Vector overload — C++20 span has no initializer_list constructor, so
/// this is what keeps brace-literal call sites (tests, examples) compiling.
inline TolerantChoice tolerant_select(const std::vector<double>& predictions,
                                      const std::vector<double>& resource_costs,
                                      const ToleranceParams& tolerance) {
  return tolerant_select(std::span<const double>(predictions),
                         std::span<const double>(resource_costs), tolerance);
}

namespace detail {

/// tolerant_select with the wide-catalog kernel's baseline (SSE2) build,
/// the one tolerant_select runs on a CPU without AVX2. Declared so the
/// tests pin that build on any host.
TolerantChoice tolerant_select_baseline(std::span<const double> predictions,
                                        std::span<const double> resource_costs,
                                        const ToleranceParams& tolerance);

}  // namespace detail

}  // namespace bw::core
