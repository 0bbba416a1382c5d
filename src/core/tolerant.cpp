#include "core/tolerant.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace bw::core {

TolerantChoice tolerant_select(std::span<const double> predictions,
                               std::span<const double> resource_costs,
                               const ToleranceParams& tolerance) {
  BW_CHECK_MSG(!predictions.empty(), "tolerant_select: no arms");
  BW_CHECK_MSG(predictions.size() == resource_costs.size(),
               "tolerant_select: predictions/costs size mismatch");
  BW_CHECK_MSG(tolerance.ratio >= 0.0 && tolerance.seconds >= 0.0,
               "tolerance parameters must be non-negative");
  // One fused scan for validity and the fastest arm: this runs once per
  // decision on the serving path, so the O(arms) passes are worth counting.
  BW_CHECK_MSG(std::isfinite(predictions[0]),
               "tolerant_select: non-finite prediction");
  ArmIndex fastest = 0;
  double r_min = predictions[0];
  for (ArmIndex arm = 1; arm < predictions.size(); ++arm) {
    const double p = predictions[arm];
    BW_CHECK_MSG(std::isfinite(p), "tolerant_select: non-finite prediction");
    if (p < r_min) {
      r_min = p;
      fastest = arm;
    }
  }
  const double limit = r_min + tolerance.ratio * std::max(r_min, 0.0) + tolerance.seconds;

  TolerantChoice choice;
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
  choice.predicted_runtime = predictions[choice.arm];
  choice.efficiency_tie_break = choice.arm != fastest;
  return choice;
}

}  // namespace bw::core
