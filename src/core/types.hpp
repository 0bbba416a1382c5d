#pragma once
// Shared vocabulary types for the BanditWare core.

#include <cstddef>
#include <vector>

namespace bw::core {

/// Workflow feature vector x in R^m (paper Section 3.2).
using FeatureVector = std::vector<double>;

/// Arm index into the hardware catalog.
using ArmIndex = std::size_t;

/// Tolerance parameters of Algorithm 1: the tolerant selection threshold is
///   R_limit = (1 + ratio) * R̂(H_fastest) + seconds.
/// Both zero = pure runtime minimization.
struct ToleranceParams {
  double ratio = 0.0;    ///< tolerance_ratio (tr), e.g. 0.05 = 5% slowdown
  double seconds = 0.0;  ///< tolerance_seconds (ts), e.g. 20.0
};

/// One recorded execution: workflow features, the arm it ran on, and the
/// observed runtime in seconds.
struct Observation {
  ArmIndex arm = 0;
  FeatureVector x;
  double runtime_s = 0.0;
};

}  // namespace bw::core
