#pragma once
// Linear-Gaussian Thompson sampling: per arm, sample a parameter vector
// from the posterior N(θ̂_i, v² A_i^{-1}) and pick the arm whose *sampled*
// model predicts the lowest runtime. Exploration comes from posterior
// width, so it self-anneals as data accumulates. Runs on the shared
// ArmBank substrate.

#include "core/banked_policy.hpp"
#include "core/tolerant.hpp"
#include "hardware/catalog.hpp"

namespace bw::core {

struct ThompsonConfig {
  double posterior_scale = 1.0;  ///< v — widens (v>1) or sharpens sampling
  double ridge = 1e-3;
  ToleranceParams tolerance{};
  hw::ResourceWeights resource_weights{};
};

class LinearThompson final : public BankedPolicy {
 public:
  LinearThompson(const hw::HardwareCatalog& catalog, std::size_t num_features,
                 ThompsonConfig config = {});

  /// Production-stack path: a pre-built substrate (the BanditWare facade
  /// constructs it from the shared BanditWareConfig fit/tolerance options)
  /// plus this policy's own scalar.
  LinearThompson(ArmBank bank, double posterior_scale);

  ArmIndex select(const FeatureVector& x, Rng& rng) override;
  std::string name() const override { return "linear-thompson"; }
  PolicyKind kind() const override { return PolicyKind::kThompson; }

  double posterior_scale() const { return posterior_scale_; }

 private:
  double posterior_scale_;
};

}  // namespace bw::core
