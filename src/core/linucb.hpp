#pragma once
// LinUCB for runtime minimization (paper future work: "more complex
// contextual bandit algorithms"). Per arm we keep a ridge RLS posterior on
// the shared ArmBank substrate; selection is optimistic toward *low*
// runtime via the lower confidence bound
//   R̂(H_i, x) - alpha * sqrt(x̃^T A_i^{-1} x̃).

#include "core/banked_policy.hpp"
#include "core/tolerant.hpp"
#include "hardware/catalog.hpp"

namespace bw::core {

struct LinUcbConfig {
  double alpha = 1.0;          ///< exploration width multiplier
  double ridge = 1e-3;         ///< RLS prior information ridge * I
  ToleranceParams tolerance{}; ///< applied to greedy recommend()
  hw::ResourceWeights resource_weights{};
};

class LinUcb final : public BankedPolicy {
 public:
  LinUcb(const hw::HardwareCatalog& catalog, std::size_t num_features,
         LinUcbConfig config = {});

  /// Production-stack path: a pre-built substrate (the BanditWare facade
  /// constructs it from the shared BanditWareConfig fit/tolerance options)
  /// plus this policy's own scalar.
  LinUcb(ArmBank bank, double alpha);

  ArmIndex select(const FeatureVector& x, Rng& rng) override;
  std::string name() const override { return "linucb"; }
  PolicyKind kind() const override { return PolicyKind::kLinUcb; }

  double alpha() const { return alpha_; }

  /// Lower confidence bound used by select().
  double lcb(ArmIndex arm, const FeatureVector& x) const;

 private:
  double alpha_;
};

}  // namespace bw::core
