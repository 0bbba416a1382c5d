#pragma once
// The paper's contribution: Decaying Contextual ε-Greedy Strategy with
// Tolerant Selection (Algorithm 1).
//
//   for each incoming workflow w_j with features x_j:
//     R̂(H_i, x_j) = w_i^T x_j + b_i                      (line 5)
//     with prob ε: random arm (exploration)               (line 6)
//     else: tolerant selection over R̂                     (line 7)
//     observe actual runtime, store in D_k                 (lines 9-10)
//     least-squares refit of (w_k, b_k)                    (line 11)
//     ε <- α ε                                             (line 12)

#include "core/banked_policy.hpp"
#include "core/tolerant.hpp"
#include "hardware/catalog.hpp"

namespace bw::core {

struct EpsilonGreedyConfig {
  double initial_epsilon = 1.0;  ///< ε₀ (paper uses 1.0)
  double decay = 0.99;           ///< α  (paper uses 0.99)
  ToleranceParams tolerance{};   ///< tr / ts of the tolerant selection
  linalg::FitOptions fit{};      ///< per-arm regression options
  hw::ResourceWeights resource_weights{};  ///< efficiency ordering
};

/// ε after fusing two exploration states that decayed from one `anchor`
/// (ε₀, or a common ancestor's ε): ε decays by α once per observation, so
/// the decay factors each side accumulated multiply — ε · ε_other / anchor,
/// clamped to [0, 1], and 0 when the anchor is. BanditWare::merge_from and
/// the fleet's canonical fold both fuse ε through it.
double fuse_epsilon(double epsilon, double other, double anchor);

class DecayingEpsilonGreedy final : public BankedPolicy {
 public:
  /// `catalog` supplies arm count and resource costs; `num_features` = m.
  DecayingEpsilonGreedy(const hw::HardwareCatalog& catalog, std::size_t num_features,
                        EpsilonGreedyConfig config = {});

  ArmIndex select(const FeatureVector& x, Rng& rng) override;
  void observe(ArmIndex arm, const FeatureVector& x, double runtime_s) override;
  std::string name() const override { return "decaying-contextual-eps-greedy"; }
  PolicyKind kind() const override { return PolicyKind::kEpsilonGreedy; }
  void reset() override;

  double epsilon() const { return epsilon_; }

  /// Overrides the current exploration rate (clamped to [0, 1]).
  /// Intended for resuming from a saved snapshot, not for tuning mid-run.
  void set_epsilon(double epsilon);
  const EpsilonGreedyConfig& config() const { return config_; }

  /// True if the most recent select() call explored (for diagnostics).
  bool last_was_exploration() const { return last_was_exploration_; }

 private:
  EpsilonGreedyConfig config_;
  double epsilon_;
  bool last_was_exploration_ = false;
};

}  // namespace bw::core
