#pragma once
// Policy interface: everything the replay evaluator and the BanditWare
// facade need from a hardware-selection strategy. All policies *minimize
// runtime* (cost semantics — no reward sign flipping anywhere).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/types.hpp"

namespace bw::core {

/// The production-stack policy axis: which learning strategy the BanditWare
/// facade (and everything above it — merge, snapshots, serving) runs. All
/// three share the same per-arm ridge-RLS substrate (core/arm_bank.hpp), so
/// they fuse and serialize through the same evidence (R, z, n).
enum class PolicyKind {
  kEpsilonGreedy,  ///< the paper's decaying contextual ε-greedy (default)
  kLinUcb,         ///< deterministic LCB optimism, width scaled by alpha
  kThompson,       ///< linear-Gaussian posterior sampling, scaled by v
};

std::string to_string(PolicyKind kind);
PolicyKind parse_policy_kind(const std::string& name);

class Policy {
 public:
  virtual ~Policy() = default;

  /// Number of hardware arms.
  virtual std::size_t num_arms() const = 0;

  /// Online selection for the next workflow (may explore). `rng` supplies
  /// all randomness so replays are deterministic.
  virtual ArmIndex select(const FeatureVector& x, Rng& rng) = 0;

  /// Feeds back the observed runtime of `arm` on workflow `x` and updates
  /// the policy's model.
  virtual void observe(ArmIndex arm, const FeatureVector& x, double runtime_s) = 0;

  /// Greedy recommendation (no exploration) — what a user-facing
  /// "which hardware should I use?" query returns.
  virtual ArmIndex recommend(const FeatureVector& x) const = 0;

  /// Current runtime estimate R̂(H_arm, x).
  virtual double predict(ArmIndex arm, const FeatureVector& x) const = 0;

  /// Estimates for all arms (order = arm index).
  std::vector<double> predict_all(const FeatureVector& x) const {
    std::vector<double> out(num_arms());
    for (ArmIndex arm = 0; arm < num_arms(); ++arm) out[arm] = predict(arm, x);
    return out;
  }

  virtual std::string name() const = 0;

  /// Restores the untrained state.
  virtual void reset() = 0;
};

using PolicyFactory = std::function<std::unique_ptr<Policy>()>;

}  // namespace bw::core
