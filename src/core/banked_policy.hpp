#pragma once
// BankedPolicy — the production-stack face of a hardware-selection policy:
// a Policy implementation that runs on the shared ArmBank substrate. The
// greedy surface (tolerant recommend, per-arm predict, observe, reset) is
// identical across ε-greedy, LinUCB, and Thompson — they differ only in
// select() — so it lives here once, and the BanditWare facade can route
// merge/snapshot/serving through bank() without knowing which policy runs.

#include <utility>

#include "core/arm_bank.hpp"
#include "core/policy.hpp"

namespace bw::core {

class BankedPolicy : public Policy {
 public:
  std::size_t num_arms() const final { return bank_.size(); }

  void observe(ArmIndex arm, const FeatureVector& x, double runtime_s) override {
    bank_.observe(arm, x, runtime_s);
  }

  ArmIndex recommend(const FeatureVector& x) const final {
    return bank_.recommend_choice(x).arm;
  }

  /// Tolerant-greedy choice with its predicted runtime — one prediction
  /// pass, unlike recommend() followed by predict().
  TolerantChoice recommend_choice(const FeatureVector& x) const {
    return bank_.recommend_choice(x);
  }

  double predict(ArmIndex arm, const FeatureVector& x) const final {
    return bank_.predict(arm, x);
  }

  /// Shadows Policy::predict_all (a per-arm predict loop) with the bank's
  /// one-pass theta-plane sweep. Same values, bitwise.
  std::vector<double> predict_all(const FeatureVector& x) const {
    return bank_.predict_all(x);
  }

  void reset() override { bank_.reset(); }

  virtual PolicyKind kind() const = 0;

  ArmBank& bank() { return bank_; }
  const ArmBank& bank() const { return bank_; }

  /// Read-only: writes that bypass observe() (restore, merge) go through
  /// the bank's write-through methods.
  const linalg::RecursiveLeastSquares& arm_model(ArmIndex arm) const {
    return bank_.arm(arm);
  }

 protected:
  explicit BankedPolicy(ArmBank bank) : bank_(std::move(bank)) {}

  ArmBank bank_;
};

}  // namespace bw::core
