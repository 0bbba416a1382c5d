// Property suite for the O(d^2) incremental learning hot path: the
// RLS-backed DecayingEpsilonGreedy must be indistinguishable from the
// paper-literal Algorithm 1 — every arm refit from its full history by
// linalg::fit_linear after each observation — over randomized
// 500-observation streams. The batch refit lives only here, as the
// reference. Two layers of the contract:
//
//  1. With identical regression options (a shared explicit ridge) the two
//     learners solve the *same* problem, so predictions must agree within
//     1e-9 once an arm is determined (the warm-up solves are conditioned
//     like ||x||^2 / ridge, so rounding there is visible at ~cond * eps,
//     and the recursion carries a damped residue of it).
//  2. With the library defaults the batch fit runs unregularized QR while
//     the incremental path keeps its 1e-8 prior — a bias that decays as
//     1/n. Discrete behavior (selects, recommends, epsilon) must still be
//     identical across the whole stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/epsilon_greedy.hpp"
#include "hardware/catalog.hpp"
#include "linalg/lstsq.hpp"

namespace bw::core {
namespace {

hw::HardwareCatalog test_catalog() {
  return hw::HardwareCatalog({{"A", 2, 16.0}, {"B", 3, 24.0}, {"C", 4, 16.0}});
}

constexpr std::size_t kDim = 4;
constexpr std::size_t kSteps = 500;

struct StreamStep {
  FeatureVector x;
  double runtime = 0.0;
};

std::vector<StreamStep> make_stream(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w_true(kDim);
  for (auto& w : w_true) w = rng.uniform(0.2, 1.5);
  std::vector<StreamStep> steps(kSteps);
  for (auto& step : steps) {
    step.x.resize(kDim);
    step.runtime = 0.5;
    for (std::size_t c = 0; c < kDim; ++c) {
      step.x[c] = rng.uniform(0.0, 2.0);
      step.runtime += w_true[c] * step.x[c];
    }
    step.runtime += rng.normal(0.0, 0.05);
  }
  return steps;
}

/// Algorithm 1 taken literally: each arm stores its rows and is refit from
/// scratch by linalg::fit_linear after every observation (line 11). The
/// decision side mirrors DecayingEpsilonGreedy — the same ε-coin and
/// uniform draw from the caller's Rng, the same tolerant selection over
/// the same resource costs — so both learners consume their RNGs in
/// lockstep for as long as their choices agree.
class BatchRefitReference {
 public:
  BatchRefitReference(const hw::HardwareCatalog& catalog, EpsilonGreedyConfig config)
      : config_(config),
        epsilon_(config.initial_epsilon),
        costs_(catalog.resource_costs(config.resource_weights)),
        arms_(catalog.size()) {
    for (Arm& arm : arms_) arm.model.weights.assign(kDim, 0.0);  // w = b = 0
  }

  ArmIndex select(const FeatureVector& x, Rng& rng) {
    if (rng.bernoulli(epsilon_)) return rng.index(arms_.size());
    return recommend(x);
  }

  ArmIndex recommend(const FeatureVector& x) const {
    std::vector<double> predictions;
    for (const Arm& arm : arms_) predictions.push_back(arm.model.predict(x));
    return tolerant_select(predictions, costs_, config_.tolerance).arm;
  }

  void observe(ArmIndex index, const FeatureVector& x, double runtime) {
    Arm& arm = arms_[index];
    arm.xs.push_back(x);
    arm.ys.push_back(runtime);
    linalg::Matrix design(arm.xs.size(), kDim);
    for (std::size_t r = 0; r < arm.xs.size(); ++r) {
      for (std::size_t c = 0; c < kDim; ++c) design(r, c) = arm.xs[r][c];
    }
    arm.model = linalg::fit_linear(design, arm.ys, config_.fit).model;
    epsilon_ *= config_.decay;
  }

  double predict(ArmIndex arm, const FeatureVector& x) const {
    return arms_[arm].model.predict(x);
  }
  std::size_t count(ArmIndex arm) const { return arms_[arm].ys.size(); }
  double epsilon() const { return epsilon_; }

 private:
  struct Arm {
    std::vector<FeatureVector> xs;
    std::vector<double> ys;
    linalg::LinearModel model;
  };

  EpsilonGreedyConfig config_;
  double epsilon_;
  std::vector<double> costs_;
  std::vector<Arm> arms_;
};

class IncrementalEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalEquivalence, PredictionsMatchBatchWithin1e9) {
  const std::uint64_t seed = GetParam();
  // Shared explicit ridge: both learners solve (X^T X + 1e-6 I) theta =
  // X^T y, the incremental one recursively, the reference from scratch per
  // observation. 1e-6 keeps the warm-up (n < d+1) solves conditioned to
  // ~1e6, so the recursion's remembered warm-up rounding stays ~1e-10;
  // with a 1e-8 prior it sits right at the 1e-9 boundary.
  EpsilonGreedyConfig config;
  config.fit.ridge = 1e-6;

  const hw::HardwareCatalog catalog = test_catalog();
  DecayingEpsilonGreedy incremental(catalog, kDim, config);
  BatchRefitReference exact(catalog, config);

  // Identically seeded selection RNGs: as long as the two learners keep
  // agreeing, their exploration streams stay in lockstep too.
  Rng rng_incremental(seed * 31 + 1);
  Rng rng_exact(seed * 31 + 1);

  const auto stream = make_stream(seed);
  for (std::size_t t = 0; t < kSteps; ++t) {
    const auto& [x, runtime] = stream[t];
    const ArmIndex chosen = incremental.select(x, rng_incremental);
    ASSERT_EQ(chosen, exact.select(x, rng_exact)) << "step " << t;

    incremental.observe(chosen, x, runtime);
    exact.observe(chosen, x, runtime);

    for (ArmIndex arm = 0; arm < catalog.size(); ++arm) {
      // Warm-up solves are ill-conditioned (cond ~ ||x||^2 / ridge) and
      // both learners round differently there, so the strict bound kicks
      // in once the arm's Gram matrix is comfortably determined; measured
      // determined-phase disagreement is ~3e-11 (30x margin).
      const bool determined = incremental.arm_model(arm).n_observations() >= 30;
      ASSERT_NEAR(incremental.predict(arm, x), exact.predict(arm, x),
                  determined ? 1e-9 : 1e-6)
          << "step " << t << " arm " << arm;
    }
    ASSERT_EQ(incremental.recommend(x), exact.recommend(x)) << "step " << t;
  }

  for (ArmIndex arm = 0; arm < catalog.size(); ++arm) {
    EXPECT_EQ(incremental.arm_model(arm).n_observations(), exact.count(arm));
  }
  EXPECT_DOUBLE_EQ(incremental.epsilon(), exact.epsilon());
}

TEST_P(IncrementalEquivalence, ChoicesMatchBatchWithDefaultOptions) {
  const std::uint64_t seed = GetParam();
  const EpsilonGreedyConfig config;  // default fit: the reference runs plain QR

  const hw::HardwareCatalog catalog = test_catalog();
  DecayingEpsilonGreedy incremental(catalog, kDim, config);
  BatchRefitReference exact(catalog, config);
  Rng rng_incremental(seed * 131 + 5);
  Rng rng_exact(seed * 131 + 5);

  const auto stream = make_stream(seed + 1000);
  for (std::size_t t = 0; t < kSteps; ++t) {
    const auto& [x, runtime] = stream[t];
    const ArmIndex chosen = incremental.select(x, rng_incremental);
    ASSERT_EQ(chosen, exact.select(x, rng_exact)) << "step " << t;
    incremental.observe(chosen, x, runtime);
    exact.observe(chosen, x, runtime);
    ASSERT_EQ(incremental.recommend(x), exact.recommend(x)) << "step " << t;
    // The 1e-8 prior's bias against the unregularized QR decays as 1/n;
    // it must stay far below anything behavior-relevant.
    for (ArmIndex arm = 0; arm < catalog.size(); ++arm) {
      ASSERT_NEAR(incremental.predict(arm, x), exact.predict(arm, x), 1e-5)
          << "step " << t << " arm " << arm;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Values(1u, 7u, 42u));

}  // namespace
}  // namespace bw::core
