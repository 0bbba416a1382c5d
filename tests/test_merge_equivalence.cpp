// Property tests for cross-model merging via sufficient statistics: fusing
// two independently trained models (RLS::merge / ArmBank::merge_arm /
// BanditWare::merge_from) must reproduce — within 1e-9 — the model that saw
// both observation streams in one pass under the shared ridge prior. Also
// pins the shared-ancestry form (merge with an explicit base) that replica
// sync builds on: repeated merges must never double-count common evidence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/banditware.hpp"
#include "exact_ridge.hpp"
#include "experiments/datasets.hpp"
#include "hardware/catalog.hpp"
#include "linalg/rls.hpp"
#include "serve/bandit_server.hpp"

namespace bw {
namespace {

constexpr double kTol = 1e-9;
/// Shared ridge prior for every model in this suite. 1e-3 keeps the
/// Sherman–Morrison warm-up (P0 = I/ridge) well conditioned, so the
/// *sequential* baseline's remembered warm-up rounding stays ~1e-11 and the
/// 1e-9 bound measures the merge algebra, not the recursion's round-off
/// (same reasoning as tests/test_incremental_equivalence.cpp; with a 1e-6
/// prior the sequential path itself sits ~3e-9 from the exact ridge
/// solution on these streams, drowning the property).
constexpr double kRidge = 1e-3;

struct Stream {
  std::vector<core::FeatureVector> xs;
  std::vector<double> ys;
  std::size_t size() const { return xs.size(); }
};

/// Noisy linear ground truth with features in [0.5, 4] — well-conditioned
/// Gram matrices so the 1e-9 bound is a property of the algebra, not luck.
Stream random_stream(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<double> w(dim);
  for (double& v : w) v = rng.uniform(-2.0, 2.0);
  const double b = rng.uniform(-1.0, 1.0);
  Stream s;
  for (std::size_t i = 0; i < n; ++i) {
    core::FeatureVector x(dim);
    double y = b + 0.05 * rng.normal();
    for (std::size_t j = 0; j < dim; ++j) {
      x[j] = rng.uniform(0.5, 4.0);
      y += w[j] * x[j];
    }
    s.xs.push_back(std::move(x));
    s.ys.push_back(y);
  }
  return s;
}

linalg::RecursiveLeastSquares train_rls(const Stream& s, std::size_t dim,
                                        double forgetting = 1.0) {
  linalg::RecursiveLeastSquares rls(dim, kRidge, forgetting);
  for (std::size_t i = 0; i < s.size(); ++i) rls.update(s.xs[i], s.ys[i]);
  return rls;
}

Stream concat(const Stream& a, const Stream& b) {
  Stream out = a;
  out.xs.insert(out.xs.end(), b.xs.begin(), b.xs.end());
  out.ys.insert(out.ys.end(), b.ys.begin(), b.ys.end());
  return out;
}

void expect_same_predictions(const linalg::RecursiveLeastSquares& got,
                             const linalg::RecursiveLeastSquares& want,
                             std::size_t dim, Rng& rng) {
  for (int probe = 0; probe < 16; ++probe) {
    core::FeatureVector x(dim);
    for (double& v : x) v = rng.uniform(0.0, 5.0);
    EXPECT_NEAR(got.predict(x), want.predict(x), kTol);
  }
}

TEST(RlsMerge, MatchesSingleStreamTrainingAcrossDimensions) {
  for (const std::size_t dim : {1u, 2u, 4u, 8u}) {
    Rng rng(1000 + dim);
    for (int trial = 0; trial < 5; ++trial) {
      const Stream s1 = random_stream(20 + 30 * trial, dim, rng);
      const Stream s2 = random_stream(10 + 45 * trial, dim, rng);
      linalg::RecursiveLeastSquares merged = train_rls(s1, dim);
      const linalg::RecursiveLeastSquares other = train_rls(s2, dim);
      merged.merge(other);
      const linalg::RecursiveLeastSquares reference = train_rls(concat(s1, s2), dim);

      EXPECT_EQ(merged.n_observations(), s1.size() + s2.size());
      for (std::size_t i = 0; i < dim + 1; ++i) {
        EXPECT_NEAR(merged.theta()[i], reference.theta()[i], kTol)
            << "dim=" << dim << " trial=" << trial << " i=" << i;
      }
      expect_same_predictions(merged, reference, dim, rng);
    }
  }
}

TEST(RlsMerge, EmptyAndOneSidedMergesAreExact) {
  const std::size_t dim = 3;
  Rng rng(7);
  const Stream s = random_stream(40, dim, rng);
  const linalg::RecursiveLeastSquares trained = train_rls(s, dim);
  const linalg::RecursiveLeastSquares prior(dim, kRidge);

  // trained ++ empty: untouched (bit-identical, the fast path).
  linalg::RecursiveLeastSquares a = trained;
  a.merge(prior);
  EXPECT_EQ(a.theta(), trained.theta());
  EXPECT_EQ(a.r(), trained.r());
  EXPECT_EQ(a.z(), trained.z());
  EXPECT_EQ(a.n_observations(), trained.n_observations());

  // empty ++ trained: adopts the trained statistics verbatim.
  linalg::RecursiveLeastSquares b(dim, kRidge);
  b.merge(trained);
  EXPECT_EQ(b.theta(), trained.theta());
  EXPECT_EQ(b.n_observations(), trained.n_observations());

  // empty ++ empty: still the prior.
  linalg::RecursiveLeastSquares c(dim, kRidge);
  c.merge(prior);
  EXPECT_EQ(c.n_observations(), 0u);
  EXPECT_NEAR(c.predict(core::FeatureVector(dim, 1.0)), 0.0, kTol);
}

TEST(RlsMerge, BaseMergeNeverDoubleCountsSharedAncestry) {
  // The replica-sync algebra: both models grew from a shared trained base;
  // folding them with that base as the anchor must count the shared prefix
  // once, matching one pass over s0 ++ s1 ++ s2.
  const std::size_t dim = 4;
  Rng rng(21);
  const Stream s0 = random_stream(50, dim, rng);
  const Stream s1 = random_stream(35, dim, rng);
  const Stream s2 = random_stream(60, dim, rng);

  const linalg::RecursiveLeastSquares base = train_rls(s0, dim);
  linalg::RecursiveLeastSquares replica_a = base;
  for (std::size_t i = 0; i < s1.size(); ++i) replica_a.update(s1.xs[i], s1.ys[i]);
  linalg::RecursiveLeastSquares replica_b = base;
  for (std::size_t i = 0; i < s2.size(); ++i) replica_b.update(s2.xs[i], s2.ys[i]);

  linalg::RecursiveLeastSquares fused = base;
  fused.merge(replica_a, &base);
  fused.merge(replica_b, &base);

  const linalg::RecursiveLeastSquares reference =
      train_rls(concat(concat(s0, s1), s2), dim);
  EXPECT_EQ(fused.n_observations(), s0.size() + s1.size() + s2.size());
  for (std::size_t i = 0; i < dim + 1; ++i) {
    EXPECT_NEAR(fused.theta()[i], reference.theta()[i], kTol);
  }
  expect_same_predictions(fused, reference, dim, rng);

  // An idle replica (identical to the base) contributes nothing.
  linalg::RecursiveLeastSquares idle = base;
  linalg::RecursiveLeastSquares fused2 = fused;
  fused2.merge(idle, &base);
  EXPECT_EQ(fused2.n_observations(), fused.n_observations());
  EXPECT_EQ(fused2.theta(), fused.theta());
}

TEST(RlsMerge, DiscountedMergeMatchesCanonicalConcatenation) {
  // Under λ < 1 the fused estimator is defined as the one that saw "self's
  // stream, then other's new slice" in one pass: the observation count is
  // the discount generation, so self's information ages by λ^|s2| during
  // the merge. The 1e-9 bound must hold exactly as in the stationary case.
  const double lambda = 0.95;
  for (const std::size_t dim : {1u, 2u, 4u}) {
    Rng rng(4000 + dim);
    for (int trial = 0; trial < 3; ++trial) {
      const Stream s1 = random_stream(30 + 20 * trial, dim, rng);
      const Stream s2 = random_stream(15 + 25 * trial, dim, rng);
      linalg::RecursiveLeastSquares merged = train_rls(s1, dim, lambda);
      const linalg::RecursiveLeastSquares other = train_rls(s2, dim, lambda);
      merged.merge(other);
      const linalg::RecursiveLeastSquares reference =
          train_rls(concat(s1, s2), dim, lambda);

      EXPECT_EQ(merged.n_observations(), s1.size() + s2.size());
      for (std::size_t i = 0; i < dim + 1; ++i) {
        EXPECT_NEAR(merged.theta()[i], reference.theta()[i], kTol)
            << "dim=" << dim << " trial=" << trial << " i=" << i;
      }
      expect_same_predictions(merged, reference, dim, rng);
    }
  }
}

TEST(RlsMerge, DiscountedBaseMergeNeverDoubleCountsSharedAncestry) {
  // Replica sync under discounting: both replicas grew from a shared base;
  // generation-aligned folding must match one discounted pass over
  // s0 ++ s1 ++ s2, counting the shared prefix once.
  const double lambda = 0.95;
  const std::size_t dim = 3;
  Rng rng(47);
  const Stream s0 = random_stream(40, dim, rng);
  const Stream s1 = random_stream(30, dim, rng);
  const Stream s2 = random_stream(45, dim, rng);

  const linalg::RecursiveLeastSquares base = train_rls(s0, dim, lambda);
  linalg::RecursiveLeastSquares replica_a = base;
  for (std::size_t i = 0; i < s1.size(); ++i) replica_a.update(s1.xs[i], s1.ys[i]);
  linalg::RecursiveLeastSquares replica_b = base;
  for (std::size_t i = 0; i < s2.size(); ++i) replica_b.update(s2.xs[i], s2.ys[i]);

  linalg::RecursiveLeastSquares fused = base;
  fused.merge(replica_a, &base);
  fused.merge(replica_b, &base);

  const linalg::RecursiveLeastSquares reference =
      train_rls(concat(concat(s0, s1), s2), dim, lambda);
  EXPECT_EQ(fused.n_observations(), s0.size() + s1.size() + s2.size());
  for (std::size_t i = 0; i < dim + 1; ++i) {
    EXPECT_NEAR(fused.theta()[i], reference.theta()[i], kTol) << "i=" << i;
  }
  expect_same_predictions(fused, reference, dim, rng);

  // An idle replica still contributes nothing under discounting.
  linalg::RecursiveLeastSquares idle = base;
  linalg::RecursiveLeastSquares fused2 = fused;
  fused2.merge(idle, &base);
  EXPECT_EQ(fused2.n_observations(), fused.n_observations());
  EXPECT_EQ(fused2.theta(), fused.theta());
}

TEST(RlsMerge, RejectsMismatchedForgetting) {
  // Fusing estimators with different discount factors has no exact answer;
  // it must be a hard error like a dim or ridge mismatch.
  linalg::RecursiveLeastSquares a(3, kRidge, 0.95);
  const linalg::RecursiveLeastSquares stationary(3, kRidge);
  const linalg::RecursiveLeastSquares other_lambda(3, kRidge, 0.9);
  EXPECT_THROW(a.merge(stationary), InvalidArgument);
  EXPECT_THROW(a.merge(other_lambda), InvalidArgument);
  const linalg::RecursiveLeastSquares other(3, kRidge, 0.95);
  const linalg::RecursiveLeastSquares bad_base(3, kRidge, 0.9);
  EXPECT_THROW(a.merge(other, &bad_base), InvalidArgument);
}

TEST(RlsMerge, RejectsIncompatibleOperands) {
  linalg::RecursiveLeastSquares a(3, kRidge);
  const linalg::RecursiveLeastSquares wrong_dim(2, kRidge);
  const linalg::RecursiveLeastSquares wrong_ridge(3, 1e-2);
  EXPECT_THROW(a.merge(wrong_dim), InvalidArgument);
  EXPECT_THROW(a.merge(wrong_ridge), InvalidArgument);
  const linalg::RecursiveLeastSquares other(3, kRidge);
  const linalg::RecursiveLeastSquares bad_base(2, kRidge);
  EXPECT_THROW(a.merge(other, &bad_base), InvalidArgument);
}

core::BanditWareConfig shared_ridge_config() {
  core::BanditWareConfig config;
  config.policy.fit.ridge = kRidge;
  return config;
}

/// Shared-ridge config running a specific policy kind, with non-default
/// policy scalars so the merge-compatibility checks have something real to
/// compare.
core::BanditWareConfig policy_config(core::PolicyKind kind) {
  core::BanditWareConfig config = shared_ridge_config();
  config.policy_kind = kind;
  config.alpha = 1.5;
  config.posterior_scale = 1.25;
  return config;
}

constexpr core::PolicyKind kAllKinds[] = {core::PolicyKind::kEpsilonGreedy,
                                          core::PolicyKind::kLinUcb,
                                          core::PolicyKind::kThompson};

/// Feeds a stream into a facade, spreading observations over all arms with
/// a per-arm runtime shift so every arm's model is distinct.
void observe_stream(core::BanditWare& bandit, const Stream& s, std::size_t offset) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto arm = static_cast<core::ArmIndex>((offset + i) % bandit.num_arms());
    bandit.observe(arm, s.xs[i], s.ys[i] + 3.0 * static_cast<double>(arm));
  }
}

TEST(BanditWareMerge, MatchesSingleStreamTraining) {
  const std::size_t dim = 2;
  Rng rng(99);
  const Stream s1 = random_stream(60, dim, rng);
  const Stream s2 = random_stream(45, dim, rng);
  const auto config = shared_ridge_config();
  const std::vector<std::string> features = {"f0", "f1"};

  core::BanditWare merged(hw::ndp_catalog(), features, config);
  core::BanditWare other(hw::ndp_catalog(), features, config);
  core::BanditWare reference(hw::ndp_catalog(), features, config);
  observe_stream(merged, s1, 0);
  observe_stream(other, s2, s1.size());
  observe_stream(reference, s1, 0);
  observe_stream(reference, s2, s1.size());

  merged.merge_from(other);
  EXPECT_EQ(merged.num_observations(), reference.num_observations());
  EXPECT_NEAR(merged.epsilon(), reference.epsilon(), 1e-12);
  for (int probe = 0; probe < 8; ++probe) {
    core::FeatureVector x(dim);
    for (double& v : x) v = rng.uniform(0.0, 5.0);
    const auto got = merged.predictions(x);
    const auto want = reference.predictions(x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t arm = 0; arm < got.size(); ++arm) {
      EXPECT_NEAR(got[arm], want[arm], kTol) << "arm=" << arm;
    }
    EXPECT_EQ(merged.recommend_index(x), reference.recommend_index(x));
  }
}

TEST(BanditWareMerge, MatchesSingleStreamTrainingAcrossPoliciesAndDims) {
  // The policy axis rides on the same information-form statistics, so the
  // merge algebra must stay exact to 1e-9 whichever policy runs — across
  // every dimension the RLS-level suite covers.
  for (const core::PolicyKind kind : kAllKinds) {
    for (const std::size_t dim : {1u, 2u, 4u, 8u}) {
      Rng rng(3000 + 10 * dim + static_cast<std::size_t>(kind));
      const Stream s1 = random_stream(40 + 5 * dim, dim, rng);
      const Stream s2 = random_stream(25 + 9 * dim, dim, rng);
      const auto config = policy_config(kind);
      std::vector<std::string> features;
      for (std::size_t j = 0; j < dim; ++j) {
        features.push_back(std::string("f").append(std::to_string(j)));
      }

      core::BanditWare merged(hw::ndp_catalog(), features, config);
      core::BanditWare other(hw::ndp_catalog(), features, config);
      core::BanditWare reference(hw::ndp_catalog(), features, config);
      observe_stream(merged, s1, 0);
      observe_stream(other, s2, s1.size());
      observe_stream(reference, s1, 0);
      observe_stream(reference, s2, s1.size());

      merged.merge_from(other);
      EXPECT_EQ(merged.num_observations(), reference.num_observations())
          << "kind=" << core::to_string(kind) << " dim=" << dim;
      for (int probe = 0; probe < 8; ++probe) {
        core::FeatureVector x(dim);
        for (double& v : x) v = rng.uniform(0.0, 5.0);
        const auto got = merged.predictions(x);
        const auto want = reference.predictions(x);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t arm = 0; arm < got.size(); ++arm) {
          EXPECT_NEAR(got[arm], want[arm], kTol)
              << "kind=" << core::to_string(kind) << " dim=" << dim << " arm=" << arm;
        }
        EXPECT_EQ(merged.recommend_index(x), reference.recommend_index(x))
            << "kind=" << core::to_string(kind) << " dim=" << dim;
      }
    }
  }
}

TEST(BanditWareMerge, CrossPolicyMergeIsRejected) {
  // All three policies share the arm statistics, which makes a cross-policy
  // fusion *numerically* possible — and semantically meaningless. It must
  // be a hard InvalidArgument, not a silent blend.
  const std::vector<std::string> features = {"f0", "f1"};
  for (const core::PolicyKind kind_a : kAllKinds) {
    for (const core::PolicyKind kind_b : kAllKinds) {
      if (kind_a == kind_b) continue;
      core::BanditWare a(hw::ndp_catalog(), features, policy_config(kind_a));
      const core::BanditWare b(hw::ndp_catalog(), features, policy_config(kind_b));
      EXPECT_THROW(a.merge_from(b), InvalidArgument)
          << core::to_string(kind_a) << " <- " << core::to_string(kind_b);
    }
  }
  // Matching kinds with mismatched policy scalars must also be rejected:
  // the scalar is part of the policy's identity at merge time.
  auto alpha_a = policy_config(core::PolicyKind::kLinUcb);
  auto alpha_b = alpha_a;
  alpha_b.alpha = 2.5;
  core::BanditWare ucb_a(hw::ndp_catalog(), features, alpha_a);
  const core::BanditWare ucb_b(hw::ndp_catalog(), features, alpha_b);
  EXPECT_THROW(ucb_a.merge_from(ucb_b), InvalidArgument);

  auto scale_a = policy_config(core::PolicyKind::kThompson);
  auto scale_b = scale_a;
  scale_b.posterior_scale = 3.0;
  core::BanditWare th_a(hw::ndp_catalog(), features, scale_a);
  const core::BanditWare th_b(hw::ndp_catalog(), features, scale_b);
  EXPECT_THROW(th_a.merge_from(th_b), InvalidArgument);
}

TEST(BanditWareMerge, BaseMergeNeverDoubleCountsAcrossPolicies) {
  // The replica-sync form (merge with a shared ancestor) is what
  // BanditServer::sync_shards runs; it must stay exact for every policy.
  const std::size_t dim = 2;
  const std::vector<std::string> features = {"f0", "f1"};
  for (const core::PolicyKind kind : kAllKinds) {
    Rng rng(71 + static_cast<std::size_t>(kind));
    const Stream s0 = random_stream(40, dim, rng);
    const Stream s1 = random_stream(30, dim, rng);
    const Stream s2 = random_stream(35, dim, rng);
    const auto config = policy_config(kind);

    core::BanditWare base(hw::ndp_catalog(), features, config);
    observe_stream(base, s0, 0);
    core::BanditWare replica_a = base;
    observe_stream(replica_a, s1, s0.size());
    core::BanditWare replica_b = base;
    observe_stream(replica_b, s2, s0.size() + s1.size());

    core::BanditWare fused = base;
    fused.merge_from(replica_a, &base);
    fused.merge_from(replica_b, &base);

    core::BanditWare reference(hw::ndp_catalog(), features, config);
    observe_stream(reference, s0, 0);
    observe_stream(reference, s1, s0.size());
    observe_stream(reference, s2, s0.size() + s1.size());

    EXPECT_EQ(fused.num_observations(), reference.num_observations())
        << core::to_string(kind);
    for (int probe = 0; probe < 8; ++probe) {
      core::FeatureVector x(dim);
      for (double& v : x) v = rng.uniform(0.0, 5.0);
      const auto got = fused.predictions(x);
      const auto want = reference.predictions(x);
      for (std::size_t arm = 0; arm < got.size(); ++arm) {
        EXPECT_NEAR(got[arm], want[arm], kTol)
            << core::to_string(kind) << " arm=" << arm;
      }
    }
  }
}

TEST(BanditWareMerge, DiscountedMergeStaysExactAcrossPolicies) {
  // The generation-aligned discount algebra must survive the facade: a
  // λ < 1 merge matches the model that saw both streams in one pass, for
  // every policy, to the same 1e-9 bound as the stationary suite.
  const std::size_t dim = 2;
  const std::vector<std::string> features = {"f0", "f1"};
  for (const core::PolicyKind kind : kAllKinds) {
    Rng rng(8100 + static_cast<std::size_t>(kind));
    const Stream s1 = random_stream(45, dim, rng);
    const Stream s2 = random_stream(35, dim, rng);
    auto config = policy_config(kind);
    config.policy.fit.forgetting = 0.95;

    core::BanditWare merged(hw::ndp_catalog(), features, config);
    core::BanditWare other(hw::ndp_catalog(), features, config);
    core::BanditWare reference(hw::ndp_catalog(), features, config);
    observe_stream(merged, s1, 0);
    observe_stream(other, s2, s1.size());
    observe_stream(reference, s1, 0);
    observe_stream(reference, s2, s1.size());

    merged.merge_from(other);
    EXPECT_EQ(merged.num_observations(), reference.num_observations())
        << core::to_string(kind);
    for (int probe = 0; probe < 8; ++probe) {
      core::FeatureVector x(dim);
      for (double& v : x) v = rng.uniform(0.0, 5.0);
      const auto got = merged.predictions(x);
      const auto want = reference.predictions(x);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t arm = 0; arm < got.size(); ++arm) {
        EXPECT_NEAR(got[arm], want[arm], kTol)
            << core::to_string(kind) << " arm=" << arm;
      }
    }
  }
}

TEST(BanditWareMerge, MismatchedForgettingIsRejected) {
  const std::vector<std::string> features = {"f0", "f1"};
  auto discounted = shared_ridge_config();
  discounted.policy.fit.forgetting = 0.95;
  core::BanditWare a(hw::ndp_catalog(), features, discounted);
  const core::BanditWare stationary(hw::ndp_catalog(), features,
                                    shared_ridge_config());
  EXPECT_THROW(a.merge_from(stationary), InvalidArgument);
  auto other_lambda = shared_ridge_config();
  other_lambda.policy.fit.forgetting = 0.9;
  const core::BanditWare b(hw::ndp_catalog(), features, other_lambda);
  EXPECT_THROW(a.merge_from(b), InvalidArgument);
}

TEST(BanditWareMerge, OnlyAModelOfTheSameShapeMerges) {
  // merge_from fuses arm i with arm i, so a catalog that differs at all —
  // disjoint, overlapping, or the same specs in another order — and a
  // different tolerance are rejected, as `other` and as `base`, before
  // anything changes.
  const std::size_t dim = 2;
  Rng rng(5);
  const Stream s1 = random_stream(50, dim, rng);
  const Stream s2 = random_stream(40, dim, rng);
  const auto config = shared_ridge_config();
  const std::vector<std::string> features = {"f0", "f1"};

  const hw::HardwareCatalog full = hw::ndp_catalog();  // H0, H1, H2
  const auto catalog_of = [&full](std::vector<std::size_t> arms) {
    hw::HardwareCatalog catalog;
    for (const std::size_t arm : arms) catalog.add(full[arm]);
    return catalog;
  };
  auto tolerant = config;
  tolerant.policy.tolerance.ratio = 0.05;

  core::BanditWare self(catalog_of({0, 1}), features, config);
  observe_stream(self, s1, 0);
  // Grown from self and holding more evidence on every arm than any
  // mismatched model below, so only the shape rule can reject it as base.
  core::BanditWare peer = self;
  observe_stream(peer, s2, 0);
  const std::string before = self.save_state();
  const std::vector<std::pair<std::string, core::BanditWare>> mismatched = {
      {"disjoint catalog", core::BanditWare(catalog_of({2}), features, config)},
      {"overlapping catalog", core::BanditWare(catalog_of({1, 2}), features, config)},
      {"reordered catalog", core::BanditWare(catalog_of({1, 0}), features, config)},
      {"other tolerance", core::BanditWare(catalog_of({0, 1}), features, tolerant)},
  };
  for (auto [what, other] : mismatched) {
    observe_stream(other, s2, 0);
    EXPECT_THROW(self.merge_from(other), InvalidArgument) << what;
    EXPECT_EQ(self.save_state(), before) << what;
    EXPECT_THROW(self.merge_from(peer, &other), InvalidArgument) << what << " as base";
    EXPECT_EQ(self.save_state(), before) << what << " as base";
  }
}

TEST(BanditWareMerge, RejectsIncompatibleInstances) {
  const std::vector<std::string> features = {"f0", "f1"};
  core::BanditWare a(hw::ndp_catalog(), features, shared_ridge_config());

  const core::BanditWare wrong_features(hw::ndp_catalog(), {"g0", "g1"},
                                        shared_ridge_config());
  EXPECT_THROW(a.merge_from(wrong_features), InvalidArgument);

  auto other_ridge = shared_ridge_config();
  other_ridge.policy.fit.ridge = 1e-2;
  const core::BanditWare wrong_ridge(hw::ndp_catalog(), features, other_ridge);
  EXPECT_THROW(a.merge_from(wrong_ridge), InvalidArgument);

  auto other_decay = shared_ridge_config();
  other_decay.policy.decay = 0.5;
  const core::BanditWare wrong_decay(hw::ndp_catalog(), features, other_decay);
  EXPECT_THROW(a.merge_from(wrong_decay), InvalidArgument);

  // Same arm name with a different spec must be a hard error, not a guess.
  hw::HardwareCatalog conflicting;
  conflicting.add({"H0", 64, 512.0, 4});
  conflicting.add({"H1", 3, 24.0, 0});
  conflicting.add({"H2", 4, 16.0, 0});
  const core::BanditWare wrong_spec(conflicting, features, shared_ridge_config());
  EXPECT_THROW(a.merge_from(wrong_spec), InvalidArgument);
}

TEST(BanditWareMerge, MergedStateSurvivesSnapshotRoundTrip) {
  // The fused model must serialize like any other: save -> load -> save is
  // byte-identical and predictions are preserved.
  const std::size_t dim = 2;
  Rng rng(3);
  const Stream s1 = random_stream(30, dim, rng);
  const Stream s2 = random_stream(25, dim, rng);
  const std::vector<std::string> features = {"f0", "f1"};
  core::BanditWare merged(hw::ndp_catalog(), features, shared_ridge_config());
  core::BanditWare other(hw::ndp_catalog(), features, shared_ridge_config());
  observe_stream(merged, s1, 0);
  observe_stream(other, s2, 1);
  merged.merge_from(other);

  const std::string saved = merged.save_state();
  const core::BanditWare restored = core::BanditWare::load_state(saved);
  EXPECT_EQ(restored.save_state(), saved);
  const core::FeatureVector x = {2.0, 3.0};
  EXPECT_EQ(restored.predictions(x), merged.predictions(x));
}

// ---- the paper's matmul features in raw units ----------------------------
// Exp. 3's table as the paper measures it: size up to 12 500 next to
// sparsity in [0, 1] and value bounds of ±100, under the default prior
// (ridge 1e-8). The Gram matrix spans sixteen orders of magnitude, which
// is what the evidence's square-root form is for.

/// `value` in scientific notation, for RecordProperty.
std::string scientific(double value) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(2) << value;
  return os.str();
}

/// Largest relative gap between `predict(arm, x)` and the exact ridge
/// solution of each arm's stream, over the table's contexts.
template <typename Predict>
double worst_relative_gap(const core::RunTable& table,
                          const std::vector<testing::ExactRidge>& exact,
                          std::size_t stride, Predict predict) {
  double worst = 0.0;
  for (core::ArmIndex arm = 0; arm < table.num_arms(); ++arm) {
    const std::vector<long double> theta = exact[arm].theta();
    for (std::size_t g = 0; g < table.num_groups(); g += stride) {
      const core::FeatureVector x = table.features_of(g);
      const long double want = testing::ExactRidge::predict(theta, x);
      const long double gap = std::fabs(predict(arm, x) - want) / std::fabs(want);
      worst = std::max(worst, static_cast<double>(gap));
    }
  }
  return worst;
}

TEST(RawMatmulFeatures, NeverSyncedArmsTrackTheExactRidgeSolution) {
  // The size-only view of Figs. 9-12, fed row by row to one learner; after
  // every 50 observations each arm's predictions sit within 1e-9 of the
  // exact solution of the rows it has seen.
  const core::RunTable table = exp::build_matmul_dataset(1.0).size_only;
  core::BanditWare bandit(table.catalog(), table.feature_names());
  std::vector<testing::ExactRidge> exact(table.num_arms(),
                                         testing::ExactRidge(1, 1e-8));
  double worst = 0.0;
  for (std::size_t g = 0; g < table.num_groups(); ++g) {
    const core::FeatureVector x = table.features_of(g);
    for (core::ArmIndex arm = 0; arm < table.num_arms(); ++arm) {
      bandit.observe(arm, x, table.runtime(g, arm));
      exact[arm].add(x, table.runtime(g, arm));
    }
    if ((g + 1) % 50 != 0 && g + 1 != table.num_groups()) continue;
    const auto predict = [&](core::ArmIndex arm, const core::FeatureVector& x) {
      return bandit.predictions(x)[arm];
    };
    worst = std::max(worst, worst_relative_gap(table, exact, 97, predict));
  }
  RecordProperty("worst_relative_gap", scientific(worst));
  EXPECT_LT(worst, 1e-9);
}

TEST(RawMatmulFeatures, HundredsOfBaseSubtractingSyncsStayExact) {
  // All four raw features through a 4-shard round-robin engine that syncs
  // after every batch of 6 rows (420 base-subtracting syncs on the 2520-row
  // table): no sync may throw, and the fused model must match the exact
  // ridge solution of the whole stream.
  for (const std::uint64_t seed : {7003u, 1u, 2u}) {
    const core::RunTable table = exp::build_matmul_dataset(1.0, seed).table;
    serve::BanditServerConfig config;
    config.num_shards = 4;
    config.sharding = serve::ShardingPolicy::kRoundRobin;
    config.sync_every = 1;
    serve::BanditServer server(table.catalog(), table.feature_names(), config);
    std::vector<testing::ExactRidge> exact(
        table.num_arms(), testing::ExactRidge(table.num_features(), 1e-8));
    constexpr std::size_t kRowsPerBatch = 6;
    for (std::size_t g0 = 0; g0 < table.num_groups(); g0 += kRowsPerBatch) {
      std::vector<serve::ServeObservation> batch;
      const std::size_t end = std::min(g0 + kRowsPerBatch, table.num_groups());
      for (std::size_t g = g0; g < end; ++g) {
        const core::FeatureVector x = table.features_of(g);
        for (core::ArmIndex arm = 0; arm < table.num_arms(); ++arm) {
          batch.push_back({g % config.num_shards, arm, x, table.runtime(g, arm)});
          exact[arm].add(x, table.runtime(g, arm));
        }
      }
      ASSERT_NO_THROW(server.observe_batch(batch)) << "seed " << seed << " row " << g0;
    }
    EXPECT_GE(server.sync_count(), 400u);
    const double worst = worst_relative_gap(
        table, exact, 13, [&](core::ArmIndex arm, const core::FeatureVector& x) {
          return server.predictions(0, x)[arm];
        });
    RecordProperty("worst_relative_gap_seed_" + std::to_string(seed), scientific(worst));
    EXPECT_LT(worst, 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bw
