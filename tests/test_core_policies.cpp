// Tests for the bandit policies (core/arm_bank, epsilon_greedy, linucb,
// thompson, baselines).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "common/error.hpp"
#include "core/arm_bank.hpp"
#include "core/baselines.hpp"
#include "core/epsilon_greedy.hpp"
#include "core/linucb.hpp"
#include "core/thompson.hpp"

namespace bw::core {
namespace {

hw::HardwareCatalog three_arms() {
  return hw::HardwareCatalog({{"H0", 2, 16.0}, {"H1", 3, 24.0}, {"H2", 4, 16.0}});
}

// ---- ArmBank: one RLS arm per hardware arm ------------------------------------

/// A one-arm bank over `dim` features with the default fit.
ArmBank one_arm(std::size_t dim) {
  return ArmBank(hw::HardwareCatalog({{"H0", 2, 16.0}}), dim, {}, {}, {});
}

TEST(ArmBank, StartsAtPaperInit) {
  const ArmBank bank = one_arm(2);
  EXPECT_EQ(bank.predict(0, {5.0, 7.0}), 0.0);  // w=0, b=0
  EXPECT_EQ(bank.arm(0).n_observations(), 0u);
}

TEST(ArmBank, LearnsExactLineFromTwoPoints) {
  ArmBank bank = one_arm(1);
  bank.observe(0, {1.0}, 10.0);
  bank.observe(0, {2.0}, 20.0);
  EXPECT_NEAR(bank.predict(0, {3.0}), 30.0, 1e-5);
}

TEST(ArmBank, SingleObservationPredictsNearTarget) {
  ArmBank bank = one_arm(1);
  bank.observe(0, {4.0}, 100.0);
  EXPECT_NEAR(bank.predict(0, {4.0}), 100.0, 0.1);
}

TEST(ArmBank, ResetRestoresZeroState) {
  ArmBank bank = one_arm(1);
  bank.observe(0, {1.0}, 5.0);
  bank.reset();
  EXPECT_EQ(bank.arm(0).n_observations(), 0u);
  EXPECT_EQ(bank.predict(0, {1.0}), 0.0);
}

TEST(ArmBank, RejectsBadInput) {
  ArmBank bank = one_arm(2);
  EXPECT_THROW(bank.observe(0, {1.0}, 1.0), InvalidArgument);
  EXPECT_THROW(bank.observe(0, {1.0, std::nan("")}, 1.0), InvalidArgument);
  EXPECT_THROW(bank.observe(0, {1.0, 2.0}, INFINITY), InvalidArgument);
  EXPECT_THROW(one_arm(0), InvalidArgument);
}

// ---- DecayingEpsilonGreedy -----------------------------------------------------

TEST(EpsilonGreedy, EpsilonDecaysPerObservation) {
  EpsilonGreedyConfig config;
  config.initial_epsilon = 1.0;
  config.decay = 0.9;
  DecayingEpsilonGreedy policy(three_arms(), 1, config);
  EXPECT_DOUBLE_EQ(policy.epsilon(), 1.0);
  policy.observe(0, {1.0}, 10.0);
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.9);
  policy.observe(1, {1.0}, 10.0);
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.81);
}

TEST(EpsilonGreedy, FullExplorationIsUniform) {
  EpsilonGreedyConfig config;
  config.initial_epsilon = 1.0;
  config.decay = 1.0;  // never decays
  DecayingEpsilonGreedy policy(three_arms(), 1, config);
  Rng rng(1);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) ++counts[policy.select({1.0}, rng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 120);
}

TEST(EpsilonGreedy, ZeroEpsilonIsGreedy) {
  EpsilonGreedyConfig config;
  config.initial_epsilon = 0.0;
  DecayingEpsilonGreedy policy(three_arms(), 1, config);
  // Train arm 2 to be clearly fastest, others slow.
  for (double x : {1.0, 2.0}) {
    policy.observe(0, {x}, 100.0 * x);
    policy.observe(1, {x}, 90.0 * x);
    policy.observe(2, {x}, 10.0 * x);
  }
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(policy.select({3.0}, rng), 2u);
    EXPECT_FALSE(policy.last_was_exploration());
  }
}

TEST(EpsilonGreedy, UntrainedRecommendIsMostEfficientArm) {
  DecayingEpsilonGreedy policy(three_arms(), 1, {});
  // All predictions 0 -> tolerant selection picks the cheapest arm (H0).
  EXPECT_EQ(policy.recommend({1.0}), 0u);
}

TEST(EpsilonGreedy, ToleranceSelectsEfficientHardware) {
  EpsilonGreedyConfig config;
  config.initial_epsilon = 0.0;
  config.tolerance.seconds = 25.0;
  DecayingEpsilonGreedy policy(three_arms(), 1, config);
  // H2 fastest at 100, H0 within 25 s at 115 and more efficient.
  for (double x : {1.0, 2.0, 3.0}) {
    policy.observe(0, {x}, 115.0);
    policy.observe(1, {x}, 160.0);
    policy.observe(2, {x}, 100.0);
  }
  EXPECT_EQ(policy.recommend({2.0}), 0u);
}

TEST(EpsilonGreedy, PredictAllMatchesPerArmPredict) {
  DecayingEpsilonGreedy policy(three_arms(), 1, {});
  policy.observe(1, {1.0}, 42.0);
  const auto all = policy.predict_all({1.0});
  ASSERT_EQ(all.size(), 3u);
  for (ArmIndex arm = 0; arm < 3; ++arm) {
    EXPECT_DOUBLE_EQ(all[arm], policy.predict(arm, {1.0}));
  }
}

TEST(EpsilonGreedy, SetEpsilonClamps) {
  DecayingEpsilonGreedy policy(three_arms(), 1, {});
  policy.set_epsilon(2.0);
  EXPECT_DOUBLE_EQ(policy.epsilon(), 1.0);
  policy.set_epsilon(-1.0);
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.0);
}

TEST(EpsilonGreedy, ResetRestoresEpsilonAndModels) {
  EpsilonGreedyConfig config;
  config.initial_epsilon = 0.7;
  DecayingEpsilonGreedy policy(three_arms(), 1, config);
  policy.observe(0, {1.0}, 5.0);
  policy.reset();
  EXPECT_DOUBLE_EQ(policy.epsilon(), 0.7);
  EXPECT_EQ(policy.arm_model(0).n_observations(), 0u);
}

TEST(EpsilonGreedy, RejectsBadConfigAndArms) {
  EpsilonGreedyConfig config;
  config.initial_epsilon = 1.5;
  EXPECT_THROW(DecayingEpsilonGreedy(three_arms(), 1, config), InvalidArgument);
  config.initial_epsilon = 0.5;
  config.decay = 0.0;
  EXPECT_THROW(DecayingEpsilonGreedy(three_arms(), 1, config), InvalidArgument);
  EXPECT_THROW(DecayingEpsilonGreedy(hw::HardwareCatalog{}, 1, {}), InvalidArgument);
  DecayingEpsilonGreedy policy(three_arms(), 1, {});
  EXPECT_THROW(policy.observe(9, {1.0}, 1.0), InvalidArgument);
  EXPECT_THROW(policy.predict(9, {1.0}), InvalidArgument);
}

// ---- LinUCB ---------------------------------------------------------------------

TEST(LinUcb, ExploresUnseenArmsFirst) {
  LinUcbConfig config;
  config.alpha = 2.0;
  LinUcb policy(three_arms(), 1, config);
  Rng rng(3);
  std::vector<bool> seen(3, false);
  for (int i = 0; i < 3; ++i) {
    const ArmIndex arm = policy.select({1.0}, rng);
    seen[arm] = true;
    policy.observe(arm, {1.0}, 50.0);
  }
  // Wide uncertainty on unplayed arms pulls them in quickly.
  EXPECT_TRUE(seen[0] || seen[1] || seen[2]);
}

TEST(LinUcb, ConvergesToBestArmOnCleanData) {
  LinUcbConfig config;
  config.alpha = 1.0;
  LinUcb policy(three_arms(), 1, config);
  Rng rng(4);
  // Arm 1 always fastest.
  for (int round = 0; round < 60; ++round) {
    const double x = 1.0 + (round % 5);
    const ArmIndex arm = policy.select({x}, rng);
    const double runtime = (arm == 1) ? 10.0 * x : 50.0 * x;
    policy.observe(arm, {x}, runtime);
  }
  EXPECT_EQ(policy.recommend({3.0}), 1u);
}

TEST(LinUcb, LcbIsBelowMean) {
  LinUcbConfig config;
  config.alpha = 1.0;
  LinUcb policy(three_arms(), 1, config);
  policy.observe(0, {1.0}, 20.0);
  EXPECT_LT(policy.lcb(0, {1.0}), policy.predict(0, {1.0}));
}

TEST(LinUcb, ZeroAlphaIsGreedyOnMeans) {
  LinUcbConfig config;
  config.alpha = 0.0;
  LinUcb policy(three_arms(), 1, config);
  policy.observe(0, {1.0}, 5.0);
  policy.observe(1, {1.0}, 50.0);
  policy.observe(2, {1.0}, 50.0);
  Rng rng(5);
  EXPECT_EQ(policy.select({1.0}, rng), 0u);
}

TEST(LinUcb, RejectsBadConfig) {
  LinUcbConfig config;
  for (const double bad : {-1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    config.alpha = bad;
    EXPECT_THROW(LinUcb(three_arms(), 1, config), InvalidArgument) << bad;
  }
}

// ---- Thompson -------------------------------------------------------------------

TEST(Thompson, ConvergesToBestArmOnCleanData) {
  ThompsonConfig config;
  LinearThompson policy(three_arms(), 1, config);
  Rng rng(6);
  for (int round = 0; round < 80; ++round) {
    const double x = 1.0 + (round % 4);
    const ArmIndex arm = policy.select({x}, rng);
    const double runtime = (arm == 2) ? 5.0 * x : 40.0 * x;
    policy.observe(arm, {x}, runtime);
  }
  EXPECT_EQ(policy.recommend({2.0}), 2u);
}

TEST(Thompson, SamplesSpreadWhenUncertain) {
  LinearThompson policy(three_arms(), 1, {});
  Rng rng(7);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 300; ++i) ++counts[policy.select({1.0}, rng)];
  // With no data every arm keeps substantial posterior mass.
  for (int c : counts) EXPECT_GT(c, 30);
}

TEST(Thompson, RejectsBadConfig) {
  ThompsonConfig config;
  for (const double bad : {0.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    config.posterior_scale = bad;
    EXPECT_THROW(LinearThompson(three_arms(), 1, config), InvalidArgument) << bad;
  }
}

// ---- non-contextual baselines -----------------------------------------------------

TEST(Ucb1, PlaysEveryArmOnceFirst) {
  Ucb1 policy(4);
  Rng rng(8);
  std::vector<bool> played(4, false);
  for (int i = 0; i < 4; ++i) {
    const ArmIndex arm = policy.select({}, rng);
    EXPECT_FALSE(played[arm]);
    played[arm] = true;
    policy.observe(arm, {}, 10.0);
  }
}

TEST(Ucb1, ConvergesToLowestMean) {
  Ucb1 policy(3, 0.5);
  Rng rng(9);
  for (int round = 0; round < 200; ++round) {
    const ArmIndex arm = policy.select({}, rng);
    policy.observe(arm, {}, arm == 1 ? 5.0 : 20.0);
  }
  EXPECT_EQ(policy.recommend({}), 1u);
}

TEST(Ucb1, RecommendPrefersPlayedArms) {
  Ucb1 policy(3);
  policy.observe(2, {}, 10.0);
  EXPECT_EQ(policy.recommend({}), 2u);  // unplayed means are unknown, not 0
}

TEST(MeanEpsilonGreedy, TracksPerArmMeans) {
  MeanEpsilonGreedy policy(2, 0.0);
  policy.observe(0, {}, 10.0);
  policy.observe(0, {}, 20.0);
  policy.observe(1, {}, 12.0);
  EXPECT_DOUBLE_EQ(policy.predict(0, {}), 15.0);
  EXPECT_EQ(policy.recommend({}), 1u);
}

TEST(MeanEpsilonGreedy, RecommendExploresUnplayedArmsFirst) {
  MeanEpsilonGreedy policy(3, 0.0);
  policy.observe(0, {}, 1.0);
  EXPECT_EQ(policy.recommend({}), 1u);  // first unplayed arm
}

TEST(RandomPolicy, SelectIsUniform) {
  RandomPolicy policy(4);
  Rng rng(10);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[policy.select({}, rng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 130);
}

TEST(RandomPolicy, RecommendCyclesDeterministically) {
  RandomPolicy policy(3);
  EXPECT_EQ(policy.recommend({}), 0u);
  EXPECT_EQ(policy.recommend({}), 1u);
  EXPECT_EQ(policy.recommend({}), 2u);
  EXPECT_EQ(policy.recommend({}), 0u);
}

TEST(OraclePolicy, DelegatesToBestArmFunction) {
  OraclePolicy policy(3, [](const FeatureVector& x) {
    return x[0] > 0.5 ? ArmIndex{2} : ArmIndex{0};
  });
  Rng rng(11);
  EXPECT_EQ(policy.select({0.9}, rng), 2u);
  EXPECT_EQ(policy.recommend({0.1}), 0u);
}

TEST(OraclePolicy, ValidatesReturnedArm) {
  OraclePolicy policy(2, [](const FeatureVector&) { return ArmIndex{7}; });
  EXPECT_THROW(policy.recommend({1.0}), InvalidArgument);
  EXPECT_THROW(OraclePolicy(0, nullptr), InvalidArgument);
}

// Property: exploration frequency tracks epsilon for the decaying policy.
class ExplorationFrequency : public ::testing::TestWithParam<double> {};

TEST_P(ExplorationFrequency, MatchesEpsilon) {
  EpsilonGreedyConfig config;
  config.initial_epsilon = GetParam();
  config.decay = 1.0;
  DecayingEpsilonGreedy policy(three_arms(), 1, config);
  Rng rng(12);
  int explored = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    policy.select({1.0}, rng);
    explored += policy.last_was_exploration();
  }
  EXPECT_NEAR(static_cast<double>(explored) / n, GetParam(), 0.03);
}

INSTANTIATE_TEST_SUITE_P(Rates, ExplorationFrequency,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace bw::core
