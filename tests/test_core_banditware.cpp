// Tests for the BanditWare facade (core/banditware), including state
// snapshots.

#include "core/banditware.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace bw::core {
namespace {

BanditWare make_bandit(BanditWareConfig config = {}) {
  return BanditWare(hw::ndp_catalog(), {"num_tasks", "area"}, config);
}

TEST(BanditWare, ConstructionExposesCatalogAndFeatures) {
  const BanditWare bandit = make_bandit();
  EXPECT_EQ(bandit.num_arms(), 3u);
  EXPECT_EQ(bandit.feature_names().size(), 2u);
  EXPECT_EQ(bandit.num_observations(), 0u);
  EXPECT_THROW(BanditWare(hw::ndp_catalog(), {}), InvalidArgument);
}

TEST(BanditWare, NextReturnsValidDecision) {
  BanditWare bandit = make_bandit();
  Rng rng(1);
  const auto decision = bandit.next({100.0, 2.0}, rng);
  EXPECT_LT(decision.arm, 3u);
  ASSERT_NE(decision.spec, nullptr);
  EXPECT_EQ(decision.spec->name, bandit.catalog()[decision.arm].name);
}

TEST(BanditWare, UntrainedRecommendationIsMostEfficient) {
  const BanditWare bandit = make_bandit();
  EXPECT_EQ(bandit.recommend_index({1.0, 1.0}), 0u);  // H0 = (2,16)
  EXPECT_EQ(bandit.recommend({1.0, 1.0}).name, "H0");
}

TEST(BanditWare, ObserveUpdatesPredictionsAndEpsilon) {
  BanditWareConfig config;
  config.policy.decay = 0.9;
  BanditWare bandit = make_bandit(config);
  const double eps_before = bandit.epsilon();
  bandit.observe(1, {2.0, 3.0}, 50.0);
  EXPECT_LT(bandit.epsilon(), eps_before);
  EXPECT_EQ(bandit.num_observations(), 1u);
  const auto predictions = bandit.predictions({2.0, 3.0});
  EXPECT_NEAR(predictions[1], 50.0, 1.0);
  EXPECT_EQ(predictions[0], 0.0);  // untouched arms stay at the zero init
}

TEST(BanditWare, LearnsToRecommendFasterHardware) {
  BanditWareConfig config;
  config.policy.initial_epsilon = 0.0;
  BanditWare bandit = make_bandit(config);
  for (double x : {1.0, 2.0, 3.0}) {
    bandit.observe(0, {x, x}, 100.0 * x);
    bandit.observe(1, {x, x}, 80.0 * x);
    bandit.observe(2, {x, x}, 20.0 * x);
  }
  EXPECT_EQ(bandit.recommend_index({2.0, 2.0}), 2u);
}

TEST(BanditWare, FeatureSizeMismatchThrows) {
  BanditWare bandit = make_bandit();
  Rng rng(2);
  EXPECT_THROW(bandit.next({1.0}, rng), InvalidArgument);
  EXPECT_THROW(bandit.observe(0, {1.0}, 1.0), InvalidArgument);
  EXPECT_THROW(bandit.recommend({1.0, 2.0, 3.0}), InvalidArgument);
  EXPECT_THROW(bandit.predictions({1.0}), InvalidArgument);
}

TEST(BanditWare, SaveLoadRoundTripPreservesBehavior) {
  BanditWareConfig config;
  config.policy.decay = 0.95;
  config.policy.tolerance.seconds = 20.0;
  BanditWare original = make_bandit(config);
  Rng rng(3);
  for (int i = 0; i < 12; ++i) {
    const FeatureVector x = {static_cast<double>(i % 5 + 1), static_cast<double>(i % 3)};
    const auto decision = original.next(x, rng);
    original.observe(decision.arm, x, 10.0 * x[0] + 3.0 * x[1] + decision.arm);
  }

  const std::string snapshot = original.save_state();
  BanditWare restored = BanditWare::load_state(snapshot);

  EXPECT_EQ(restored.num_arms(), original.num_arms());
  EXPECT_EQ(restored.feature_names(), original.feature_names());
  EXPECT_EQ(restored.num_observations(), original.num_observations());
  EXPECT_NEAR(restored.epsilon(), original.epsilon(), 1e-12);
  for (double x0 : {1.0, 2.5, 7.0}) {
    const FeatureVector x = {x0, 1.5};
    const auto p_original = original.predictions(x);
    const auto p_restored = restored.predictions(x);
    for (std::size_t arm = 0; arm < 3; ++arm) {
      EXPECT_NEAR(p_restored[arm], p_original[arm], 1e-9);
    }
    EXPECT_EQ(restored.recommend_index(x), original.recommend_index(x));
  }
}

TEST(BanditWare, SaveLoadPreservesConfigTolerance) {
  BanditWareConfig config;
  config.policy.tolerance.ratio = 0.05;
  config.policy.tolerance.seconds = 7.5;
  const BanditWare original = make_bandit(config);
  const BanditWare restored = BanditWare::load_state(original.save_state());
  EXPECT_DOUBLE_EQ(restored.policy().config().tolerance.ratio, 0.05);
  EXPECT_DOUBLE_EQ(restored.policy().config().tolerance.seconds, 7.5);
}

TEST(BanditWare, SaveStateIsV5AndByteStableAcrossRoundTrip) {
  BanditWare original = make_bandit();
  Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    const FeatureVector x = {static_cast<double>(i % 7 + 1), 0.5 * (i % 4)};
    const auto decision = original.next(x, rng);
    original.observe(decision.arm, x, 4.0 * x[0] + x[1]);
  }
  const std::string saved = original.save_state();
  EXPECT_EQ(saved.rfind("banditware-state v5\n", 0), 0u);
  // save -> load -> save must be byte-identical (the evidence serializes
  // exactly at 17 significant digits and θ is derived from it).
  BanditWare restored = BanditWare::load_state(saved);
  EXPECT_EQ(restored.save_state(), saved);
  // And the restored model is numerically *identical*, not merely close.
  const FeatureVector probe = {3.5, 1.0};
  EXPECT_EQ(restored.predictions(probe), original.predictions(probe));
}

TEST(BanditWare, V1SnapshotMigratesToV2Model) {
  // A legacy v1 snapshot (raw observation rows) must load into the current
  // incremental model with matching predictions, and re-save as v2.
  const std::string v1 =
      "banditware-state v1\n"
      "epsilon0 1 decay 0.98999999999999999 tol_ratio 0 tol_seconds 0\n"
      "epsilon 0.9414801494009999\n"
      "features 2 num_tasks area\n"
      "arms 3\n"
      "arm H0 2 16 obs 3\n"
      "1 2 21\n"
      "2 1 33\n"
      "3 3 50\n"
      "arm H1 3 24 obs 2\n"
      "1.5 2 24\n"
      "4 1 55\n"
      "arm H2 4 16 obs 1\n"
      "2 2 30\n";
  BanditWare migrated = BanditWare::load_state(v1);
  EXPECT_EQ(migrated.num_arms(), 3u);
  EXPECT_EQ(migrated.num_observations(), 6u);
  EXPECT_NEAR(migrated.epsilon(), 0.9414801494009999, 1e-15);

  // Reference: the same observations fed through the current API.
  BanditWare reference = make_bandit();
  reference.observe(0, {1.0, 2.0}, 21.0);
  reference.observe(0, {2.0, 1.0}, 33.0);
  reference.observe(0, {3.0, 3.0}, 50.0);
  reference.observe(1, {1.5, 2.0}, 24.0);
  reference.observe(1, {4.0, 1.0}, 55.0);
  reference.observe(2, {2.0, 2.0}, 30.0);
  for (double x0 : {1.0, 2.5, 6.0}) {
    const FeatureVector x = {x0, 2.0};
    const auto p_migrated = migrated.predictions(x);
    const auto p_reference = reference.predictions(x);
    for (std::size_t arm = 0; arm < 3; ++arm) {
      EXPECT_NEAR(p_migrated[arm], p_reference[arm], 1e-9);
    }
  }

  // Migration completes on the next save: the re-saved snapshot is v5 and
  // round-trips byte-identically from then on.
  const std::string v5 = migrated.save_state();
  EXPECT_EQ(v5.rfind("banditware-state v5\n", 0), 0u);
  BanditWare reloaded = BanditWare::load_state(v5);
  EXPECT_EQ(reloaded.save_state(), v5);
  EXPECT_EQ(reloaded.predictions({2.0, 2.0}), migrated.predictions({2.0, 2.0}));
}

TEST(BanditWare, LoadRejectsDuplicateArmNames) {
  const std::string v1 =
      "banditware-state v1\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0\n"
      "epsilon 1\n"
      "features 1 num_tasks\n"
      "arms 2\n"
      "arm H0 2 16 obs 0\n"
      "arm H0 4 32 obs 0\n";
  EXPECT_THROW(BanditWare::load_state(v1), ParseError);

  BanditWare original = make_bandit();
  original.observe(0, {1.0, 2.0}, 3.0);
  std::string v2 = original.save_state();
  const auto pos = v2.find("arm H1");
  ASSERT_NE(pos, std::string::npos);
  v2.replace(pos, 6, "arm H0");  // clone the first arm's name
  EXPECT_THROW(BanditWare::load_state(v2), ParseError);
}

TEST(BanditWare, LoadRejectsNegativeOrOverflowingObsCounts) {
  const std::string header =
      "banditware-state v1\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0\n"
      "epsilon 1\n"
      "features 1 num_tasks\n"
      "arms 1\n";
  // Negative counts must be rejected, not wrapped into a huge unsigned.
  EXPECT_THROW(BanditWare::load_state(header + "arm H0 2 16 obs -3\n"), ParseError);
  // Counts beyond the sanity cap must be rejected before any allocation.
  EXPECT_THROW(BanditWare::load_state(header + "arm H0 2 16 obs 999999999999\n"),
               ParseError);
  // Counts that overflow the integer reader must set failbit and throw.
  EXPECT_THROW(
      BanditWare::load_state(header + "arm H0 2 16 obs 99999999999999999999999\n"),
      ParseError);
  // Garbage where a count should be is malformed, not zero.
  EXPECT_THROW(BanditWare::load_state(header + "arm H0 2 16 obs lots\n"), ParseError);
}

TEST(BanditWare, LoadRejectsGarbage) {
  EXPECT_THROW(BanditWare::load_state(""), ParseError);
  EXPECT_THROW(BanditWare::load_state("not a snapshot"), ParseError);
  EXPECT_THROW(BanditWare::load_state("banditware-state v1\nepsilon0"), ParseError);
}

TEST(BanditWare, LoadRejectsTruncatedObservations) {
  BanditWare original = make_bandit();
  original.observe(0, {1.0, 2.0}, 3.0);
  std::string snapshot = original.save_state();
  snapshot.resize(snapshot.size() - 5);  // chop the last observation
  EXPECT_THROW(BanditWare::load_state(snapshot), ParseError);
}

TEST(BanditWare, ExploredFlagReflectsEpsilon) {
  BanditWareConfig never_explore;
  never_explore.policy.initial_epsilon = 0.0;
  BanditWare greedy = make_bandit(never_explore);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(greedy.next({1.0, 1.0}, rng).explored);
  }
  BanditWareConfig always_explore;
  always_explore.policy.initial_epsilon = 1.0;
  always_explore.policy.decay = 1.0;
  BanditWare explorer = make_bandit(always_explore);
  int explored = 0;
  for (int i = 0; i < 20; ++i) explored += explorer.next({1.0, 1.0}, rng).explored;
  EXPECT_EQ(explored, 20);
}

}  // namespace
}  // namespace bw::core
