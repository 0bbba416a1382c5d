// Tests for tolerant selection (core/tolerant) — Algorithm 1 line 7.

#include "core/tolerant.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace bw::core {
namespace {

const std::vector<double> kCosts = {1.0, 2.0, 3.0};  // arm 0 most efficient

TEST(TolerantSelect, ZeroToleranceIsArgmin) {
  const TolerantChoice choice = tolerant_select({5.0, 3.0, 4.0}, kCosts, {});
  EXPECT_EQ(choice.arm, 1u);
  EXPECT_DOUBLE_EQ(choice.predicted_runtime, 3.0);
  EXPECT_EQ(choice.candidates, 1u);
  EXPECT_FALSE(choice.efficiency_tie_break);
}

TEST(TolerantSelect, SecondsToleranceAdmitsCheaperArm) {
  // Arm 1 fastest (100), arm 0 within 20 s and cheaper -> arm 0 wins.
  ToleranceParams tolerance;
  tolerance.seconds = 20.0;
  const TolerantChoice choice = tolerant_select({115.0, 100.0, 130.0}, kCosts, tolerance);
  EXPECT_EQ(choice.arm, 0u);
  EXPECT_TRUE(choice.efficiency_tie_break);
  EXPECT_EQ(choice.candidates, 2u);
  EXPECT_DOUBLE_EQ(choice.limit, 120.0);
}

TEST(TolerantSelect, RatioToleranceScalesWithRuntime) {
  ToleranceParams tolerance;
  tolerance.ratio = 0.05;
  // 5% of 1000 = 50: arm 0 at 1040 qualifies, arm 2 at 1100 does not.
  const TolerantChoice choice = tolerant_select({1040.0, 1000.0, 1100.0}, kCosts, tolerance);
  EXPECT_EQ(choice.arm, 0u);
  EXPECT_EQ(choice.candidates, 2u);
}

TEST(TolerantSelect, CombinedToleranceUsesBoth) {
  ToleranceParams tolerance;
  tolerance.ratio = 0.10;
  tolerance.seconds = 5.0;
  // limit = 100 * 1.1 + 5 = 115.
  const TolerantChoice choice = tolerant_select({115.0, 100.0, 116.0}, kCosts, tolerance);
  EXPECT_EQ(choice.arm, 0u);
  EXPECT_EQ(choice.candidates, 2u);
}

TEST(TolerantSelect, FastestWinsWhenAlone) {
  ToleranceParams tolerance;
  tolerance.seconds = 1.0;
  const TolerantChoice choice = tolerant_select({100.0, 50.0, 200.0}, kCosts, tolerance);
  EXPECT_EQ(choice.arm, 1u);
}

TEST(TolerantSelect, NegativePredictionsStillSelectFastest) {
  // An untrained model can extrapolate below zero; the fastest arm must
  // remain admissible (see header note on the max(R̂,0) guard).
  ToleranceParams tolerance;
  tolerance.ratio = 0.5;
  const TolerantChoice choice = tolerant_select({-100.0, 50.0, 60.0}, kCosts, tolerance);
  EXPECT_EQ(choice.arm, 0u);
  EXPECT_GE(choice.candidates, 1u);
}

TEST(TolerantSelect, NegativeFastestWithSecondsTolerance) {
  ToleranceParams tolerance;
  tolerance.seconds = 30.0;
  // limit = -10 + 30 = 20: arms 0 (-10) and 1 (15) qualify; arm 0 cheaper.
  const TolerantChoice choice = tolerant_select({-10.0, 15.0, 25.0}, kCosts, tolerance);
  EXPECT_EQ(choice.arm, 0u);
  EXPECT_EQ(choice.candidates, 2u);
}

TEST(TolerantSelect, AllEqualPredictionsPickMostEfficient) {
  // The untrained state of Algorithm 1: all estimates are 0.
  const TolerantChoice choice = tolerant_select({0.0, 0.0, 0.0}, {3.0, 1.0, 2.0}, {});
  EXPECT_EQ(choice.arm, 1u);
  EXPECT_EQ(choice.candidates, 3u);
}

TEST(TolerantSelect, CostTiesKeepLowestIndex) {
  ToleranceParams tolerance;
  tolerance.seconds = 100.0;
  const TolerantChoice choice = tolerant_select({1.0, 2.0, 3.0}, {5.0, 5.0, 5.0}, tolerance);
  EXPECT_EQ(choice.arm, 0u);
}

TEST(TolerantSelect, FastestArmKeepsCostTiesAtAHigherIndex) {
  // Equal costs everywhere: the fastest arm (index 1) keeps the tie, so
  // the rule is not "lowest index wins".
  ToleranceParams tolerance;
  tolerance.seconds = 100.0;
  const TolerantChoice choice =
      tolerant_select({3.0, 1.0, 2.0}, {5.0, 5.0, 5.0}, tolerance);
  EXPECT_EQ(choice.arm, 1u);
  EXPECT_FALSE(choice.efficiency_tie_break);
  EXPECT_EQ(choice.candidates, 3u);
}

TEST(TolerantSelect, StrictlyCheaperTiesKeepLowerIndex) {
  // The fastest arm (index 2) costs 9; arms 1 and 3 are strictly cheaper
  // and tie at 4, so the lower index of the two wins.
  ToleranceParams tolerance;
  tolerance.seconds = 100.0;
  const TolerantChoice choice =
      tolerant_select({2.0, 3.0, 1.0, 4.0}, {7.0, 4.0, 9.0, 4.0}, tolerance);
  EXPECT_EQ(choice.arm, 1u);
  EXPECT_TRUE(choice.efficiency_tie_break);
  EXPECT_EQ(choice.predicted_runtime, 3.0);
}

TEST(TolerantSelect, SingleArm) {
  const TolerantChoice choice = tolerant_select({42.0}, {1.0}, {});
  EXPECT_EQ(choice.arm, 0u);
  EXPECT_EQ(choice.candidates, 1u);
}

TEST(TolerantSelect, RejectsInvalidInput) {
  // Empty braced lists would be ambiguous between the span and vector
  // overloads; spell the type to pin the empty-input contract itself.
  EXPECT_THROW(tolerant_select(std::vector<double>{}, {}, {}), InvalidArgument);
  EXPECT_THROW(tolerant_select({1.0}, {1.0, 2.0}, {}), InvalidArgument);
  ToleranceParams negative;
  negative.ratio = -0.1;
  EXPECT_THROW(tolerant_select({1.0}, {1.0}, negative), InvalidArgument);
  negative.ratio = 0.0;
  negative.seconds = -1.0;
  EXPECT_THROW(tolerant_select({1.0}, {1.0}, negative), InvalidArgument);
  EXPECT_THROW(tolerant_select({std::nan("")}, {1.0}, {}), InvalidArgument);
}

// Properties over random inputs.
class TolerantProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TolerantProperty, ChosenArmAlwaysWithinLimit) {
  bw::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t arms = 1 + rng.index(6);
    std::vector<double> predictions(arms);
    std::vector<double> costs(arms);
    for (std::size_t i = 0; i < arms; ++i) {
      predictions[i] = rng.uniform(-50.0, 500.0);
      costs[i] = rng.uniform(0.5, 10.0);
    }
    ToleranceParams tolerance;
    tolerance.ratio = rng.uniform(0.0, 0.5);
    tolerance.seconds = rng.uniform(0.0, 50.0);
    const TolerantChoice choice = tolerant_select(predictions, costs, tolerance);
    EXPECT_LE(predictions[choice.arm], choice.limit + 1e-12);
    EXPECT_GE(choice.candidates, 1u);
  }
}

TEST_P(TolerantProperty, WideningToleranceNeverIncreasesCost) {
  bw::Rng rng(GetParam() + 17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t arms = 2 + rng.index(5);
    std::vector<double> predictions(arms);
    std::vector<double> costs(arms);
    for (std::size_t i = 0; i < arms; ++i) {
      predictions[i] = rng.uniform(0.0, 500.0);
      costs[i] = rng.uniform(0.5, 10.0);
    }
    ToleranceParams narrow;
    narrow.seconds = rng.uniform(0.0, 20.0);
    ToleranceParams wide = narrow;
    wide.seconds += rng.uniform(0.0, 100.0);
    const double cost_narrow = costs[tolerant_select(predictions, costs, narrow).arm];
    const double cost_wide = costs[tolerant_select(predictions, costs, wide).arm];
    EXPECT_LE(cost_wide, cost_narrow + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, TolerantProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace bw::core
