// Tests for tolerant selection (core/tolerant) — Algorithm 1 line 7.

#include "core/tolerant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace bw::core {
namespace {

// The oracle: the two-scan select as it stood before the vectorized wide
// kernel, verbatim. tolerant_select must return bit-for-bit what this does.
// perfbench's sampled-read check cannot catch a select error (the scalar
// read it compares against calls the same tolerant_select), so this file is
// where the select's own correctness is pinned.
TolerantChoice reference_select(std::span<const double> predictions,
                                std::span<const double> resource_costs,
                                const ToleranceParams& tolerance) {
  BW_CHECK_MSG(!predictions.empty(), "tolerant_select: no arms");
  BW_CHECK_MSG(predictions.size() == resource_costs.size(),
               "tolerant_select: predictions/costs size mismatch");
  BW_CHECK_MSG(tolerance.ratio >= 0.0 && tolerance.seconds >= 0.0,
               "tolerance parameters must be non-negative");
  // One fused scan for validity and the fastest arm: this runs once per
  // decision on the serving path, so the O(arms) passes are worth counting.
  BW_CHECK_MSG(std::isfinite(predictions[0]),
               "tolerant_select: non-finite prediction");
  ArmIndex fastest = 0;
  double r_min = predictions[0];
  for (ArmIndex arm = 1; arm < predictions.size(); ++arm) {
    const double p = predictions[arm];
    BW_CHECK_MSG(std::isfinite(p), "tolerant_select: non-finite prediction");
    if (p < r_min) {
      r_min = p;
      fastest = arm;
    }
  }
  const double limit = r_min + tolerance.ratio * std::max(r_min, 0.0) + tolerance.seconds;

  TolerantChoice choice;
  choice.limit = limit;
  choice.arm = fastest;
  double best_cost = resource_costs[fastest];
  for (ArmIndex arm = 0; arm < predictions.size(); ++arm) {
    if (predictions[arm] > limit) continue;
    ++choice.candidates;
    // Most resource-efficient within the limit. Strict <: the fastest arm
    // keeps cost ties with every other candidate, and among strictly
    // cheaper arms of equal cost the lowest index wins.
    if (resource_costs[arm] < best_cost) {
      best_cost = resource_costs[arm];
      choice.arm = arm;
    }
  }
  choice.predicted_runtime = predictions[choice.arm];
  choice.efficiency_tie_break = choice.arm != fastest;
  return choice;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The select as this CPU runs it, and with the wide kernel's baseline
/// (SSE2) build, the one a CPU without AVX2 runs: both must match the
/// oracle. On an AVX2 host the first runs the AVX2 build.
struct Build {
  const char* name;
  TolerantChoice (*select)(std::span<const double>, std::span<const double>,
                           const ToleranceParams&);
};
const Build kBuilds[] = {{"tolerant_select", tolerant_select},
                         {"baseline", detail::tolerant_select_baseline}};

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
  // NaN, +inf and -inf at the first, middle and last index, on both sides
  // of the 16-arm split and in both wide-kernel builds. The wide kernel
  // reports a non-finite prediction and the entry point throws.
  const double kInf = std::numeric_limits<double>::infinity();
  for (const Build& build : kBuilds) {
    for (const std::size_t n : {1u, 15u, 16u, 17u, 2048u}) {
      for (const double bad : {std::nan(""), kInf, -kInf}) {
        for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
          std::vector<double> predictions(n, 1.0);
          const std::vector<double> costs(n, 1.0);
          predictions[at] = bad;
          EXPECT_THROW(build.select(predictions, costs, {}), InvalidArgument)
              << build.name << " n=" << n << " at=" << at << " value=" << bad;
        }
      }
    }
  }
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

// ---- the wide kernel against the oracle ----------------------------------

/// One random prediction in value mode `mode`: the modes make ties likely
/// (integer and quarter steps, signed zeros) and cover negative R̂.
double random_prediction(bw::Rng& rng, std::size_t mode) {
  switch (mode) {
    case 0:  // uniform
      return rng.uniform(-50.0, 500.0);
    case 1:  // integer ties
      return static_cast<double>(rng.uniform_int(0, 7));
    case 2: {  // ±0.0 mixed with a few larger values
      const std::int64_t pick = rng.uniform_int(0, 5);
      return pick == 0 ? 1.0 : pick == 1 ? 2.0 : pick % 2 == 0 ? -0.0 : 0.0;
    }
    case 3:  // quarter-step ties around zero
      return 0.25 * static_cast<double>(rng.uniform_int(-6, 10));
    default:  // negative R̂ (an untrained or extrapolating model)
      return rng.uniform(-400.0, -1.0);
  }
}

/// Costs in mode `mode`: heavy integer ties, all equal, distinct, or
/// signed zeros among ties.
double random_cost(bw::Rng& rng, std::size_t mode) {
  switch (mode) {
    case 0:
      return static_cast<double>(rng.uniform_int(1, 3));
    case 1:
      return 4.0;
    case 2:
      return rng.uniform(0.5, 10.0);
    default: {
      const std::int64_t pick = rng.uniform_int(0, 3);
      return pick == 0 ? -0.0 : pick == 1 ? 0.0 : 1.0;
    }
  }
}

/// Zero tolerances in both signs of zero (a -0.0 seconds term keeps a
/// -0.0 r_min's sign in the limit), a random ratio, quarter-step seconds,
/// both random, or an infinite ratio (with a zero or negative r_min the
/// limit is inf * 0 = NaN, and every arm is a candidate).
ToleranceParams random_tolerance(bw::Rng& rng, std::size_t mode) {
  ToleranceParams tolerance;
  switch (mode) {
    case 0:
      break;
    case 1:
      tolerance.seconds = -0.0;
      break;
    case 2:
      tolerance.ratio = rng.uniform(0.0, 0.5);
      break;
    case 3:
      tolerance.seconds = 0.25 * static_cast<double>(rng.uniform_int(0, 8));
      break;
    case 4:
      tolerance.ratio = rng.uniform(0.0, 0.3);
      tolerance.seconds = rng.uniform(0.0, 40.0);
      break;
    default:
      tolerance.ratio = std::numeric_limits<double>::infinity();
      tolerance.seconds = 0.25 * static_cast<double>(rng.uniform_int(0, 2));
      break;
  }
  return tolerance;
}

/// Compares all five fields bitwise; returns false (and reports) on the
/// first mismatch.
bool same_choice(const TolerantChoice& got, const TolerantChoice& want,
                 const std::string& where) {
  const bool same = got.arm == want.arm &&
                    bits(got.predicted_runtime) == bits(want.predicted_runtime) &&
                    bits(got.limit) == bits(want.limit) &&
                    got.candidates == want.candidates &&
                    got.efficiency_tie_break == want.efficiency_tie_break;
  EXPECT_TRUE(same) << where << ": arm " << got.arm << " vs " << want.arm
                    << ", R " << got.predicted_runtime << " vs " << want.predicted_runtime
                    << ", limit " << got.limit << " vs " << want.limit
                    << ", candidates " << got.candidates << " vs " << want.candidates
                    << ", tie_break " << got.efficiency_tie_break << " vs "
                    << want.efficiency_tie_break;
  return same;
}

TEST(TolerantSelectOracle, SeededFuzzMatchesTheReferenceBitwise) {
  // Every arm count 1..40 (each n mod 8 on both sides of the 16-arm split),
  // the power-of-two edges up to 4096, and random widths in between.
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= 40; ++n) widths.push_back(n);
  for (const std::size_t n : {63u, 64u, 65u, 127u, 128u, 129u, 255u, 256u, 257u, 511u,
                              512u, 513u, 1023u, 1024u, 1025u, 2047u, 2048u, 2049u,
                              4095u, 4096u}) {
    widths.push_back(n);
  }
  bw::Rng width_rng(19);
  for (int i = 0; i < 24; ++i) widths.push_back(41 + width_rng.index(4056));

  bw::Rng rng(2024);
  std::size_t selects = 0;
  std::size_t mismatches = 0;
  for (const std::size_t n : widths) {
    const std::size_t trials = n <= 40 ? 600 : 150;
    std::vector<double> predictions(n);
    std::vector<double> costs(n);
    for (std::size_t t = 0; t < trials; ++t) {
      const std::size_t value_mode = t % 5;
      const std::size_t cost_mode = (t / 5) % 4;
      const ToleranceParams tolerance = random_tolerance(rng, (t / 20) % 6);
      for (auto& p : predictions) p = random_prediction(rng, value_mode);
      for (auto& c : costs) c = random_cost(rng, cost_mode);
      const TolerantChoice want = reference_select(predictions, costs, tolerance);
      for (const Build& build : kBuilds) {
        const TolerantChoice got = build.select(predictions, costs, tolerance);
        ++selects;
        if (!same_choice(got, want, std::string(build.name) + " n=" + std::to_string(n) +
                                        " trial=" + std::to_string(t))) {
          if (++mismatches >= 10) FAIL() << "stopping after 10 mismatches";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(selects, 60000u);
}

TEST(TolerantSelectOracle, NanLimitKeepsEveryArmOnBothSidesOfTheSplit) {
  // tolerance_ratio = +inf passes the argument checks; with a zero or
  // negative fastest R̂ the limit is inf * 0 = NaN. No R̂ is above a NaN
  // limit, so every arm is a candidate and the cheapest one wins.
  ToleranceParams tolerance;
  tolerance.ratio = std::numeric_limits<double>::infinity();
  for (const std::size_t n : {5u, 15u, 16u, 17u, 40u, 2048u}) {
    for (const double fastest : {0.0, -0.0, -3.0}) {
      std::vector<double> predictions(n, 5.0);
      std::vector<double> costs(n, 4.0);
      predictions[1] = fastest;
      costs[n - 1] = 1.0;
      const TolerantChoice want = reference_select(predictions, costs, tolerance);
      for (const Build& build : kBuilds) {
        const TolerantChoice got = build.select(predictions, costs, tolerance);
        same_choice(got, want, std::string(build.name) + " n=" + std::to_string(n));
        EXPECT_TRUE(std::isnan(got.limit));
        EXPECT_EQ(got.candidates, n);
        EXPECT_EQ(got.arm, n - 1);
      }
    }
  }
}

TEST(TolerantSelectOracle, SignedZeroTiesKeepTheFirstIndexAndItsSign) {
  // -0.0 and +0.0 tie as the minimum. The fastest arm is the first index
  // holding either, and the limit is built from that index's own value:
  // with seconds = -0.0 a -0.0 r_min yields a -0.0 limit, +0.0 a +0.0 one.
  // The opposite zero sits at the last index and at indices 8 and 16, the
  // first lanes of the wide kernel's second block in its baseline and its
  // AVX2 build: a lane-wise minimum may keep either sign, so only a
  // read-back from the first index gets this right.
  for (const std::size_t n : {5u, 16u, 17u, 40u, 2048u}) {
    for (const double first : {-0.0, 0.0}) {
      std::vector<double> predictions(n, 3.0);
      std::vector<double> costs(n, 2.0);
      predictions[3] = first;
      predictions[n - 1] = -first;
      if (n > 8) predictions[8] = -first;
      if (n > 16) predictions[16] = -first;
      ToleranceParams tolerance;
      tolerance.seconds = -0.0;
      const TolerantChoice want = reference_select(predictions, costs, tolerance);
      for (const Build& build : kBuilds) {
        const TolerantChoice got = build.select(predictions, costs, tolerance);
        same_choice(got, want, std::string(build.name) + " n=" + std::to_string(n));
        EXPECT_EQ(got.arm, 3u);
        EXPECT_EQ(std::signbit(got.limit), std::signbit(first));
      }
    }
  }
}

}  // namespace
}  // namespace bw::core
