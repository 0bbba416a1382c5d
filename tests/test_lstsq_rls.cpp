// Tests for least-squares fitting and recursive least squares
// (linalg/lstsq, linalg/rls) — the regression engine behind Algorithm 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exact_ridge.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/intercept.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/rls.hpp"

namespace bw::linalg {
namespace {

TEST(FitLinear, RecoversExactLine) {
  // y = 2x + 3, noiseless.
  Matrix x(4, 1);
  Vector y(4);
  for (std::size_t i = 0; i < 4; ++i) {
    x(i, 0) = static_cast<double>(i);
    y[i] = 2.0 * static_cast<double>(i) + 3.0;
  }
  const FitResult fit = fit_linear(x, y);
  EXPECT_NEAR(fit.model.weights[0], 2.0, 1e-10);
  EXPECT_NEAR(fit.model.bias, 3.0, 1e-10);
  EXPECT_NEAR(fit.train_rmse, 0.0, 1e-10);
  EXPECT_NEAR(fit.train_r_squared, 1.0, 1e-12);
}

TEST(FitLinear, NoInterceptOption) {
  Matrix x(3, 1);
  Vector y(3);
  for (std::size_t i = 0; i < 3; ++i) {
    x(i, 0) = static_cast<double>(i + 1);
    y[i] = 5.0 * x(i, 0);
  }
  FitOptions options;
  options.intercept = false;
  const FitResult fit = fit_linear(x, y, options);
  EXPECT_NEAR(fit.model.weights[0], 5.0, 1e-10);
  EXPECT_EQ(fit.model.bias, 0.0);
}

TEST(FitLinear, SingleObservationUsesRidgeFallback) {
  Matrix x(1, 2);
  x(0, 0) = 1.0;
  x(0, 1) = 2.0;
  const Vector y = {10.0};
  const FitResult fit = fit_linear(x, y);  // underdetermined
  // Prediction at the training point should be close to the target.
  EXPECT_NEAR(fit.model.predict(std::vector<double>{1.0, 2.0}), 10.0, 1e-3);
}

TEST(FitLinear, CollinearFeaturesHandledByFallback) {
  // Second feature is an exact copy of the first: rank deficient.
  Matrix x(5, 2);
  Vector y(5);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = static_cast<double>(i);
    y[i] = 4.0 * static_cast<double>(i) + 1.0;
  }
  const FitResult fit = fit_linear(x, y);
  // Predictions remain correct even though individual weights are not
  // identifiable.
  EXPECT_NEAR(fit.model.predict(std::vector<double>{2.0, 2.0}), 9.0, 1e-4);
}

TEST(FitLinear, RidgeShrinksWeights) {
  bw::Rng rng(3);
  Matrix x(30, 2);
  Vector y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, 0) = rng.uniform(-1.0, 1.0);
    x(i, 1) = rng.uniform(-1.0, 1.0);
    y[i] = 10.0 * x(i, 0) - 7.0 * x(i, 1);
  }
  FitOptions heavy;
  heavy.ridge = 1000.0;
  const double free_norm = norm2(fit_linear(x, y).model.weights);
  const double ridge_norm = norm2(fit_linear(x, y, heavy).model.weights);
  EXPECT_LT(ridge_norm, free_norm * 0.5);
}

TEST(FitLinear, RejectsBadInput) {
  Matrix x(2, 1);
  EXPECT_THROW(fit_linear(x, Vector{1.0}), InvalidArgument);          // size mismatch
  EXPECT_THROW(fit_linear(Matrix(0, 1), Vector{}), InvalidArgument);  // empty
  Matrix bad(1, 1);
  bad(0, 0) = std::nan("");
  EXPECT_THROW(fit_linear(bad, Vector{1.0}), InvalidArgument);  // non-finite
  Matrix ok(1, 1);
  EXPECT_THROW(fit_linear(ok, Vector{INFINITY}), InvalidArgument);
}

TEST(FitLinear1d, MatchesMatrixPath) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 3.0, 5.0, 7.0};
  const FitResult fit = fit_linear_1d(x, y);
  EXPECT_NEAR(fit.model.weights[0], 2.0, 1e-10);
  EXPECT_NEAR(fit.model.bias, 1.0, 1e-10);
}

TEST(LinearModel, PredictRejectsWrongDimension) {
  LinearModel model;
  model.weights = {1.0, 2.0};
  EXPECT_THROW(model.predict(std::vector<double>{1.0}), InvalidArgument);
}

// Property: planted coefficients are recovered within noise tolerance.
struct PlantedCase {
  std::size_t dim;
  double noise;
};

class PlantedRecovery : public ::testing::TestWithParam<PlantedCase> {};

TEST_P(PlantedRecovery, RecoversCoefficients) {
  const auto [dim, noise] = GetParam();
  bw::Rng rng(dim * 1000 + static_cast<std::uint64_t>(noise * 100));
  Vector w_true(dim);
  for (auto& w : w_true) w = rng.uniform(-5.0, 5.0);
  const double b_true = rng.uniform(-10.0, 10.0);

  const std::size_t n = 400;
  Matrix x(n, dim);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double dot_val = b_true;
    for (std::size_t c = 0; c < dim; ++c) {
      x(i, c) = rng.uniform(-2.0, 2.0);
      dot_val += w_true[c] * x(i, c);
    }
    y[i] = dot_val + rng.normal(0.0, noise);
  }
  const FitResult fit = fit_linear(x, y);
  const double tolerance = 5.0 * noise / std::sqrt(static_cast<double>(n)) + 1e-8;
  for (std::size_t c = 0; c < dim; ++c) {
    EXPECT_NEAR(fit.model.weights[c], w_true[c], tolerance) << "weight " << c;
  }
  EXPECT_NEAR(fit.model.bias, b_true, 3.0 * tolerance);
}

INSTANTIATE_TEST_SUITE_P(DimsAndNoise, PlantedRecovery,
                         ::testing::Values(PlantedCase{1, 0.0}, PlantedCase{1, 0.5},
                                           PlantedCase{3, 0.0}, PlantedCase{3, 1.0},
                                           PlantedCase{7, 0.1}, PlantedCase{7, 2.0}));

// ---- RLS -----------------------------------------------------------------

TEST(Rls, StartsAtZeroPrediction) {
  RecursiveLeastSquares rls(2);
  EXPECT_EQ(rls.predict(std::vector<double>{1.0, 1.0}), 0.0);
  EXPECT_EQ(rls.n_observations(), 0u);
}

TEST(Rls, RequiresPositiveRidge) {
  EXPECT_THROW(RecursiveLeastSquares(2, 0.0), InvalidArgument);
}

TEST(Rls, LearnsExactLineQuickly) {
  RecursiveLeastSquares rls(1, 1e-8);
  for (int i = 0; i < 10; ++i) {
    const double x = static_cast<double>(i);
    rls.update(std::vector<double>{x}, 3.0 * x + 1.0);
  }
  EXPECT_NEAR(rls.weights()[0], 3.0, 1e-5);
  EXPECT_NEAR(rls.bias(), 1.0, 1e-4);
}

TEST(Rls, VarianceProxyShrinksWithData) {
  RecursiveLeastSquares rls(1, 1.0);
  const std::vector<double> x = {1.0};
  const double before = rls.variance_proxy(x);
  for (int i = 0; i < 20; ++i) rls.update(x, 2.0);
  EXPECT_LT(rls.variance_proxy(x), before * 0.1);
}

TEST(Rls, ResetRestoresPrior) {
  RecursiveLeastSquares rls(1, 1e-3);
  rls.update(std::vector<double>{1.0}, 5.0);
  rls.reset();
  EXPECT_EQ(rls.n_observations(), 0u);
  EXPECT_EQ(rls.predict(std::vector<double>{1.0}), 0.0);
}

TEST(Rls, RejectsBadFeatures) {
  RecursiveLeastSquares rls(2);
  EXPECT_THROW(rls.update(std::vector<double>{1.0}, 1.0), InvalidArgument);
  EXPECT_THROW(rls.update(std::vector<double>{1.0, std::nan("")}, 1.0), InvalidArgument);
}

// Property: RLS equals batch ridge regression on the same stream.
class RlsEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RlsEquivalence, MatchesBatchRidge) {
  bw::Rng rng(static_cast<std::uint64_t>(GetParam()) + 7);
  const std::size_t dim = 1 + GetParam() % 4;
  const double ridge = 1e-4;
  RecursiveLeastSquares rls(dim, ridge);

  const std::size_t n = 40;
  Matrix x(n, dim);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> xi(dim);
    for (std::size_t c = 0; c < dim; ++c) {
      xi[c] = rng.uniform(-3.0, 3.0);
      x(i, c) = xi[c];
    }
    y[i] = rng.uniform(-5.0, 5.0);
    rls.update(xi, y[i]);
  }

  FitOptions options;
  options.ridge = ridge;
  const FitResult batch = fit_linear(x, y, options);
  for (std::size_t c = 0; c < dim; ++c) {
    EXPECT_NEAR(rls.weights()[c], batch.model.weights[c], 1e-6) << "weight " << c;
  }
  EXPECT_NEAR(rls.bias(), batch.model.bias, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Streams, RlsEquivalence, ::testing::Range(0, 8));

TEST(Rls, RejectsBadForgetting) {
  EXPECT_THROW(RecursiveLeastSquares(2, 1e-6, 0.0), InvalidArgument);
  EXPECT_THROW(RecursiveLeastSquares(2, 1e-6, -0.5), InvalidArgument);
  EXPECT_THROW(RecursiveLeastSquares(2, 1e-6, 1.5), InvalidArgument);
  EXPECT_THROW(RecursiveLeastSquares(2, 1e-6, std::nan("")), InvalidArgument);
}

TEST(Rls, ForgettingOneIsBitIdenticalToDefault) {
  bw::Rng rng(13);
  RecursiveLeastSquares plain(3, 1e-6);
  RecursiveLeastSquares explicit_one(3, 1e-6, 1.0);
  for (int i = 0; i < 60; ++i) {
    const std::vector<double> x = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                                   rng.uniform(-2.0, 2.0)};
    const double y = rng.uniform(-5.0, 5.0);
    plain.update(x, y);
    explicit_one.update(x, y);
  }
  // Bit-identical, not merely close: the two constructors are one path.
  EXPECT_EQ(plain.theta(), explicit_one.theta());
  EXPECT_EQ(plain.r(), explicit_one.r());
  EXPECT_EQ(plain.z(), explicit_one.z());
}

// Discounted RLS against its definition: θ solves the geometrically
// weighted normal equations (λ^n ridge I + Σ λ^{n-i} x̃ᵢx̃ᵢᵀ) θ = Σ λ^{n-i} yᵢx̃ᵢ.
TEST(Rls, DiscountedMatchesWeightedNormalEquations) {
  const double lambda = 0.9;
  const double ridge = 1e-4;
  const std::size_t dim = 2;
  const std::size_t n = 30;
  bw::Rng rng(31);
  RecursiveLeastSquares rls(dim, ridge, lambda);

  Matrix a(dim + 1, dim + 1);
  Vector b(dim + 1, 0.0);
  for (std::size_t i = 0; i < dim + 1; ++i) a(i, i) = ridge;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double> x = {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    const double y = rng.uniform(-5.0, 5.0);
    rls.update(x, y);
    const Vector xa = with_intercept(x);
    for (auto& v : a.data()) v *= lambda;
    for (auto& v : b) v *= lambda;
    for (std::size_t r = 0; r < xa.size(); ++r) {
      for (std::size_t c = 0; c < xa.size(); ++c) a(r, c) += xa[r] * xa[c];
      b[r] += y * xa[r];
    }
  }
  const Vector theta = solve_spd(a, b);
  for (std::size_t c = 0; c < dim + 1; ++c) {
    EXPECT_NEAR(rls.theta()[c], theta[c], 1e-8) << "theta " << c;
  }
}

TEST(Rls, DiscountedTracksTargetShift) {
  const std::size_t dim = 1;
  RecursiveLeastSquares discounted(dim, 1e-8, 0.9);
  RecursiveLeastSquares undiscounted(dim, 1e-8, 1.0);
  bw::Rng rng(41);
  auto feed = [&](double slope, int count) {
    for (int i = 0; i < count; ++i) {
      const std::vector<double> x = {rng.uniform(-2.0, 2.0)};
      discounted.update(x, slope * x[0]);
      undiscounted.update(x, slope * x[0]);
    }
  };
  feed(3.0, 400);   // long stationary prefix
  feed(-5.0, 60);   // regime change: slope flips
  // λ = 0.9 (effective window ~10) has converged to the new slope; λ = 1
  // is still dominated by the 400 old observations.
  EXPECT_NEAR(discounted.weights()[0], -5.0, 0.05);
  EXPECT_GT(std::abs(undiscounted.weights()[0] - (-5.0)), 1.0);
}

// A λ = 0.98 stream far longer than the drift bench's (8000 decisions),
// on the matmul workload's raw feature scales (size to 12 500 next to a
// unit sparsity and ±100 value bounds) and the default 1e-8 prior, with a
// regime change halfway. The square-root update rescales R and z by √λ
// and rotates one row in, so the prior's warm-up leaves no trace and no
// round-off is amplified: θ must stay finite and, after every 50
// observations, predict within 1e-9 of the exact discounted ridge
// solution re-solved in long double.
TEST(Rls, LongDiscountedRawScaleStreamMatchesExactSolution) {
  const std::size_t dim = 4;
  const double lambda = 0.98;
  const double ridge = 1e-8;
  const int steps = 20000;
  RecursiveLeastSquares rls(dim, ridge, lambda);
  bw::testing::ExactRidge exact(dim, ridge, lambda);
  bw::Rng rng(53);
  double worst = 0.0;
  for (int step = 0; step < steps; ++step) {
    const std::vector<double> x = {rng.uniform(100.0, 12500.0), rng.uniform(0.0, 1.0),
                                   rng.uniform(-100.0, 0.0), rng.uniform(0.0, 100.0)};
    const double trend = step < steps / 2 ? 0.01 * x[0] + 3.0 * x[1]
                                          : 0.03 * x[0] - 2.0 * x[1];
    const double y = trend + 0.02 * (x[3] - x[2]) + 5.0 + rng.normal();
    rls.update(x, y);
    exact.add(x, y);
    if ((step + 1) % 50 != 0) continue;
    ASSERT_TRUE(all_finite(rls.theta())) << "step " << step;
    const std::vector<long double> theta = exact.theta();
    for (int p = 0; p < 5; ++p) {
      const std::vector<double> probe = {100.0 + 3000.0 * p, 0.5, -50.0, 50.0};
      const long double want = bw::testing::ExactRidge::predict(theta, probe);
      const long double gap = std::fabs(rls.predict(probe) - want) / std::fabs(want);
      worst = std::max(worst, static_cast<double>(gap));
    }
  }
  EXPECT_LT(worst, 1e-9);
}

TEST(Rls, RestoreRoundTripsSufficientStatistics) {
  bw::Rng rng(21);
  RecursiveLeastSquares original(3, 1e-6);
  auto feed = [&rng](RecursiveLeastSquares& rls, int count) {
    for (int i = 0; i < count; ++i) {
      std::vector<double> x = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                               rng.uniform(-2.0, 2.0)};
      rls.update(x, rng.uniform(-5.0, 5.0));
    }
  };
  feed(original, 25);

  RecursiveLeastSquares restored(3, 1e-6);
  restored.restore(original.r(), original.z(), original.n_observations());
  EXPECT_EQ(restored.n_observations(), 25u);
  // Restored state is bit-identical, so future updates stay in lockstep.
  const std::vector<double> probe = {0.5, -1.0, 2.0};
  EXPECT_EQ(restored.predict(probe), original.predict(probe));
  original.update(probe, 3.0);
  restored.update(probe, 3.0);
  EXPECT_EQ(restored.predict(probe), original.predict(probe));
  EXPECT_EQ(restored.theta(), original.theta());
}

TEST(Rls, RestoreRejectsInvalidEvidence) {
  RecursiveLeastSquares rls(2);
  const Vector r = rls.r();  // the prior: 6 packed entries, diagonal at 0, 3, 5
  const Vector z(3, 0.0);
  EXPECT_NO_THROW(rls.restore(r, z, 0));
  EXPECT_THROW(rls.restore(Vector(5, 1.0), z, 1), InvalidArgument);
  EXPECT_THROW(rls.restore(r, Vector(2, 0.0), 1), InvalidArgument);
  for (const double diagonal : {0.0, -1.0, std::nan("")}) {
    Vector bad = r;
    bad[3] = diagonal;
    EXPECT_THROW(rls.restore(bad, z, 1), InvalidArgument) << diagonal;
  }
  Vector off_diagonal = r;
  off_diagonal[1] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(rls.restore(off_diagonal, z, 1), InvalidArgument);
  Vector bad_z = z;
  bad_z[2] = std::nan("");
  EXPECT_THROW(rls.restore(r, bad_z, 1), InvalidArgument);
}

// The one legacy conversion: a (θ, P) body becomes evidence whose θ is the
// stored one, and a P that is not positive definite is refused.
TEST(Rls, CovarianceConversionKeepsThetaAndRejectsIndefiniteP) {
  bw::Rng rng(71);
  const std::size_t dim = 2;
  const std::size_t p = dim + 1;
  RecursiveLeastSquares trained(dim, 1e-6);
  Matrix a(p, p);
  for (std::size_t i = 0; i < p; ++i) a(i, i) = 1e-6;
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    trained.update(x, rng.uniform(-5.0, 5.0));
    const Vector xa = with_intercept(x);
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t c = 0; c < p; ++c) a(r, c) += xa[r] * xa[c];
    }
  }
  const Matrix covariance = factor_spd(a).inverse();
  Vector r;
  Vector z;
  ASSERT_TRUE(RecursiveLeastSquares::information_from_covariance(
      covariance, trained.theta(), r, z));
  RecursiveLeastSquares restored(dim, 1e-6);
  restored.restore(r, z, 20);
  for (std::size_t i = 0; i < p; ++i) {
    EXPECT_NEAR(restored.theta()[i], trained.theta()[i],
                1e-12 * std::max(1.0, std::fabs(trained.theta()[i])));
  }

  Matrix indefinite = covariance;
  indefinite(1, 1) = -indefinite(1, 1);
  EXPECT_FALSE(RecursiveLeastSquares::information_from_covariance(
      indefinite, trained.theta(), r, z));
  EXPECT_FALSE(RecursiveLeastSquares::information_from_covariance(
      Matrix(p, p), trained.theta(), r, z));
  EXPECT_FALSE(RecursiveLeastSquares::information_from_covariance(
      covariance, Vector(dim, 0.0), r, z));
}

// The shared [x; 1] helper is the single definition of the intercept
// layout; both the batch fitter and the recursive updater build on it.
TEST(Intercept, VectorAndMatrixFormsAgree) {
  const std::vector<double> x = {3.0, -1.5};
  const Vector xa = with_intercept(x);
  ASSERT_EQ(xa.size(), 3u);
  EXPECT_EQ(xa[0], 3.0);
  EXPECT_EQ(xa[1], -1.5);
  EXPECT_EQ(xa[2], 1.0);

  Vector reused = {9.0, 9.0, 9.0, 9.0};  // shrinks and overwrites
  with_intercept_into(x, reused);
  EXPECT_EQ(reused, xa);

  Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(0, 1) = -1.5;
  m(1, 0) = 7.0;
  m(1, 1) = 0.25;
  const Matrix augmented = with_intercept_column(m);
  ASSERT_EQ(augmented.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(augmented(r, 0), m(r, 0));
    EXPECT_EQ(augmented(r, 1), m(r, 1));
    EXPECT_EQ(augmented(r, 2), 1.0);
  }
}

}  // namespace
}  // namespace bw::linalg
