#pragma once
// Least-squares fitting — the regression step of paper Algorithm 1 line 11:
//   w_k, b_k = argmin sum_{(x,R) in D_k} (R - (w^T x + b))^2
//
// `fit_linear` handles the intercept by augmenting the design matrix with a
// ones column; `LinearModel` packages (w, b) with prediction and metrics.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace bw::linalg {

/// A fitted linear model R(x) = w^T x + b.
struct LinearModel {
  Vector weights;      ///< w, one per feature
  double bias = 0.0;   ///< b
  std::size_t n_observations = 0;

  double predict(std::span<const double> x) const;

  /// Predictions for each row of X.
  Vector predict_rows(const Matrix& x) const;

  std::string to_string() const;
};

struct FitOptions {
  /// Ridge penalty on [w; b]. 0 = ordinary least squares (QR path).
  double ridge = 0.0;
  /// If true and the QR path hits rank deficiency, retry with this ridge.
  /// fit_linear only: core::ArmBank's recursive arms take `ridge` as their
  /// prior (0 means 1e-8).
  double fallback_ridge = 1e-8;
  /// Fit the intercept b (paper's model always has one). Only fit_linear
  /// honours false; core::ArmBank rejects it.
  bool intercept = true;
  /// Forgetting factor λ ∈ (0, 1] for the recursive (RLS) arm model:
  /// A ← λA + xxᵀ, b ← λb + yx, so an observation k steps old carries
  /// weight λ^k (effective window ≈ 1/(1-λ)). λ = 1 is the stationary
  /// estimator. fit_linear ignores it (a batch fit weights every row
  /// equally).
  double forgetting = 1.0;
};

struct FitResult {
  LinearModel model;
  double train_rmse = 0.0;
  double train_r_squared = 0.0;
};

/// Fits min ||X w - y|| with options. X is n x m (one row per observation).
/// Requirements: n >= 1, all entries finite. For n < m (+1 if intercept) the
/// system is underdetermined; the ridge fallback produces the minimum-norm
/// style solution instead of throwing.
FitResult fit_linear(const Matrix& x, const Vector& y, const FitOptions& options = {});

/// Convenience for one-feature fits (used by Fig. 3 / Fig. 6 area-only).
FitResult fit_linear_1d(std::span<const double> x, std::span<const double> y,
                        const FitOptions& options = {});

}  // namespace bw::linalg
