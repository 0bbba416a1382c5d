#pragma once
// Cholesky (LLT) decomposition for symmetric positive-definite systems.
// Used by the normal-equation least-squares path and by the linear
// Thompson-sampling policy (sampling from N(mu, sigma^2 A^{-1})).

#include <optional>
#include <span>

#include "linalg/matrix.hpp"

namespace bw::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
class Cholesky {
 public:
  /// Factors `a` (must be square, symmetric, positive definite).
  /// Returns std::nullopt if a non-positive pivot is encountered.
  static std::optional<Cholesky> factor(const Matrix& a);

  /// Solves A x = b via the stored factor.
  Vector solve(const Vector& b) const;

  /// Solves L y = b (forward substitution).
  Vector solve_lower(const Vector& b) const;

  /// Solves L^T x = y (backward substitution).
  Vector solve_upper(const Vector& y) const;

  /// log(det A) = 2 * sum log L_ii. Useful for model-evidence diagnostics.
  double log_det() const;

  /// A^{-1}, solved column-by-column from the stored factor and symmetrized
  /// (the exact inverse is symmetric; averaging removes solve round-off).
  /// Used by the RLS's legacy covariance conversion.
  Matrix inverse() const;

  const Matrix& lower() const { return l_; }

 private:
  friend Cholesky factor_spd(const Matrix& a, double jitter);
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

/// Factors an SPD matrix; adds a scale-aware jitter * I and retries (up to 6
/// escalations) if the factorization fails. Throws NumericalError if the
/// matrix has a negative diagonal entry or remains non-positive-definite.
Cholesky factor_spd(const Matrix& a, double jitter = 1e-10);

/// factor_spd into a caller-owned lower factor `l`, reshaped to a's size
/// with its storage reused: the same arithmetic, negative-diagonal throw
/// and jitter escalation. Only the jitter retries allocate.
void factor_spd_into(const Matrix& a, Matrix& l, double jitter = 1e-10);

/// Forward substitution L y = b into `y` for a lower-triangular `l` —
/// Cholesky::solve_lower's arithmetic, with no allocation.
void solve_lower_into(const Matrix& l, std::span<const double> b, std::span<double> y);

/// Solves A x = b for SPD A via factor_spd.
Vector solve_spd(const Matrix& a, const Vector& b, double jitter = 1e-10);

}  // namespace bw::linalg
