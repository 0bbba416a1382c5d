#include "linalg/cholesky.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bw::linalg {

namespace {

/// Averages the off-diagonal halves in place. Computed SPD inverses are
/// symmetric only up to solve round-off; a factorization of the result
/// expects exact symmetry.
void symmetrize(Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = r + 1; c < m.cols(); ++c) {
      const double mean = 0.5 * (m(r, c) + m(c, r));
      m(r, c) = mean;
      m(c, r) = mean;
    }
  }
}

}  // namespace

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  BW_CHECK_MSG(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / ljj;
    }
  }
  return Cholesky(std::move(l));
}

Vector Cholesky::solve_lower(const Vector& b) const {
  const std::size_t n = l_.rows();
  BW_CHECK_MSG(b.size() == n, "Cholesky solve: size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l_(i, k) * y[k];
    y[i] = sum / l_(i, i);
  }
  return y;
}

Vector Cholesky::solve_upper(const Vector& y) const {
  const std::size_t n = l_.rows();
  BW_CHECK_MSG(y.size() == n, "Cholesky solve: size mismatch");
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l_(k, i) * x[k];
    x[i] = sum / l_(i, i);
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const { return solve_upper(solve_lower(b)); }

double Cholesky::log_det() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) sum += std::log(l_(i, i));
  return 2.0 * sum;
}

Matrix Cholesky::inverse() const {
  const std::size_t n = l_.rows();
  Matrix inv(n, n);
  Vector e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    const Vector col = solve(e);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
    e[c] = 0.0;
  }
  symmetrize(inv);
  return inv;
}

Cholesky factor_spd(const Matrix& a, double jitter) {
  // A symmetric PSD matrix never has a negative diagonal entry; seeing one
  // means the caller's matrix is not a Gram/covariance matrix at all, and
  // no amount of regularization would make the answer meaningful.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (a(i, i) < 0.0) {
      throw NumericalError("factor_spd: negative diagonal entry — matrix is not PSD");
    }
  }
  if (auto chol = Cholesky::factor(a)) return *chol;
  // Escalate jitter relative to the matrix scale; an absolute epsilon is
  // useless when diagonal entries are ~1e19 (squared byte counts).
  double diag_scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) diag_scale += std::abs(a(i, i));
  diag_scale = std::max(1.0, diag_scale / static_cast<double>(a.rows()));
  Matrix regularized = a;
  double bump = std::max(jitter, diag_scale * 1e-14);
  for (int attempt = 0; attempt < 6; ++attempt) {
    for (std::size_t i = 0; i < regularized.rows(); ++i) regularized(i, i) += bump;
    if (auto chol = Cholesky::factor(regularized)) return *chol;
    bump *= 1000.0;
  }
  throw NumericalError("factor_spd: matrix is not positive definite even after jitter");
}

Vector solve_spd(const Matrix& a, const Vector& b, double jitter) {
  return factor_spd(a, jitter).solve(b);
}

}  // namespace bw::linalg
