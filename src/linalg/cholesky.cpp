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

/// The Cholesky recurrence, column by column, into `l` (reshaped to a's
/// size, its storage reused). False on a non-positive or non-finite pivot.
bool factor_lower(const Matrix& a, Matrix& l) {
  BW_CHECK_MSG(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  l.assign(n, n);
  // Row-major storage, indexed directly: these loops are every merge's
  // factorization.
  const double* in = a.data().data();
  double* out = l.data().data();
  for (std::size_t j = 0; j < n; ++j) {
    double* lj = out + j * n;
    double diag = in[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    lj[j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double* li = out + i * n;
      double sum = in[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= li[k] * lj[k];
      li[j] = sum / ljj;
    }
  }
  return true;
}

}  // namespace

std::optional<Cholesky> Cholesky::factor(const Matrix& a) {
  Matrix l;
  if (!factor_lower(a, l)) return std::nullopt;
  return Cholesky(std::move(l));
}

Vector Cholesky::solve_lower(const Vector& b) const {
  BW_CHECK_MSG(b.size() == l_.rows(), "Cholesky solve: size mismatch");
  Vector y(b.size());
  solve_lower_into(l_, b, y);
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

void solve_lower_into(const Matrix& l, std::span<const double> b, std::span<double> y) {
  const std::size_t n = l.rows();
  BW_CHECK_MSG(b.size() == n && y.size() == n, "Cholesky solve: size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.data().data() + i * n;
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= li[k] * y[k];
    y[i] = sum / li[i];
  }
}

void factor_spd_into(const Matrix& a, Matrix& l, double jitter) {
  // A symmetric PSD matrix never has a negative diagonal entry; seeing one
  // means the caller's matrix is not a Gram/covariance matrix at all, and
  // no amount of regularization would make the answer meaningful.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (a(i, i) < 0.0) {
      throw NumericalError("factor_spd: negative diagonal entry — matrix is not PSD");
    }
  }
  if (factor_lower(a, l)) return;
  // Escalate jitter relative to the matrix scale; an absolute epsilon is
  // useless when diagonal entries are ~1e19 (squared byte counts).
  double diag_scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) diag_scale += std::abs(a(i, i));
  diag_scale = std::max(1.0, diag_scale / static_cast<double>(a.rows()));
  Matrix regularized = a;
  double bump = std::max(jitter, diag_scale * 1e-14);
  for (int attempt = 0; attempt < 6; ++attempt) {
    for (std::size_t i = 0; i < regularized.rows(); ++i) regularized(i, i) += bump;
    if (factor_lower(regularized, l)) return;
    bump *= 1000.0;
  }
  throw NumericalError("factor_spd: matrix is not positive definite even after jitter");
}

Cholesky factor_spd(const Matrix& a, double jitter) {
  Matrix l;
  factor_spd_into(a, l, jitter);
  return Cholesky(std::move(l));
}

Vector solve_spd(const Matrix& a, const Vector& b, double jitter) {
  return factor_spd(a, jitter).solve(b);
}

}  // namespace bw::linalg
