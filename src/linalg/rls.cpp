#include "linalg/rls.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/intercept.hpp"

// GCC's -O3 cost model vectorizes the short triangular loops in this file
// (trip counts of at most d + 1) behind alias checks, peeling and
// epilogues; that doubled the cost of an update at d = 4 and d = 7. They
// run scalar.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("no-tree-vectorize")
#endif

namespace bw::linalg {

namespace {

/// a = RᵀR (both halves) and b = Rᵀz for a packed upper-triangular R.
void information(std::span<const double> r, std::span<const double> z, std::size_t p,
                 Matrix& a, Vector& b) {
  a.assign(p, p);
  b.assign(p, 0.0);
  double* m = a.data().data();  // row-major p x p
  const double* row = r.data();
  for (std::size_t k = 0; k < p; ++k) {  // row k holds R(k, k..p-1)
    for (std::size_t i = k; i < p; ++i) {
      const double rki = row[i - k];
      b[i] += rki * z[k];
      for (std::size_t j = i; j < p; ++j) m[i * p + j] += rki * row[j - k];
    }
    row += p - k;
  }
  for (std::size_t i = 1; i < p; ++i) {
    for (std::size_t j = 0; j < i; ++j) m[i * p + j] = m[j * p + i];
  }
}

/// merge()'s working set: the information sum being built, one operand's
/// RᵀR and Rᵀz, and the factor of the sum. Merges run on many threads at
/// once (shard sync, the async fuser, fleet refolds), so the buffers are
/// per-thread, like the decision kernel's DecisionScratch; after a thread's
/// first merge of a shape, merging allocates nothing.
struct MergeScratch {
  Matrix a;
  Vector b;
  Matrix part_a;
  Vector part_b;
  Matrix l;

  static MergeScratch& local() {
    static thread_local MergeScratch scratch;
    return scratch;
  }
};

/// Packs Lᵀ (the upper factor R of A = L Lᵀ) row-major into `r`.
void pack_transpose(const Matrix& l, Vector& r) {
  const std::size_t p = l.rows();
  const double* m = l.data().data();
  r.resize(p * (p + 1) / 2);
  std::size_t at = 0;
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) r[at++] = m[j * p + i];
  }
}

}  // namespace

RecursiveLeastSquares::RecursiveLeastSquares(std::size_t dim, double ridge,
                                             double forgetting)
    : dim_(dim),
      ridge_(ridge),
      lambda_(forgetting),
      sqrt_lambda_(std::sqrt(forgetting)) {
  BW_CHECK_MSG(ridge > 0.0 && std::isfinite(ridge),
               "RLS requires a positive ridge prior");
  BW_CHECK_MSG(std::isfinite(forgetting) && forgetting > 0.0 && forgetting <= 1.0,
               "RLS forgetting factor must be in (0, 1]");
  reset();
}

void RecursiveLeastSquares::reset() {
  const std::size_t p = dim_ + 1;
  r_.assign(packed_size(dim_), 0.0);
  const double root = std::sqrt(ridge_);
  std::size_t at = 0;
  for (std::size_t i = 0; i < p; ++i) {
    r_[at] = root;
    at += p - i;
  }
  z_.assign(p, 0.0);
  theta_.resize(p);
  rinv_.resize(p);
  n_ = 0;
  solve_theta();
}

void RecursiveLeastSquares::solve_theta() {
  // The reciprocals are independent of each other, so the substitution's
  // dependency chain multiplies instead of divides.
  const std::size_t p = dim_ + 1;
  std::size_t at = 0;
  for (std::size_t i = 0; i < p; ++i) {
    rinv_[i] = 1.0 / r_[at];
    at += p - i;
  }
  back_substitute();
}

void RecursiveLeastSquares::back_substitute() {
  // Row i subtracts its farthest term first and θ(i + 1), the one just
  // computed, last, so only one multiply-subtract waits on it.
  const std::size_t p = dim_ + 1;
  std::size_t at = r_.size();
  for (std::size_t ii = p; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    at -= p - i;
    const double* row = r_.data() + at;  // R(i, i..p-1)
    double s = z_[i];
    for (std::size_t j = p - 1 - i; j > 0; --j) s -= row[j] * theta_[i + j];
    theta_[i] = s * rinv_[i];
  }
}

void RecursiveLeastSquares::update(std::span<const double> x, double y) {
  BW_CHECK_MSG(x.size() == dim_, "RLS: feature size mismatch");
  BW_CHECK_MSG(all_finite(x), "RLS: non-finite feature");
  with_intercept_into(x, row_scratch_);
  const std::size_t p = dim_ + 1;
  // Discount: A ← λA and b ← λb are R ← √λR and z ← √λz (z = R⁻ᵀb).
  if (lambda_ != 1.0) {
    for (double& v : r_) v *= sqrt_lambda_;
    for (double& v : z_) v *= sqrt_lambda_;
  }
  // Append the row [x̃ᵀ | y] below [R | z] and rotate it back to upper
  // triangular: rotation k, (c, s) = (a, b) / h, zeroes the row's entry k
  // against a = R(k, k). The row's last value is the update's residual and
  // is dropped. R(k, k) stays positive: it starts at √ridge and each
  // rotation replaces it with the hypotenuse h.
  double* row = row_scratch_.data();
  double* rk = r_.data();
  double rhs = y;
  for (std::size_t k = 0; k < p; ++k) {
    const double a = rk[0];
    const double b = row[k];
    const double h = std::sqrt(a * a + b * b);
    const double inv = 1.0 / h;
    rk[0] = h;
    rinv_[k] = inv;
    for (std::size_t j = 1; j < p - k; ++j) {
      const double rkj = rk[j];
      const double xj = row[k + j];
      rk[j] = (a * rkj + b * xj) * inv;
      row[k + j] = (a * xj - b * rkj) * inv;
    }
    const double zk = z_[k];
    z_[k] = (a * zk + b * rhs) * inv;
    rhs = (a * rhs - b * zk) * inv;
    rk += p - k;
  }
  ++n_;
  back_substitute();
}

double RecursiveLeastSquares::predict(std::span<const double> x) const {
  BW_CHECK_MSG(x.size() == dim_, "RLS: feature size mismatch");
  return dot(std::span<const double>(theta_.data(), dim_), x) + theta_[dim_];
}

Vector RecursiveLeastSquares::weights() const {
  return Vector(theta_.begin(), theta_.end() - 1);
}

double RecursiveLeastSquares::bias() const { return theta_.back(); }

LinearModel RecursiveLeastSquares::model() const { return {weights(), bias(), n_}; }

double RecursiveLeastSquares::variance_proxy(std::span<const double> x) const {
  BW_CHECK_MSG(x.size() == dim_, "RLS: feature size mismatch");
  Vector scratch;
  return variance_proxy_aug(with_intercept(x), scratch);
}

double RecursiveLeastSquares::variance_proxy_aug(std::span<const double> xa,
                                                 Vector& scratch) const {
  const std::size_t p = dim_ + 1;
  BW_CHECK_MSG(xa.size() == p, "RLS: feature size mismatch");
  // Forward substitution Rᵀu = x̃, row by row of R; the result is ‖u‖².
  scratch.assign(xa.begin(), xa.end());
  double* u = scratch.data();
  const double* row = r_.data();
  double sum = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    const double ui = u[i] * rinv_[i];
    sum += ui * ui;
    for (std::size_t j = 1; j < p - i; ++j) u[i + j] -= row[j] * ui;
    row += p - i;
  }
  return sum;
}

bool RecursiveLeastSquares::valid_evidence(std::size_t dim, std::span<const double> r,
                                           std::span<const double> z) {
  const std::size_t p = dim + 1;
  if (r.size() != packed_size(dim) || z.size() != p) return false;
  if (!all_finite(r) || !all_finite(z)) return false;
  std::size_t at = 0;
  for (std::size_t i = 0; i < p; ++i) {
    if (!(r[at] > 0.0)) return false;
    at += p - i;
  }
  return true;
}

void RecursiveLeastSquares::restore(std::span<const double> r,
                                    std::span<const double> z, std::size_t n) {
  BW_CHECK_MSG(valid_evidence(dim_, r, z),
               "RLS::restore: evidence needs a finite R with a positive diagonal "
               "and a finite z of the model's shape");
  r_.assign(r.begin(), r.end());
  z_.assign(z.begin(), z.end());
  n_ = n;
  solve_theta();
}

bool RecursiveLeastSquares::information_from_covariance(const Matrix& p,
                                                        const Vector& theta,
                                                        Vector& r, Vector& z) {
  const std::size_t n = theta.size();
  if (n == 0 || p.rows() != n || p.cols() != n) return false;
  if (!all_finite(std::span<const double>(p.data())) || !all_finite(theta)) {
    return false;
  }
  const auto covariance = Cholesky::factor(p);
  if (!covariance) return false;
  const auto info = Cholesky::factor(covariance->inverse());
  if (!info) return false;
  pack_transpose(info->lower(), r);
  // z = R θ, R(i, j) = L(j, i).
  const Matrix& l = info->lower();
  z.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) z[i] += l(j, i) * theta[j];
  }
  return true;
}

void RecursiveLeastSquares::merge(const RecursiveLeastSquares& other,
                                  const RecursiveLeastSquares* base) {
  BW_CHECK_MSG(other.dim_ == dim_, "RLS::merge: dimension mismatch");
  BW_CHECK_MSG(other.ridge_ == ridge_,
               "RLS::merge: ridge priors differ — fusion would not be exact");
  BW_CHECK_MSG(other.lambda_ == lambda_,
               "RLS::merge: forgetting factors differ — fusion would not be exact");
  if (base == nullptr) {
    merge(other.r_, other.z_, other.n_);
    return;
  }
  BW_CHECK_MSG(base->dim_ == dim_ && base->ridge_ == ridge_,
               "RLS::merge: base dimension or ridge mismatch");
  BW_CHECK_MSG(base->lambda_ == lambda_, "RLS::merge: base forgetting factor mismatch");
  BW_CHECK_MSG(base->n_ <= other.n_,
               "RLS::merge: base holds more observations than other");
  // No evidence beyond the common ancestor — nothing to fold in. (The
  // deterministic update makes identical evidence equivalent to an
  // identical stream.)
  if (other.n_ == base->n_ && other.r_ == base->r_ && other.z_ == base->z_) return;
  fuse(other.r_, other.z_, other.n_ - base->n_, base);
}

void RecursiveLeastSquares::merge(std::span<const double> r, std::span<const double> z,
                                  std::size_t n) {
  BW_CHECK_MSG(r.size() == r_.size() && z.size() == z_.size(),
               "RLS::merge: evidence shape mismatch");
  if (n == 0) return;  // other is the bare prior: exact no-op
  if (n_ == 0) {       // we are the bare prior: adopt other verbatim
    r_.assign(r.begin(), r.end());
    z_.assign(z.begin(), z.end());
    n_ = n;
    solve_theta();
    return;
  }
  fuse(r, z, n, nullptr);
}

void RecursiveLeastSquares::fuse(std::span<const double> other_r,
                                 std::span<const double> other_z, std::size_t other_new,
                                 const RecursiveLeastSquares* base) {
  // Discount alignment: the fused estimator is the one that saw self's
  // stream, then other's m new observations (m = other.n - base.n). The
  // observation count is the discount generation, so self's and the base's
  // information age by λ^m. scale == 1.0 exactly at λ = 1.
  const std::size_t p = dim_ + 1;
  const double scale = std::pow(lambda_, static_cast<double>(other_new));
  MergeScratch& s = MergeScratch::local();
  // The new evidence first (other minus the aged ancestor, or minus the
  // prior copy both operands carry), so two near-equal operands cancel
  // before the result meets self's larger information.
  information(other_r, other_z, p, s.a, s.b);
  if (base != nullptr) {
    information(base->r_, base->z_, p, s.part_a, s.part_b);
    axpy(-scale, s.part_a.data(), s.a.data());
    axpy(-scale, s.part_b, s.b);
  } else {
    for (std::size_t i = 0; i < p; ++i) s.a.data()[i * p + i] -= scale * ridge_;
  }
  information(r_, z_, p, s.part_a, s.part_b);
  axpy(scale, s.part_a.data(), s.a.data());
  axpy(scale, s.part_b, s.b);

  factor_spd_into(s.a, s.l);
  pack_transpose(s.l, r_);
  solve_lower_into(s.l, s.b, z_);  // Lz = b with L = Rᵀ
  n_ += other_new;
  solve_theta();
}

}  // namespace bw::linalg
