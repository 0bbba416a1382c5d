#pragma once
// Recursive least squares (Sherman–Morrison form). An O(p^2)-per-update
// alternative to the paper's batch refit (Alg. 1 line 11): after every
// observation the posterior precision P = (X^T X + ridge I)^{-1} is updated
// in place. Mathematically identical to ridge least squares on the same
// data (verified by property tests). This is the learner inside every
// core::LinearArmModel.
//
// update() is allocation-free after the first call (member scratch
// buffers), so a long observation stream costs exactly O(p^2) work per
// step. The sufficient statistics (P, theta, n) are exposed — and
// restorable via restore() — so snapshots can carry the model state
// directly instead of replaying history.

#include <span>

#include "linalg/matrix.hpp"

namespace bw::linalg {

class RecursiveLeastSquares {
 public:
  /// `dim` features (+ intercept handled internally), prior precision
  /// ridge * I. ridge must be > 0 (a proper prior keeps P finite at n=0).
  /// `forgetting` is the discount λ ∈ (0, 1]: each update scales the old
  /// information by λ (A ← λA + xxᵀ, b ← λb + yx), so an observation k
  /// steps old carries weight λ^k. λ = 1 is today's stationary estimator,
  /// bit-identical to the two-argument constructor's behavior.
  explicit RecursiveLeastSquares(std::size_t dim, double ridge = 1e-6,
                                 double forgetting = 1.0);

  std::size_t dim() const { return dim_; }
  double ridge() const { return ridge_; }
  double forgetting() const { return lambda_; }
  std::size_t n_observations() const { return n_; }

  /// Incorporates one observation (x, y). O(p^2), allocation-free.
  void update(std::span<const double> x, double y);

  /// Current estimate: prediction w^T x + b.
  double predict(std::span<const double> x) const;

  Vector weights() const;  ///< w (length dim)
  double bias() const;     ///< b

  /// x_aug^T P x_aug — the LinUCB confidence width uses this quadratic form.
  double variance_proxy(std::span<const double> x) const;

  /// Covariance-like matrix P (dim+1 x dim+1, intercept last).
  const Matrix& precision_inverse() const { return p_; }

  /// Parameter vector theta = [w; b].
  const Vector& theta() const { return theta_; }

  /// Reinstates saved sufficient statistics (banditware-state v2):
  /// P must be (dim+1)x(dim+1), theta length dim+1. Throws InvalidArgument
  /// on shape mismatch or non-finite entries.
  void restore(const Matrix& p, const Vector& theta, std::size_t n);

  /// Fuses another estimator's evidence into this one. In information form
  /// (A = P^{-1}, b = A theta) ridge RLS is additive:
  ///   A <- A + A_other - A_base,   b <- b + b_other - b_base,
  /// which reproduces exactly the estimator that saw both data streams in
  /// one pass. With no `base` the shared ridge prior is subtracted once
  /// (A_base = ridge I, b_base = 0) — correct for two *independently*
  /// trained models. Pass the common ancestor as `base` when both models
  /// grew from shared state (replica sync): only the evidence beyond the
  /// ancestor is folded in, so repeated syncs never double-count.
  ///
  /// Under discounting (λ < 1) the fused estimator is the one that saw the
  /// canonical concatenation "self's stream, then other's new slice": the
  /// observation count is the discount generation, and self's (and the
  /// base's) information is aged by λ^m where m = other.n - base.n is the
  /// number of new observations other contributes:
  ///   A <- λ^m A + A_other - λ^m A_base,  b <- λ^m b + b_other - λ^m b_base.
  /// At λ = 1 the scale is exactly 1 and this reduces bit-identically to
  /// the stationary formula above. Mismatched forgetting factors are
  /// rejected (fusion would not be exact), like mismatched dim or ridge.
  /// Recovery of A from P and of the fused (theta, P) goes through the
  /// Cholesky path (factor_spd). Requires matching dim, ridge, forgetting.
  void merge(const RecursiveLeastSquares& other,
             const RecursiveLeastSquares* base = nullptr);

  void reset();

 private:
  std::size_t dim_;
  double ridge_;
  double lambda_;  ///< forgetting factor λ ∈ (0, 1]; 1 = stationary
  std::size_t n_ = 0;
  Matrix p_;      ///< (X^T X + ridge I)^{-1}
  Vector theta_;  ///< [w; b]
  Vector xa_scratch_;  ///< [x; 1] for the current update
  Vector px_scratch_;  ///< P [x; 1]
};

}  // namespace bw::linalg
