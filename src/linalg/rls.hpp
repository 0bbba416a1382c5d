#pragma once
// Recursive least squares in square-root information form (Bierman,
// "Factorization Methods for Discrete Sequential Estimation", 1977). An
// O(p^2)-per-update alternative to the paper's batch refit (Alg. 1 line
// 11), mathematically identical to ridge least squares on the same data
// (verified by property tests). core::ArmBank holds one per hardware arm,
// built by ArmBank::make_arm with the bank's default prior and intercept
// rule.
//
// The evidence is (R, z, n) and nothing else: R is the upper-triangular
// factor of the information matrix A = X^T X + ridge I (R^T R = A), z =
// R^{-T} b with b = X^T y, and n the observation count. theta = R^{-1} z is
// derived by one back-substitution after every write. Working on R instead
// of A (or its inverse) keeps the condition number at the square root of
// A's, which is what lets raw, badly scaled features (sizes in the tens of
// thousands next to unit values) fuse exactly.
//
// update() is allocation-free after the first call (member scratch), so a
// long observation stream costs exactly O(p^2) work per step. The evidence
// is exposed — and restorable via restore() — so snapshots carry it
// directly instead of replaying history.

#include <span>

#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"

namespace bw::linalg {

class RecursiveLeastSquares {
 public:
  /// `dim` features (+ intercept handled internally), prior information
  /// ridge * I. ridge must be > 0 (a proper prior keeps R invertible at
  /// n = 0). `forgetting` is the discount λ ∈ (0, 1]: each update scales
  /// the old information by λ (A ← λA + xxᵀ, b ← λb + yx), so an
  /// observation k steps old carries weight λ^k. λ = 1 is the stationary
  /// estimator.
  explicit RecursiveLeastSquares(std::size_t dim, double ridge = 1e-6,
                                 double forgetting = 1.0);

  std::size_t dim() const { return dim_; }
  double ridge() const { return ridge_; }
  double forgetting() const { return lambda_; }
  std::size_t n_observations() const { return n_; }

  /// Entries of R's upper triangle for `dim` features: (dim+1)(dim+2)/2.
  static std::size_t packed_size(std::size_t dim) {
    return (dim + 1) * (dim + 2) / 2;
  }

  /// Incorporates one observation (x, y): R and z scale by √λ (skipped at
  /// λ = 1), then the row [x̃ᵀ | y] is rotated into [R | z] by Givens
  /// rotations. O(p^2), allocation-free.
  void update(std::span<const double> x, double y);

  /// Current estimate: prediction w^T x + b.
  double predict(std::span<const double> x) const;

  Vector weights() const;  ///< w (length dim)
  double bias() const;     ///< b
  /// The fitted (w, b, n) as a standalone LinearModel, for inspection.
  LinearModel model() const;

  /// x̃ᵀ A⁻¹ x̃ = ‖R⁻ᵀx̃‖² — the posterior width LinUCB and Thompson use.
  double variance_proxy(std::span<const double> x) const;

  /// The same quadratic form for an intercept-augmented x̃ (length dim+1),
  /// solved in `scratch` (resized to dim+1) so a caller sweeping many arms
  /// allocates nothing. variance_proxy runs exactly this arithmetic.
  double variance_proxy_aug(std::span<const double> xa, Vector& scratch) const;

  /// R's upper triangle packed row-major: row i holds R(i, i..dim).
  const Vector& r() const { return r_; }
  /// z = R^{-T} b.
  const Vector& z() const { return z_; }
  /// Parameter vector theta = [w; b] = R^{-1} z.
  const Vector& theta() const { return theta_; }

  /// True iff (r, z) is valid evidence for `dim` features: the packed and
  /// z lengths match, every entry is finite and R's diagonal is positive.
  static bool valid_evidence(std::size_t dim, std::span<const double> r,
                             std::span<const double> z);

  /// Reinstates saved evidence. Throws InvalidArgument unless
  /// valid_evidence(dim(), r, z).
  void restore(std::span<const double> r, std::span<const double> z, std::size_t n);

  /// The one conversion of a legacy (theta, P) body, P the covariance
  /// (X^T X + ridge I)^{-1}: A = P^{-1}, R = chol(A), z = R theta. Returns
  /// false, leaving r and z unspecified, when P is not (dim+1)-square and
  /// positive definite or theta does not match it.
  static bool information_from_covariance(const Matrix& p, const Vector& theta,
                                          Vector& r, Vector& z);

  /// Fuses another estimator's evidence into this one. In information form
  /// ridge RLS is additive:
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
  /// Each operand's A = RᵀR and b = Rᵀz are summed and the result factored
  /// once, in per-thread scratch: after a thread's first merge of a shape,
  /// merging allocates nothing. Requires matching dim, ridge and forgetting
  /// factor.
  void merge(const RecursiveLeastSquares& other,
             const RecursiveLeastSquares* base = nullptr);

  /// merge(other) with no base, `other` given as its bare evidence (r, z, n)
  /// — an estimator of this one's dim, ridge and forgetting factor, as a
  /// fleet origin slot holds it: the same arithmetic, with no estimator
  /// built per operand. The shapes are checked; the values are trusted to
  /// be valid_evidence (their decoder or exporter checked them).
  void merge(std::span<const double> r, std::span<const double> z, std::size_t n);

  void reset();

 private:
  /// rinv from R's diagonal, then back_substitute().
  void solve_theta();
  /// theta = R^{-1} z by back-substitution, rinv current.
  void back_substitute();
  /// Both merges' one body: sums other's information, minus the λ^m-aged
  /// base's (or one ridge prior when `base` is null), plus self's aged by
  /// λ^m (m = other_new), and factors the sum once.
  void fuse(std::span<const double> other_r, std::span<const double> other_z,
            std::size_t other_new, const RecursiveLeastSquares* base);

  std::size_t dim_;
  double ridge_;
  double lambda_;       ///< forgetting factor λ ∈ (0, 1]; 1 = stationary
  double sqrt_lambda_;  ///< √λ, the per-update scale of R and z
  std::size_t n_ = 0;
  Vector r_;      ///< R's upper triangle, packed row-major
  Vector z_;      ///< R^{-T} X^T y
  Vector theta_;  ///< [w; b] = R^{-1} z
  Vector rinv_;   ///< 1 / R(i, i), derived with theta
  Vector row_scratch_;  ///< [x; 1] being rotated into R
};

}  // namespace bw::linalg
