#pragma once
// Per-arm linear runtime model (paper Section 3.2):
//   R(H_i, x) = w_i^T x + b_i
// initialized to w = 0, b = 0 and updated after every observation
// (Alg. 1 lines 1-2, 10-11).
//
// Alg. 1 line 11 refits the arm by least squares after every observation.
// The model computes that ridge solution incrementally with a Sherman–
// Morrison recursive least-squares update (linalg/rls): O(d^2) per
// observe(), no per-row history kept. The prior ridge is fit.ridge, or
// fit.fallback_ridge when ridge is 0 — the ridge a batch fit applies to
// underdetermined systems. tests/test_incremental_equivalence.cpp checks
// it against a per-observation batch refit (linalg::fit_linear).

#include <span>

#include "core/types.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/rls.hpp"

namespace bw::core {

/// Compact copy of an arm's sufficient statistics (theta, P, n). This is
/// the in-memory analogue of a banditware-state v2 stats record: O(d^2) to
/// take, no text round-trip. The async cross-shard sync pipeline stages
/// these under brief shared locks and fuses them off the hot path.
struct ArmStats {
  linalg::Matrix p;      ///< (X^T X + ridge I)^{-1}, intercept-augmented
  linalg::Vector theta;  ///< [w; b]
  std::size_t n = 0;     ///< observations absorbed
};

class LinearArmModel {
 public:
  /// `dim` = number of workflow features m. FitOptions set the ridge prior
  /// and the forgetting factor. fit.intercept = false is rejected with
  /// InvalidArgument: the recursive update always fits the intercept b.
  explicit LinearArmModel(std::size_t dim, const linalg::FitOptions& fit = {});

  std::size_t dim() const { return dim_; }
  std::size_t count() const { return rls_.n_observations(); }

  /// Records an observation and updates the model (Alg. 1 line 10-11).
  /// O(d^2).
  void observe(std::span<const double> x, double runtime_s);

  /// Current prediction ŵ^T x + b̂; 0 before any observation (w=b=0 init).
  /// Reads only immutable-between-observes state, so concurrent predict()
  /// calls are safe as long as no observe() runs (read-mostly serving).
  double predict(std::span<const double> x) const;

  /// Posterior-width quadratic form x̃^T P x̃ (intercept-augmented) — what
  /// LinUCB's confidence bound and Thompson's posterior draw both consume.
  double variance_proxy(std::span<const double> x) const;

  const linalg::LinearModel& model() const { return model_; }

  /// Sufficient statistics (P, theta, n) — the banditware-state v2 payload.
  const linalg::RecursiveLeastSquares& rls() const { return rls_; }

  /// Reinstates saved sufficient statistics. Throws InvalidArgument on
  /// shape mismatch or non-finite entries.
  void restore_stats(const linalg::Matrix& p, const linalg::Vector& theta,
                     std::size_t n);

  /// Copies out the sufficient statistics — O(d^2), no text serialization.
  ArmStats export_stats() const;

  /// Folds another arm's evidence into this one by fusing sufficient
  /// statistics (RLS::merge — exact under the shared ridge). With `base`
  /// (the common ancestor both models grew from, e.g. the state shared at
  /// the last replica sync) only the evidence beyond the ancestor is
  /// merged, so repeated syncs never double-count. Dimension, ridge and
  /// forgetting factor must match.
  void merge(const LinearArmModel& other, const LinearArmModel* base = nullptr);

  void reset();

 private:
  void sync_from_rls();

  std::size_t dim_;
  linalg::RecursiveLeastSquares rls_;
  linalg::LinearModel model_;  ///< always reflects the latest update
};

}  // namespace bw::core
