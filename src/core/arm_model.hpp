#pragma once
// Per-arm linear runtime model (paper Section 3.2):
//   R(H_i, x) = w_i^T x + b_i
// initialized to w = 0, b = 0 and updated after every observation
// (Alg. 1 lines 1-2, 10-11).
//
// Alg. 1 line 11 refits the arm by least squares after every observation.
// The model computes that ridge solution incrementally with a square-root
// information recursive least-squares update (linalg/rls): O(d^2) per
// observe(), no per-row history kept. The prior ridge is fit.ridge, or
// 1e-8 when fit.ridge is 0. tests/test_incremental_equivalence.cpp checks
// it against a per-observation batch refit (linalg::fit_linear).

#include <span>

#include "core/types.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/rls.hpp"

namespace bw::core {

/// Compact copy of an arm's evidence (R, z, n) — the in-memory analogue of
/// a snapshot's stats record: O(d^2) to take, no text round-trip. The async
/// cross-shard sync pipeline stages these under brief shared locks and
/// fuses them off the hot path; fleet gossip ships them per origin.
struct ArmStats {
  linalg::Vector r;   ///< R's upper triangle packed row-major (RᵀR = A)
  linalg::Vector z;   ///< R⁻ᵀ b
  std::size_t n = 0;  ///< observations absorbed
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

  /// Current prediction ŵ^T x + b̂ (w·x summed from 0.0, then + b, the
  /// order LinearModel::predict uses); 0 before any observation. Reads
  /// only immutable-between-observes state and allocates nothing, so
  /// concurrent predict() calls are safe as long as no observe() runs.
  double predict(std::span<const double> x) const;

  /// Posterior-width quadratic form x̃ᵀA⁻¹x̃ = ‖R⁻ᵀx̃‖² (intercept-augmented)
  /// — what LinUCB's confidence bound and Thompson's posterior draw consume.
  double variance_proxy(std::span<const double> x) const;

  /// The fitted (w, b, n) as a standalone LinearModel, for inspection.
  linalg::LinearModel model() const;

  /// The evidence (R, z, n) and the θ derived from it.
  const linalg::RecursiveLeastSquares& rls() const { return rls_; }

  /// Reinstates saved evidence. Throws InvalidArgument unless it is valid
  /// for this model's shape (RLS::valid_evidence).
  void restore_stats(const ArmStats& stats);

  /// Copies out the evidence — O(d^2), no text serialization.
  ArmStats export_stats() const;
  /// The same copy into `out`, reusing its storage.
  void export_stats(ArmStats& out) const;

  /// Folds another arm's evidence into this one by fusing sufficient
  /// statistics (RLS::merge — exact under the shared ridge). With `base`
  /// (the common ancestor both models grew from, e.g. the state shared at
  /// the last replica sync) only the evidence beyond the ancestor is
  /// merged, so repeated syncs never double-count. Dimension, ridge and
  /// forgetting factor must match.
  void merge(const LinearArmModel& other, const LinearArmModel* base = nullptr);
  /// merge(other) with no base, `other` given as the evidence an arm of
  /// this model's shape exported (RLS::merge's evidence form).
  void merge(const ArmStats& other);

  void reset();

 private:
  std::size_t dim_;
  linalg::RecursiveLeastSquares rls_;
};

}  // namespace bw::core
