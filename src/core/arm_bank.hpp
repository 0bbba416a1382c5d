#pragma once
// ArmBank — the shared per-arm ridge-RLS substrate every production policy
// sits on (paper Section 3.2): one linear runtime model
//   R(H_i, x) = w_i^T x + b_i
// per hardware arm, initialized to w = 0, b = 0 and refit after every
// observation (Alg. 1 lines 1-2, 10-11). Each arm is a
// linalg::RecursiveLeastSquares, which computes that ridge solution
// incrementally: O(d^2) per observation, no per-row history kept
// (tests/test_incremental_equivalence.cpp checks it against a
// per-observation batch refit). The bank owns the rules the paper's model
// adds to the estimator: the prior ridge is fit.ridge, or 1e-8 when
// fit.ridge is 0; fit.intercept = false is rejected, since the update
// always fits b; and an observed runtime must be finite.
//
// ε-greedy, LinUCB, and linear-Gaussian Thompson sampling all predict with
// the same tolerant-greedy pass over the same resource-cost ordering, and
// fuse/serialize the same square-root information evidence (R, z, n); the
// policies differ only in how they pick an arm during exploration
// (ε-coin, LCB optimism, posterior draw).
//
// Decision kernel (ROADMAP "Decision kernel"): alongside the per-arm
// estimators the bank maintains a TRANSPOSED (d+1) x size theta plane (row
// kk = coefficient kk across all arms, intercept row last — the layout
// linalg::score_block streams) so bank-wide scoring (predict_all, the greedy
// pass, LinUCB's LCB sweep, Thompson's draw loop) runs over contiguous
// memory instead of re-walking one heap-backed estimator per arm. The plane
// is always valid: every write to an arm — observe, snapshot restore,
// merge, reset — goes through a bank method that refreshes that arm's
// column, and arms are read-only from outside. The plane is also what
// BanditWare::freeze copies into a published snapshot.

#include <memory>
#include <span>
#include <vector>

#include "core/tolerant.hpp"
#include "core/types.hpp"
#include "hardware/catalog.hpp"
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

/// Copies `arm`'s evidence into `out`, reusing its storage.
void copy_stats(const linalg::RecursiveLeastSquares& arm, ArmStats& out);

class ArmBank {
 public:
  /// One make_arm(num_features, fit) per catalog arm; resource costs are
  /// precomputed from the catalog for the tolerant tie-break. Throws
  /// InvalidArgument on an empty catalog, no features, or a negative or
  /// NaN tolerance ratio or seconds.
  ArmBank(const hw::HardwareCatalog& catalog, std::size_t num_features,
          const linalg::FitOptions& fit, const ToleranceParams& tolerance,
          const hw::ResourceWeights& weights);

  /// A fresh arm for `dim` features: prior ridge fit.ridge (1e-8 when it
  /// is 0), forgetting factor fit.forgetting. Throws InvalidArgument when
  /// fit.intercept is false — the recursive update always fits b.
  static linalg::RecursiveLeastSquares make_arm(std::size_t dim,
                                                const linalg::FitOptions& fit);

  std::size_t size() const { return arms_.size(); }
  /// Feature count d. Stored at construction — never derived from
  /// arms_.front(), which would be UB on an empty bank.
  std::size_t dim() const { return dim_; }

  /// Records an observation on one arm (Alg. 1 lines 10-11) and refreshes
  /// that arm's theta-plane column. Throws InvalidArgument on a non-finite
  /// runtime (the arm checks x).
  void observe(ArmIndex arm, const FeatureVector& x, double runtime_s);

  /// Reinstates saved evidence on one arm (snapshot restore,
  /// BanditWare::from_stats) and refreshes its column.
  void restore_arm(ArmIndex arm, const ArmStats& stats);

  /// Folds another arm's evidence into one arm (RLS::merge, `base` the
  /// common ancestor or null) and refreshes its column.
  void merge_arm(ArmIndex arm, const linalg::RecursiveLeastSquares& other,
                 const linalg::RecursiveLeastSquares* base);

  /// Current estimate R̂(H_arm, x).
  double predict(ArmIndex arm, const FeatureVector& x) const;

  /// x̃ᵀA_arm⁻¹x̃ — the posterior-width quadratic form LinUCB's confidence
  /// bound and Thompson's posterior draw share.
  double variance_proxy(ArmIndex arm, const FeatureVector& x) const;

  /// R̂ for every arm in one pass over the theta plane — bitwise equal to
  /// calling predict per arm. `out` must have size() entries.
  void predict_all(const FeatureVector& x, std::span<double> out) const;
  std::vector<double> predict_all(const FeatureVector& x) const;

  /// x̃ᵀA_arm⁻¹x̃ for every arm with the intercept augmentation and the
  /// solve scratch hoisted out of the loop — bitwise equal to calling
  /// variance_proxy per arm. `out` must have size() entries.
  void variance_proxy_all(const FeatureVector& x, std::span<double> out) const;

  /// Tolerant-greedy choice with its predicted runtime — one predict_all
  /// pass into the shared per-thread DecisionScratch.
  TolerantChoice recommend_choice(const FeatureVector& x) const;

  const linalg::RecursiveLeastSquares& arm(ArmIndex index) const;

  /// The transposed (d+1) x size theta plane: column `arm` holds that arm's
  /// [w; b], row kk holds coefficient kk across all arms.
  const std::vector<double>& plane() const { return theta_plane_; }

  /// The catalog's resource costs. Immutable and shared, so every copy of
  /// the bank and every snapshot frozen from it hold the same table.
  const std::shared_ptr<const std::vector<double>>& shared_resource_costs() const {
    return resource_costs_;
  }
  const ToleranceParams& tolerance() const { return tolerance_; }

  void reset();

 private:
  void fill_plane_column(ArmIndex arm);

  std::vector<linalg::RecursiveLeastSquares> arms_;
  std::shared_ptr<const std::vector<double>> resource_costs_;
  ToleranceParams tolerance_;
  std::size_t dim_ = 0;
  /// Transposed (d+1) x size plane mirroring each arm's [w; b] as a
  /// column. Written only by the bank's mutating methods, which every
  /// caller runs under an exclusive lock, so const readers under shared
  /// locks never race on it.
  std::vector<double> theta_plane_;
};

}  // namespace bw::core
