#pragma once
// ArmBank — the shared per-arm ridge-RLS substrate every production policy
// sits on. ε-greedy, LinUCB, and linear-Gaussian Thompson sampling all keep
// one LinearArmModel per hardware arm, predict with the same tolerant-greedy
// pass over the same resource-cost ordering, and fuse/serialize the same
// information-form sufficient statistics. Before this layer each policy
// re-implemented that loop; now the policies differ only in how they pick an
// arm during exploration (ε-coin, LCB optimism, posterior draw).
//
// Decision kernel (ROADMAP "Decision kernel"): alongside the per-arm
// objects the bank maintains a TRANSPOSED (d+1) x size theta plane (row kk
// = coefficient kk across all arms, intercept row last — the layout
// linalg::score_block streams) so bank-wide scoring (predict_all, the greedy
// pass, LinUCB's LCB sweep, Thompson's draw loop) runs over contiguous
// memory instead of re-walking one heap-backed model per arm. The plane is
// refreshed eagerly in observe() — an exclusive-lock context in every
// caller — and invalidated by the non-const arm() accessor, which is how
// merge/restore/widen paths mutate arms behind the bank's back. While
// dirty, const readers fall back to the per-arm scalar loop (byte-identical
// results, no mutation from const paths, so shared-lock readers stay
// race-free); the next observe() rebuilds the plane.

#include <span>
#include <vector>

#include "core/arm_model.hpp"
#include "core/tolerant.hpp"
#include "core/types.hpp"
#include "hardware/catalog.hpp"

namespace bw::core {

class ArmBank {
 public:
  /// One LinearArmModel per catalog arm, built from `fit`; resource costs
  /// are precomputed from the catalog for the tolerant tie-break.
  ArmBank(const hw::HardwareCatalog& catalog, std::size_t num_features,
          const linalg::FitOptions& fit, const ToleranceParams& tolerance,
          const hw::ResourceWeights& weights);

  std::size_t size() const { return arms_.size(); }
  /// Feature count d. Stored at construction — never derived from
  /// arms_.front(), which would be UB on an empty bank.
  std::size_t dim() const { return dim_; }

  /// Records an observation on one arm (Alg. 1 lines 10-11) and refreshes
  /// that arm's theta-plane column (rebuilding the whole plane first if a
  /// non-const arm() access left it dirty).
  void observe(ArmIndex arm, const FeatureVector& x, double runtime_s);

  /// Current estimate R̂(H_arm, x).
  double predict(ArmIndex arm, const FeatureVector& x) const;

  /// x̃^T P_arm x̃ — the posterior-width quadratic form LinUCB's confidence
  /// bound and Thompson's posterior draw share.
  double variance_proxy(ArmIndex arm, const FeatureVector& x) const;

  /// R̂ for every arm in one pass over the theta plane (scalar per-arm walk
  /// while the plane is dirty — byte-identical either way). `out` must have
  /// size() entries.
  void predict_all(const FeatureVector& x, std::span<double> out) const;
  std::vector<double> predict_all(const FeatureVector& x) const;

  /// x̃^T P_arm x̃ for every arm with the intercept augmentation and the
  /// P x̃ scratch hoisted out of the loop — bitwise equal to calling
  /// variance_proxy per arm. `out` must have size() entries.
  void variance_proxy_all(const FeatureVector& x, std::span<double> out) const;

  /// Tolerant-greedy choice with its predicted runtime — one predict_all
  /// pass into the shared per-thread DecisionScratch.
  TolerantChoice recommend_choice(const FeatureVector& x) const;

  /// Non-const access marks the theta plane dirty: merge_from / restore /
  /// catalog-widening paths mutate the arm without going through observe().
  LinearArmModel& arm(ArmIndex index);
  const LinearArmModel& arm(ArmIndex index) const;

  const std::vector<double>& resource_costs() const { return resource_costs_; }
  const ToleranceParams& tolerance() const { return tolerance_; }

  void reset();

 private:
  void fill_plane_column(ArmIndex arm);
  void rebuild_plane();

  std::vector<LinearArmModel> arms_;
  std::vector<double> resource_costs_;
  ToleranceParams tolerance_;
  std::size_t dim_ = 0;
  /// Transposed (d+1) x size plane mirroring each arm's [w; b] as a
  /// column. Only written under the exclusive-lock contexts that may call
  /// observe()/reset()/non-const arm(), so const readers under shared locks
  /// never race on it.
  std::vector<double> theta_plane_;
  bool plane_dirty_ = false;
};

}  // namespace bw::core
