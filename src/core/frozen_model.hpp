#pragma once
// FrozenModel — an immutable snapshot of a BanditWare instance's greedy
// serving surface (the tolerant-greedy pass every policy kind shares). The
// serve layer publishes one of these per shard and each reader thread
// caches its own reference, revalidated by one load of the shard's
// publication epoch (RCU-style), so a pure-exploitation recommend is a
// predict against frozen state — no shard mutex touched and, while the
// shard has not republished, no shared memory written (ROADMAP "Read
// publication").
//
// A snapshot holds exactly what the greedy pass reads and nothing else: one
// coefficient plane (O(arms * d) doubles — not the O(d^2) sufficient
// statistics, which only writers need), the catalog's resource costs, and
// the tolerance parameters. The plane is TRANSPOSED, (d+1) x arms: row kk
// holds coefficient kk across every arm, the intercept row last (the
// linalg/intercept convention). BanditWare::freeze builds it with one copy
// of the live ArmBank's plane, so publishing copies one contiguous buffer
// and retiring a snapshot frees it, with no per-arm allocation or
// refcount; the cost table is shared by pointer with the bank and every
// other snapshot.
//
// Decision kernel (ROADMAP "Decision kernel"): scoring all arms is one
// register-blocked GEMM-shaped pass over the plane (linalg::score_block:
// tiles of 4 contexts x 8 arms on AVX2 CPUs, 2 x 8 on the SSE2 baseline,
// or 16 arms for a lone context), and batched greedy reads
// (recommend_greedy_batch) share each plane load across a tile's
// contexts. The pick is tolerant_select, whose catalogs of 16 arms or more
// run a branchless vectorized kernel. Each
// arm's score accumulates its dot product in the same index order as
// LinearModel::predict, and the select returns the old two-scan loop's
// bits, so a frozen decision is byte-identical to a shared-lock decision
// against the live model it was frozen from, and to the per-arm column
// walk (recommend_choice_scalar).
//
// Instances are deeply immutable after construction and safe to read from
// any number of threads with no synchronization beyond the publication
// that handed them out. Build them via BanditWare::freeze.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/tolerant.hpp"
#include "core/types.hpp"

namespace bw::core {

class FrozenModel {
 public:
  /// `weight_plane` is the transposed (d+1) x arms plane described above,
  /// with arms = resource_costs->size(). `epoch` is the publisher's
  /// per-shard publication counter (readers use it to assert monotonic
  /// snapshot visibility — a reader must never observe an epoch go
  /// backwards on one shard). Throws InvalidArgument if d is 0, the cost
  /// table is null or empty, or the plane is not (d+1) x arms.
  FrozenModel(std::vector<double> weight_plane,
              std::shared_ptr<const std::vector<double>> resource_costs,
              ToleranceParams tolerance, std::size_t num_features,
              std::uint64_t epoch);

  std::size_t num_arms() const { return num_arms_; }
  std::size_t dim() const { return num_features_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Tolerant-greedy choice with its predicted runtime. Scores every arm
  /// in one score_block pass over the plane into the shared per-thread
  /// DecisionScratch, then runs the same tolerant_select as the live
  /// ArmBank pass — byte-identical to recommend_choice_scalar (pinned in
  /// tests/test_decision_kernel.cpp).
  TolerantChoice recommend_choice(const FeatureVector& x) const;

  /// The plain per-arm loop: each arm's score is one dot product down its
  /// plane column in LinearModel::predict's order. A reference for the
  /// kernel, and what perfbench's checked reads compare against.
  TolerantChoice recommend_choice_scalar(const FeatureVector& x) const;

  /// Batched greedy reads: packs the contexts xs[items[j]] into a
  /// B x (d+1) panel and scores all arms for all of them with one blocked
  /// linalg::score_block call, writing the tolerant choice for items[j]
  /// into out[j]. Decisions are byte-identical to calling recommend_choice
  /// per context. `out` must have items.size() entries.
  void recommend_greedy_batch(std::span<const FeatureVector> xs,
                              std::span<const std::size_t> items,
                              std::span<TolerantChoice> out) const;

  /// Convenience form: one choice per context, in order.
  std::vector<TolerantChoice> recommend_greedy_batch(
      std::span<const FeatureVector> xs) const;

  /// Arm `arm`'s plane column gathered as [w_0 .. w_{d-1}, b].
  std::vector<double> weight_row(ArmIndex arm) const;

  const std::shared_ptr<const std::vector<double>>& shared_resource_costs() const {
    return resource_costs_;
  }
  const ToleranceParams& tolerance() const { return tolerance_; }

 private:
  std::vector<double> weight_plane_;
  std::shared_ptr<const std::vector<double>> resource_costs_;
  ToleranceParams tolerance_;
  std::size_t num_features_;
  std::size_t num_arms_ = 0;
  std::uint64_t epoch_;
};

}  // namespace bw::core
