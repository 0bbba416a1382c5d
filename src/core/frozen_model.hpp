#pragma once
// FrozenModel — an immutable, structurally-shared snapshot of a BanditWare
// instance's greedy serving surface (the tolerant-greedy pass every policy
// kind shares). The serve layer publishes one of these per shard and each
// reader thread caches its own reference, revalidated by one load of the
// shard's publication epoch (RCU-style), so a pure-exploitation recommend
// is a predict against frozen state — no shard mutex touched and, while
// the shard has not republished, no shared memory written (ROADMAP "Read
// publication").
//
// A snapshot holds exactly what the greedy pass reads and nothing else: one
// fitted linalg::LinearModel per arm (O(d) doubles — not the O(d^2)
// sufficient statistics, which only writers need), the catalog's resource
// costs, and the tolerance parameters. Prediction runs through the same
// LinearModel::predict and tolerant_select the live ArmBank pass uses, so a
// frozen recommend is byte-identical to a shared-lock recommend against the
// model it was frozen from.
//
// Structural sharing keeps republication off the O(arms) cliff: per-arm
// state lives in individually shared nodes, so rebuilding after a write
// (BanditWare::refreeze) allocates new nodes only for the arms the write
// touched and shares every other node with the previous snapshot —
// O(dirty * d + arms) per publish instead of O(arms * d), which is what
// makes per-batch republication affordable at hardware-catalog scale.
//
// Decision kernel (ROADMAP "Decision kernel"): alongside the shared nodes
// — which remain the publish/refreeze currency — every snapshot carries a
// contiguous TRANSPOSED (d+1) x arms coefficient plane: row kk holds
// coefficient kk across every arm, the intercept row last (matching the
// linalg/intercept convention). Scoring all arms is then one GEMM-shaped
// pass whose inner loop streams unit-stride across arms (linalg::
// score_block), instead of a pointer chase through one heap node per arm,
// and batched greedy reads (recommend_greedy_batch) amortize one traversal
// of the plane across B concurrent contexts. Each arm's score still
// accumulates its dot product in the same index order as
// LinearModel::predict, so decisions are byte-identical to the scalar
// node walk (recommend_choice_scalar — kept as the pinned reference path).
// Refreeze copies the previous snapshot's plane flat and rewrites only the
// dirty columns, so the delta publish stays one memcpy plus O(dirty * d).
//
// Instances are deeply immutable after construction and safe to read from
// any number of threads with no synchronization beyond the publication
// that handed them out. Build them via BanditWare::freeze / refreeze.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tolerant.hpp"
#include "core/types.hpp"
#include "linalg/lstsq.hpp"

namespace bw::core {

/// One frozen arm: the fitted linear model only. Nodes are the unit of
/// structural sharing between successive snapshots.
struct FrozenArm {
  linalg::LinearModel model;
};

class FrozenModel {
 public:
  /// Assembled by BanditWare::freeze / refreeze; `epoch` is the publisher's
  /// per-shard publication counter (readers use it to assert monotonic
  /// snapshot visibility — a reader must never observe an epoch go
  /// backwards on one shard).
  FrozenModel(std::vector<std::shared_ptr<const FrozenArm>> arms,
              std::shared_ptr<const std::vector<double>> resource_costs,
              ToleranceParams tolerance, std::size_t num_features,
              std::uint64_t epoch);

  /// Delta-assembly ctor (BanditWare::refreeze): identical to the one above
  /// except the coefficient plane is copied flat from `prev` and only the
  /// columns in `dirty` are re-read from their (freshly allocated) arm
  /// nodes. `prev` must have the same shape.
  FrozenModel(std::vector<std::shared_ptr<const FrozenArm>> arms,
              std::shared_ptr<const std::vector<double>> resource_costs,
              ToleranceParams tolerance, std::size_t num_features,
              std::uint64_t epoch, const FrozenModel& prev,
              std::span<const ArmIndex> dirty);

  std::size_t num_arms() const { return arms_.size(); }
  std::size_t dim() const { return num_features_; }
  std::uint64_t epoch() const { return epoch_; }

  /// Tolerant-greedy choice with its predicted runtime. Scores every arm
  /// as one matrix-vector pass over the contiguous coefficient plane into
  /// the shared per-thread DecisionScratch, then runs the same
  /// tolerant_select as the live ArmBank pass — byte-identical to
  /// recommend_choice_scalar (pinned in tests/test_decision_kernel.cpp).
  TolerantChoice recommend_choice(const FeatureVector& x) const;

  /// The scalar reference path: the original per-node predict walk. This is
  /// the FP-order source of truth the vectorized plane is pinned bitwise
  /// against, and the pointer-chasing baseline the decide bench gate
  /// measures the kernel speedup from.
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

  /// R̂ for one arm against the frozen weights.
  double predict(ArmIndex arm, const FeatureVector& x) const;

  /// Arm `arm`'s plane column gathered as [w_0 .. w_{d-1}, b]. Test hook
  /// for the plane-vs-node identity contract.
  std::vector<double> weight_row(ArmIndex arm) const;

  /// The shared per-arm node — exposed so refreeze can share untouched
  /// nodes and tests can pin the structural-sharing contract by pointer
  /// identity.
  const std::shared_ptr<const FrozenArm>& arm_node(ArmIndex arm) const;

  const std::shared_ptr<const std::vector<double>>& shared_resource_costs() const {
    return resource_costs_;
  }
  const ToleranceParams& tolerance() const { return tolerance_; }

 private:
  void validate() const;
  /// Copies arm `arm`'s node coefficients into its plane column.
  void fill_plane_column(ArmIndex arm);

  std::vector<std::shared_ptr<const FrozenArm>> arms_;
  std::shared_ptr<const std::vector<double>> resource_costs_;
  ToleranceParams tolerance_;
  std::size_t num_features_;
  std::uint64_t epoch_;
  /// Transposed (d+1) x arms coefficient plane: row kk = coefficient kk
  /// across all arms, intercept row last (the layout linalg::score_block
  /// streams). Assembled at freeze/refreeze; immutable afterwards like
  /// everything else here.
  std::vector<double> weight_plane_;
};

}  // namespace bw::core
