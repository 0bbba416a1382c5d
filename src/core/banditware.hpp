#pragma once
// BanditWare — the user-facing API of the framework (paper Fig. 1).
//
// Typical integration loop (what the NDP deployment does):
//
//   bw::core::BanditWare bw(catalog, {"num_tasks"}, config);
//   bw::Rng rng(42);
//   for (auto& workflow : incoming) {
//     auto decision = bw.next(workflow.features, rng);   // pick hardware
//     double runtime = run_on(decision.spec, workflow);  // execute
//     bw.observe(decision.arm, workflow.features, runtime);
//   }
//   const auto& best = bw.recommend(features);           // pure exploitation
//
// The learning policy is a pluggable axis (BanditWareConfig::policy_kind):
// the paper's decaying ε-greedy (default), LinUCB, or linear-Gaussian
// Thompson sampling. All three run on the same per-arm ridge-RLS substrate
// (core/arm_bank.hpp), so merging, sufficient-statistics export, and
// snapshots work identically whichever policy serves.
//
// State can be saved to / restored from a plain-text snapshot so a service
// can restart without losing what it learned.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/epsilon_greedy.hpp"
#include "core/linucb.hpp"
#include "core/thompson.hpp"
#include "hardware/catalog.hpp"

namespace bw::io {
struct StateAccess;  // src/io/: the snapshot codecs' window into internals
}

namespace bw::core {

class FrozenModel;  // core/frozen_model.hpp: immutable greedy-surface snapshot

struct BanditWareConfig {
  /// Which learning policy drives next()/observe(). All policies share the
  /// substrate options in `policy` (fit, tolerance, resource weights).
  PolicyKind policy_kind = PolicyKind::kEpsilonGreedy;
  /// ε-greedy schedule plus the substrate options every policy shares.
  EpsilonGreedyConfig policy{};
  double alpha = 1.0;            ///< LinUCB confidence width (kLinUcb only)
  double posterior_scale = 1.0;  ///< Thompson sampling v (kThompson only)
};

/// Compact copy of a whole instance's learned state: per-arm evidence
/// (R, z, n) plus the exploration rate. O(arms * d^2) to take — no text
/// serialization, no catalog copy. The serve layer's async cross-shard
/// sync stages these under brief shared locks and runs the fusion math
/// (summed information, baseline subtraction, one factorization per arm)
/// entirely off the hot path.
struct BanditWareStats {
  double epsilon = 1.0;  ///< ε-greedy exploration state (0 for other kinds)
  std::vector<ArmStats> arms;  ///< indexed like the catalog

  std::size_t num_observations() const {
    std::size_t total = 0;
    for (const auto& arm : arms) total += arm.n;
    return total;
  }
};

class BanditWare {
 public:
  /// `feature_names` documents (and sizes) the workflow feature vector.
  BanditWare(hw::HardwareCatalog catalog, std::vector<std::string> feature_names,
             BanditWareConfig config = {});

  struct Decision {
    ArmIndex arm = 0;
    const hw::HardwareSpec* spec = nullptr;
    bool explored = false;             ///< true if this was a non-greedy pick
    double predicted_runtime_s = 0.0;  ///< R̂ for the chosen arm (0 if untrained)
  };

  /// Online step: selects hardware for the next workflow (may explore).
  /// ε-greedy flips the ε-coin; LinUCB picks the optimistic LCB arm;
  /// Thompson draws from each arm's posterior. `explored` reports whether
  /// the pick differed from the tolerant-greedy recommendation.
  Decision next(const FeatureVector& x, Rng& rng);

  /// Greedy tolerant recommendation — never explores.
  const hw::HardwareSpec& recommend(const FeatureVector& x) const;
  ArmIndex recommend_index(const FeatureVector& x) const;

  /// Feeds back an observed runtime (ε-greedy also decays ε, per Alg. 1).
  void observe(ArmIndex arm, const FeatureVector& x, double runtime_s);

  /// Folds another instance's learned state into this one by fusing per-arm
  /// evidence (exact under the shared ridge prior — merging
  /// two independently trained instances reproduces the single-stream
  /// result; see tests/test_merge_equivalence.cpp). Arms are matched by
  /// hardware name; arms only `other` knows are appended (union of arms).
  /// Both instances must run the same policy kind with matching policy
  /// scalars (ε schedule for ε-greedy, alpha for LinUCB, posterior scale
  /// for Thompson) — all three kinds sit on the same information-form
  /// evidence, so the arm algebra is shared, but cross-policy fusion is
  /// rejected. ε is combined multiplicatively (ε_merged = ε_self · ε_other
  /// / ε₀), matching one decay per absorbed observation. Pass the common
  /// ancestor both instances grew from as `base` (replica sync) so shared
  /// evidence is counted once. Requires matching feature names, ridge prior,
  /// forgetting factor and policy; throws InvalidArgument otherwise.
  void merge_from(const BanditWare& other, const BanditWare* base = nullptr);

  /// Copies out the learned state as per-arm evidence — O(arms * d^2), no
  /// text snapshot.
  BanditWareStats export_stats() const;

  /// Rebuilds an instance from export_stats() output plus the immutable
  /// construction parameters (catalog, feature names, config). Exact
  /// inverse of export_stats(): predictions and epsilon match the source
  /// bit-for-bit. Throws InvalidArgument on arm-count or shape mismatch.
  static BanditWare from_stats(const hw::HardwareCatalog& catalog,
                               const std::vector<std::string>& feature_names,
                               const BanditWareConfig& config,
                               const BanditWareStats& stats);

  /// from_stats in place: reinstates ε (ε-greedy only) and the evidence of
  /// every arm `arms` flags, refreshing those arms' plane columns; every
  /// other arm keeps its evidence and column bit for bit. Allocates nothing.
  /// Throws InvalidArgument on an arm-count mismatch, or when a flagged
  /// arm's evidence is invalid — arms before it are then already restored.
  void restore_stats(const BanditWareStats& stats, const std::vector<bool>& arms);

  /// Immutable snapshot of the greedy serving surface (core/frozen_model.hpp)
  /// — what the serve layer publishes per shard, behind an epoch its reader
  /// threads' caches revalidate against, so pure-exploitation recommends
  /// never touch a shard lock. One copy of the bank's (d+1) x arms
  /// coefficient plane, never the O(d^2) sufficient statistics; the
  /// resource-cost table is shared, not copied. `epoch` is the publisher's
  /// per-shard publication counter, carried inside the snapshot for
  /// reader-side monotonicity checks.
  std::shared_ptr<const FrozenModel> freeze(std::uint64_t epoch = 0) const;

  /// R̂(H_i, x) for every arm.
  std::vector<double> predictions(const FeatureVector& x) const;

  /// Current ε of the ε-greedy schedule; 0 for LinUCB/Thompson (their
  /// exploration is driven by posterior width, not a decaying rate).
  double epsilon() const;

  std::size_t num_observations() const;
  std::size_t num_arms() const { return catalog_.size(); }
  const BanditWareConfig& config() const { return config_; }
  PolicyKind policy_kind() const { return config_.policy_kind; }
  const hw::HardwareCatalog& catalog() const { return catalog_; }
  const std::vector<std::string>& feature_names() const { return feature_names_; }

  /// The per-arm learned model, whichever policy runs — what inspection
  /// tools and state loaders read.
  const LinearArmModel& arm_model(ArmIndex arm) const;

  /// The ε-greedy policy instance. Only valid when policy_kind() is
  /// kEpsilonGreedy (the historical accessor; policy-agnostic callers use
  /// arm_model()/epsilon() instead). Throws InvalidArgument otherwise.
  const DecayingEpsilonGreedy& policy() const;

  /// Plain-text state snapshot: config (λ, ridge, policy, schedule) +
  /// catalog + per-arm evidence (R, z, n) + ε. Cost is O(arms * d^2)
  /// independent of how many observations were absorbed. Every instance
  /// writes format `banditware-state v5`; older versions are load-only.
  ///
  /// Back-compat convenience over the io layer: equivalent to
  /// `io::save_state(os, *this, io::Format::kText)`. The binary format
  /// (and format auto-detection) lives in src/io/state_io.hpp.
  std::string save_state() const;

  /// Rebuilds an instance from a serialized snapshot, any format: text v5
  /// (evidence records), the legacy (θ, P) bodies v2-v4 (converted once by
  /// the RLS), legacy v1 (raw observation rows, restored by replay; v1/v2
  /// always load as ε-greedy), or the binary container — a thin wrapper
  /// over `io::load_state`, which auto-detects from the leading bytes.
  /// Throws ParseError on malformed input.
  static BanditWare load_state(const std::string& text);

 private:
  /// Exactly one of these runs, selected by config.policy_kind. A variant
  /// (not a pointer) keeps the facade copyable and no-throw movable — the
  /// serve layer's publish step depends on move-assigning shards without
  /// throwing.
  using ProductionPolicy = std::variant<DecayingEpsilonGreedy, LinUcb, LinearThompson>;

  static ProductionPolicy make_policy(const hw::HardwareCatalog& catalog,
                                      std::size_t num_features,
                                      const BanditWareConfig& config);

  // The io-layer codecs (src/io/) restore stats and replay histories
  // through the policy bank; nothing else sees it.
  friend struct bw::io::StateAccess;

  BankedPolicy& banked();
  const BankedPolicy& banked() const;
  DecayingEpsilonGreedy* eps_greedy();
  const DecayingEpsilonGreedy* eps_greedy() const;

  hw::HardwareCatalog catalog_;
  std::vector<std::string> feature_names_;
  BanditWareConfig config_;
  ProductionPolicy policy_;
};

}  // namespace bw::core
