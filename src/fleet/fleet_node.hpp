#pragma once
// FleetNode — one member of a multi-node BanditWare fleet, gossiping
// learned evidence as sufficient-statistic deltas (src/io/fleet_wire.hpp).
//
// The unit of replication is the *origin stream*: every observation belongs
// to the (node, incarnation) that absorbed it, and each node keeps, per
// origin, the cumulative per-arm evidence (R, z, n) of that origin's
// stream prefix it has seen. Because a stream is appended by
// exactly one writer, the statistics at count n extend the statistics at
// any smaller count — so state exchange needs no increments, acks, or
// ordering: a gossip message carries cumulative entries and the receiver
// applies replace-if-larger-n per (origin, arm). The apply is idempotent
// and commutative; messages may be dropped, delayed, reordered, or
// duplicated freely and evidence is never lost or double-counted.
//
// Serving model: the node's engine (a wrapped serve::BanditServer) adopts
// the *canonical fold* of the origin store — per arm, a fresh prior merged
// with every origin's statistics in ascending (node, incarnation) order via
// the same information-form algebra as cross-shard sync
// (core::LinearArmModel::merge with no base, so exactly one ridge prior
// survives). Every node folds in the same order, so once their origin
// stores agree their serving models agree bit-for-bit with a single
// learner fed the origin streams in that canonical order — including under
// a forgetting factor λ < 1, where the fold order is the discount order.
// ε-greedy's scalar decays once per observation, so an origin's
// exploration state is derived as ε₀ · αⁿ and chains multiplicatively
// through the fold exactly like the single learner's repeated decay.
//
// Arms fuse independently, so the node keeps the fold as persistent
// per-arm state plus a dirty-arm set. A rebuild refolds only the arms
// whose origin slots advanced since the last one — through an apply, or
// through a local observation on the self-origin slot — and reuses the
// rest, which is bitwise identical to refolding every arm. Between
// rebuilds the engine also trains on local feedback directly, so it serves
// the fold plus that feedback until the next apply replaces it.
//
// Anti-entropy: each message also carries the sender's version vector
// (per-origin per-arm counts). Receivers remember the freshest vector per
// peer and send only entries the peer lacks — steady-state gossip is
// version vectors only. The vector is a *floor* on what the peer holds
// (learned from its own messages, never assumed from ours), so a dropped
// message merely leaves the floor low and the entries re-send next round.
//
// Crash/restart: restore() rebuilds a node from its durable snapshot and
// bumps the incarnation, closing the old origin stream forever — the
// pre-crash prefix survives at whatever count any node (including the
// snapshot) holds, and the restarted node appends under the new identity.
// A node is authoritative for its *current* stream: incoming entries for
// (node_id, current incarnation) are counted stale and skipped, while old
// incarnations are accepted like any other origin (a peer may well hold
// more of the pre-crash stream than the snapshot did).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/fleet_wire.hpp"
#include "serve/bandit_server.hpp"

namespace bw::fleet {

using io::FleetDelta;
using io::FleetOriginKey;

struct FleetNodeConfig {
  std::uint32_t node_id = 0;
  serve::BanditServerConfig server{};  ///< applied to the wrapped engine
};

/// What FleetNode::apply_delta did with a message.
struct ApplyResult {
  std::size_t applied = 0;  ///< entries that advanced an (origin, arm)
  std::size_t stale = 0;    ///< entries at or behind what we already held
  bool changed = false;     ///< applied > 0 (the serving model was rebuilt)
};

class FleetNode {
 public:
  FleetNode(hw::HardwareCatalog catalog, std::vector<std::string> feature_names,
            FleetNodeConfig config);

  std::uint32_t node_id() const { return node_id_; }
  std::uint32_t incarnation() const { return incarnation_; }
  FleetOriginKey self_origin() const { return {node_id_, incarnation_}; }

  /// The wrapped serving engine (recommend paths; const inspection). Feed
  /// observations through FleetNode::observe_batch, never the engine
  /// directly — the node must mirror them into its origin stream.
  serve::BanditServer& server() { return server_; }
  const serve::BanditServer& server() const { return server_; }

  std::vector<serve::ServeDecision> recommend_batch(
      const std::vector<core::FeatureVector>& xs);

  /// Absorbs local feedback: trains the serving engine and appends the
  /// observations (in batch order) to this node's origin stream. A batch
  /// the engine rejects reaches neither.
  void observe_batch(const std::vector<serve::ServeObservation>& observations);

  /// Builds the gossip message for `peer`: every (origin, arm) entry that
  /// is ahead of the freshest version vector the peer has sent us (all
  /// entries, for a peer we have never heard from), plus our own version
  /// vector. Symmetric and ack-free.
  FleetDelta make_delta(std::uint32_t peer) const;

  /// Applies a gossip message: cross-checks the config envelope (throws
  /// ParseError on any mismatch — fusing across policies, schedules, λ, or
  /// shapes would be silently wrong), records the sender's version vector,
  /// replace-if-larger-n folds each entry, and — when anything advanced —
  /// rebuilds the serving model from the canonical fold.
  ApplyResult apply_delta(const FleetDelta& delta);

  /// The canonical fold of the origin store (see file comment), every arm
  /// folded afresh. This is the node's fleet-wide model: deterministic in
  /// the store's contents, identical across nodes whose stores agree, and
  /// exactly what the engine serves after a rebuild.
  core::BanditWare fused_model() const;

  /// Refolds the dirty arms, then makes the engine adopt them in place
  /// (BanditServer::adopt_stats): each shard and the sync baseline restore
  /// only the refolded arms' evidence and ε, and each shard republishes
  /// once. apply_delta runs this automatically; exposed for harnesses that
  /// batch several applies before paying the rebuild. The dirty marks
  /// clear only once the engine has adopted the result, so a rebuild that
  /// throws leaves them for the next one.
  void rebuild_from_origins();

  /// Per-origin per-arm counts of everything this node holds.
  std::vector<io::FleetVvEntry> version_vector() const;

  /// Total observations held across all origins / distinct origins held.
  std::uint64_t total_observations() const;
  std::size_t num_origins() const { return origins_.size(); }

  /// Durable snapshot (kind-5 container): identity, the full serving-engine
  /// state as a nested blob, and the origin store.
  std::string save_snapshot() const;

  /// Rebuilds a node from save_snapshot() bytes under a bumped incarnation
  /// (see file comment). Gossip accounting (version-vector floors) resets —
  /// it is soft state and re-learns from the first message per peer.
  static FleetNode restore(const std::string& bytes);

 private:
  FleetNode(serve::BanditServer server, std::uint32_t node_id,
            std::uint32_t incarnation);

  /// Folds `entries` (cumulative statistics) into the store under
  /// replace-if-larger-n and marks each arm whose slot advanced. Returns
  /// [applied, stale] entry counts.
  std::pair<std::size_t, std::size_t> fold_origin(
      const FleetOriginKey& origin, const std::vector<io::FleetArmEntry>& entries);

  /// One arm of the canonical fold, computed in `fused` (an arm of the
  /// learner's shape): reset to the prior, then merged with every origin's
  /// slot for `arm` in ascending key order, straight from the slot's
  /// evidence. Slots with n == 0 are skipped — merging a bare prior is an
  /// exact no-op. Allocates nothing.
  void fold_arm(std::size_t arm, core::LinearArmModel& fused) const;

  /// The canonical fold's ε-greedy scalar (0 for the other policies): the
  /// chain merge_from applies, over every origin holding evidence.
  double fold_epsilon() const;

  std::uint32_t node_id_ = 0;
  std::uint32_t incarnation_ = 1;
  /// The engine; its bandit config is the learner config for origin models
  /// and the canonical fold.
  serve::BanditServer server_;
  /// The config envelope this node stamps on and demands from every message.
  io::FleetWireConfig wire_config_;
  /// Scratch arm. Local feedback restores the self-origin slot into it,
  /// observes, and exports back — the same statistics a dedicated single
  /// learner would hold, bit for bit; a rebuild folds each dirty arm in it.
  core::LinearArmModel learner_;
  /// Prior-state template: origin slots start as copies so absent arms
  /// carry exactly the shared ridge prior.
  std::vector<core::ArmStats> prior_arms_;
  /// Origin store: per origin, full-width cumulative per-arm statistics
  /// (slots with n == 0 are the untouched prior, never serialized).
  std::map<FleetOriginKey, std::vector<core::ArmStats>> origins_;
  /// The canonical fold as of the last rebuild: fold_arm(arm) for every
  /// arm not marked in dirty_, plus the ε the engine adopted.
  core::BanditWareStats fused_;
  /// Arms whose origin slots changed since the last completed rebuild.
  std::vector<bool> dirty_;
  /// Freshest version vector received from one peer, tagged with the
  /// incarnation that sent it. The tag is what makes floors crash-safe: a
  /// restart loses the peer's in-memory store, so every claim learned from
  /// the dead incarnation is void — a message from a newer incarnation
  /// resets the floors, and a straggler from an older one cannot raise
  /// them (its origin *entries* still apply; cumulative statistics are
  /// valid forever, only the holdings claim expires).
  struct PeerView {
    std::uint32_t incarnation = 0;
    std::map<FleetOriginKey, std::vector<std::uint64_t>> floors;
  };
  /// Per-peer holdings floor. Soft state: never persisted, rebuilt from
  /// gossip (restore() starts empty and simply resends generously).
  std::map<std::uint32_t, PeerView> peer_known_;
};

}  // namespace bw::fleet
