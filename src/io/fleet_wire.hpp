#pragma once
// Wire formats for multi-node fleet sync (src/fleet/), built on the same
// packet-framed, CRC-checked binary container as the snapshot formats
// (io/container.hpp). Two payload kinds:
//
//   * kFleetDelta (4) — one gossip message: the sender's identity, a
//     config envelope the receiver cross-checks (policy token, scalars,
//     forgetting factor λ, ridge, shape), per-origin blocks of cumulative
//     per-arm evidence (R's packed upper triangle, z, n — raw LE doubles,
//     bit-exact), and the sender's per-origin/per-arm version vector.
//     Writers emit wire version 2; version 1's (θ, P) entries load through
//     the RLS's one legacy conversion. Origin blocks
//     carry *cumulative* statistics, not increments: because every origin
//     stream is appended by exactly one node, the stats at count n extend
//     the stats at any smaller count, so receivers apply each entry with
//     replace-if-larger-n — idempotent and commutative, which is what lets
//     a message be dropped, delayed, reordered, or duplicated freely.
//   * kFleetNode (5) — a fleet node's durable snapshot: the node identity
//     and incarnation, its wrapped BanditServer state as a nested kind-2
//     container blob, and the full origin store.
//
// Both readers share the container's tolerant-truncation contract: a torn
// stream yields everything before the tear and sets `truncated` (for a
// gossip message a partial apply is harmless — replace semantics means the
// rest simply arrives with a later message). Semantic contradictions inside
// a checksum-valid packet — hostile counts, out-of-range arms, duplicate
// blocks, evidence the RLS would reject — are hard ParseErrors, never a
// bad_alloc.

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "core/arm_bank.hpp"
#include "core/policy.hpp"

namespace bw::io {

/// Hard cap on distinct origins (node × incarnation pairs) in one message
/// or snapshot — far above any real fleet, small enough that a hostile
/// count fails before allocating anything interesting.
inline constexpr std::uint32_t kMaxFleetOrigins = 4096;

/// Identity of one observation stream: every observation belongs to the
/// node that absorbed it, under the incarnation it was running at the
/// time. Restart-from-snapshot bumps the incarnation, so a pre-crash
/// stream and its post-restart successor never collide.
struct FleetOriginKey {
  std::uint32_t node = 0;
  std::uint32_t incarnation = 0;
  auto operator<=>(const FleetOriginKey&) const = default;
};

/// Config envelope cross-checked on receive: fusing statistics produced
/// under a different policy, discount, or ridge would be silently wrong,
/// so a mismatch rejects the whole message.
struct FleetWireConfig {
  core::PolicyKind policy = core::PolicyKind::kEpsilonGreedy;
  double alpha = 1.0;             ///< LinUCB confidence width
  double posterior_scale = 1.0;   ///< Thompson posterior scale v
  double initial_epsilon = 1.0;   ///< ε-greedy schedule anchor ε₀
  double decay = 0.99;            ///< ε-greedy decay per observation
  double lambda = 1.0;            ///< RLS forgetting factor λ ∈ (0, 1]
  double ridge = 0.0;             ///< prior ridge on [w; b]
  std::uint32_t num_features = 0;
  std::uint32_t num_arms = 0;

  bool operator==(const FleetWireConfig&) const = default;
};

/// Cumulative evidence of one (origin, arm) stream prefix.
struct FleetArmEntry {
  std::uint32_t arm = 0;
  core::ArmStats stats;
};

/// All entries a message carries for one origin.
struct FleetOriginBlock {
  FleetOriginKey origin;
  std::vector<FleetArmEntry> arms;
};

/// One origin's per-arm observation counts as known to the sender — the
/// receiver learns what the sender already has and stops re-sending it.
struct FleetVvEntry {
  FleetOriginKey origin;
  std::vector<std::uint64_t> per_arm_n;  ///< size = num_arms
};

/// One gossip message.
struct FleetDelta {
  std::uint32_t sender = 0;
  std::uint32_t sender_incarnation = 0;
  FleetWireConfig config;
  std::vector<FleetOriginBlock> origins;
  std::vector<FleetVvEntry> version_vector;
};

/// One fleet node snapshot.
struct FleetNodeState {
  std::uint32_t node = 0;
  std::uint32_t incarnation = 0;
  FleetWireConfig config;
  std::string server_blob;  ///< nested kind-2 (banditserver-state) container
  std::vector<FleetOriginBlock> origins;
  /// Set by load_fleet_node for wire version 1, whose engine blob predates
  /// snapshots that persist the ridge: `config.ridge` is the engine's.
  /// save_fleet_node ignores it.
  bool legacy_engine = false;
};

std::string save_fleet_delta(const FleetDelta& delta);

/// Parses a gossip message. A torn stream returns everything before the
/// tear and sets *truncated (when non-null); malformed bytes throw
/// ParseError. The header packet is mandatory — a stream torn before it
/// carries nothing applicable and is a ParseError.
FleetDelta load_fleet_delta(const std::string& bytes, bool* truncated = nullptr);

std::string save_fleet_node(const FleetNodeState& state);

/// Parses a node snapshot. Same truncation contract; the header and the
/// server blob are mandatory (a node cannot restart without its engine),
/// origin blocks after the tear are simply re-learned via gossip.
FleetNodeState load_fleet_node(const std::string& bytes, bool* truncated = nullptr);

}  // namespace bw::io
