#include "fleet/fleet_node.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "io/state_io.hpp"

namespace bw::fleet {

namespace {

io::FleetWireConfig wire_config_of(const serve::BanditServer& server) {
  const core::BanditWareConfig& bandit = server.config().bandit;
  io::FleetWireConfig wire;
  wire.policy = bandit.policy_kind;
  wire.alpha = bandit.alpha;
  wire.posterior_scale = bandit.posterior_scale;
  wire.initial_epsilon = bandit.policy.initial_epsilon;
  wire.decay = bandit.policy.decay;
  wire.lambda = bandit.policy.fit.forgetting;
  wire.ridge = bandit.policy.fit.ridge;
  wire.num_features = static_cast<std::uint32_t>(server.feature_names().size());
  wire.num_arms = static_cast<std::uint32_t>(server.catalog().size());
  return wire;
}

}  // namespace

FleetNode::FleetNode(hw::HardwareCatalog catalog,
                     std::vector<std::string> feature_names, FleetNodeConfig config)
    : FleetNode(serve::BanditServer(std::move(catalog), std::move(feature_names),
                                    config.server),
                config.node_id, 1) {}

FleetNode::FleetNode(serve::BanditServer server, std::uint32_t node_id,
                     std::uint32_t incarnation)
    : node_id_(node_id),
      incarnation_(incarnation),
      server_(std::move(server)),
      wire_config_(wire_config_of(server_)),
      learner_(core::ArmBank::make_arm(server_.feature_names().size(),
                                       server_.config().bandit.policy.fit)),
      dirty_(server_.catalog().size(), true) {
  core::ArmStats prior;
  core::copy_stats(learner_, prior);
  prior_arms_.assign(server_.catalog().size(), prior);
  origins_.emplace(self_origin(), prior_arms_);
  fused_.arms = prior_arms_;
}

std::vector<serve::ServeDecision> FleetNode::recommend_batch(
    const std::vector<core::FeatureVector>& xs) {
  return server_.recommend_batch(xs);
}

void FleetNode::observe_batch(
    const std::vector<serve::ServeObservation>& observations) {
  // The engine validates the whole batch (shape, routing, finiteness)
  // before applying any of it, so mirroring into the origin stream
  // afterwards keeps the two in lockstep even on a rejected batch.
  server_.observe_batch(observations);
  if (observations.empty()) return;
  std::vector<core::ArmStats>& slots = origins_.at(self_origin());
  for (const auto& obs : observations) {
    core::ArmStats& slot = slots[obs.arm];
    learner_.restore(slot.r, slot.z, slot.n);
    learner_.update(obs.x, obs.runtime_s);
    core::copy_stats(learner_, slot);
    dirty_[obs.arm] = true;
  }
}

FleetDelta FleetNode::make_delta(std::uint32_t peer) const {
  FleetDelta delta;
  delta.sender = node_id_;
  delta.sender_incarnation = incarnation_;
  delta.config = wire_config_;
  const auto known_it = peer_known_.find(peer);
  const auto* known =
      known_it != peer_known_.end() ? &known_it->second.floors : nullptr;
  for (const auto& [origin, arms] : origins_) {
    const std::vector<std::uint64_t>* floor = nullptr;
    if (known != nullptr) {
      const auto floor_it = known->find(origin);
      if (floor_it != known->end()) floor = &floor_it->second;
    }
    io::FleetOriginBlock block;
    block.origin = origin;
    for (std::size_t arm = 0; arm < arms.size(); ++arm) {
      const core::ArmStats& stats = arms[arm];
      if (stats.n == 0) continue;
      if (floor != nullptr && (*floor)[arm] >= stats.n) continue;
      block.arms.push_back({static_cast<std::uint32_t>(arm), stats});
    }
    if (!block.arms.empty()) delta.origins.push_back(std::move(block));
  }
  delta.version_vector = version_vector();
  return delta;
}

ApplyResult FleetNode::apply_delta(const FleetDelta& delta) {
  if (!(delta.config == wire_config_)) {
    throw ParseError("fleet: config envelope mismatch from node " +
                     std::to_string(delta.sender) +
                     " — refusing cross-config fusion");
  }
  ApplyResult result;
  for (const auto& block : delta.origins) {
    // Self-authority: this node is the sole writer of its current stream,
    // so an echo of it (or a claim about a future incarnation) is stale by
    // definition. Pre-crash incarnations are ordinary origins.
    if (block.origin.node == node_id_ && block.origin.incarnation >= incarnation_) {
      result.stale += block.arms.size();
      continue;
    }
    const auto [applied, stale] = fold_origin(block.origin, block.arms);
    result.applied += applied;
    result.stale += stale;
  }
  // Max-merge the sender's version vector: it is a floor on what the peer
  // holds, and floors only rise — within one incarnation. A restart loses
  // the peer's in-memory store, so a newer incarnation voids every floor
  // learned from the old one, and a straggling old-incarnation message
  // (whose entries were folded above — cumulative statistics never expire)
  // must not raise the new incarnation's floors.
  auto& view = peer_known_[delta.sender];
  if (delta.sender_incarnation > view.incarnation) {
    view.incarnation = delta.sender_incarnation;
    view.floors.clear();
  }
  if (delta.sender_incarnation == view.incarnation) {
    for (const auto& entry : delta.version_vector) {
      if (entry.per_arm_n.size() != wire_config_.num_arms) {
        throw ParseError("fleet: version vector width mismatch from node " +
                         std::to_string(delta.sender));
      }
      auto [it, inserted] = view.floors.try_emplace(entry.origin, entry.per_arm_n);
      if (!inserted) {
        for (std::size_t arm = 0; arm < entry.per_arm_n.size(); ++arm) {
          if (entry.per_arm_n[arm] > it->second[arm]) {
            it->second[arm] = entry.per_arm_n[arm];
          }
        }
      }
    }
  }
  result.changed = result.applied > 0;
  if (result.changed) rebuild_from_origins();
  return result;
}

std::pair<std::size_t, std::size_t> FleetNode::fold_origin(
    const FleetOriginKey& origin, const std::vector<io::FleetArmEntry>& entries) {
  auto it = origins_.find(origin);
  if (it == origins_.end()) {
    if (origins_.size() >= io::kMaxFleetOrigins) {
      throw ParseError("fleet: origin store is full (" +
                       std::to_string(io::kMaxFleetOrigins) + " origins)");
    }
    it = origins_.emplace(origin, prior_arms_).first;
  }
  std::vector<core::ArmStats>& slots = it->second;
  std::size_t applied = 0;
  std::size_t stale = 0;
  for (const auto& entry : entries) {
    if (entry.arm >= slots.size()) {
      throw ParseError("fleet: arm index out of range in origin block");
    }
    core::ArmStats& slot = slots[entry.arm];
    if (entry.stats.r.size() != slot.r.size() || entry.stats.z.size() != slot.z.size()) {
      throw ParseError("fleet: evidence shape mismatch in origin block");
    }
    // Replace-if-larger-n: a single-writer stream's statistics at count n
    // extend the statistics at any smaller count, so the larger entry is a
    // strict superset of the smaller — never add, never diff.
    if (entry.stats.n > slot.n) {
      slot = entry.stats;
      dirty_[entry.arm] = true;
      ++applied;
    } else {
      ++stale;
    }
  }
  return {applied, stale};
}

void FleetNode::fold_arm(std::size_t arm, linalg::RecursiveLeastSquares& fused) const {
  // No base: each origin slot carries the shared ridge prior once, and the
  // merge keeps exactly one copy — the fold over origins in ascending key
  // order is the canonical single-learner concatenation.
  fused.reset();
  for (const auto& [key, arms] : origins_) {
    const core::ArmStats& slot = arms[arm];
    if (slot.n != 0) fused.merge(slot.r, slot.z, slot.n);
  }
}

double FleetNode::fold_epsilon() const {
  const core::BanditWareConfig& config = server_.config().bandit;
  if (config.policy_kind != core::PolicyKind::kEpsilonGreedy) return 0.0;
  // ε decays once per observation, so an origin's exploration state is
  // fully determined by its count — deriving it keeps the wire format free
  // of redundant (and potentially contradictory) scalars. The chain is
  // merge_from's: fuse_epsilon anchored at ε₀, one step per origin.
  const double initial = config.policy.initial_epsilon;
  double epsilon = initial;
  for (const auto& [key, arms] : origins_) {
    std::size_t n = 0;
    for (const auto& slot : arms) n += slot.n;
    if (n == 0) continue;
    const double origin = std::clamp(
        initial * std::pow(config.policy.decay, static_cast<double>(n)), 0.0,
        1.0);
    epsilon = core::fuse_epsilon(epsilon, origin, initial);
  }
  return epsilon;
}

core::BanditWare FleetNode::fused_model() const {
  linalg::RecursiveLeastSquares fused =
      core::ArmBank::make_arm(learner_.dim(), server_.config().bandit.policy.fit);
  core::BanditWareStats stats;
  stats.epsilon = fold_epsilon();
  stats.arms.resize(server_.catalog().size());
  for (std::size_t arm = 0; arm < stats.arms.size(); ++arm) {
    fold_arm(arm, fused);
    core::copy_stats(fused, stats.arms[arm]);
  }
  return core::BanditWare::from_stats(server_.catalog(), server_.feature_names(),
                                      server_.config().bandit, stats);
}

void FleetNode::rebuild_from_origins() {
  for (std::size_t arm = 0; arm < dirty_.size(); ++arm) {
    if (!dirty_[arm]) continue;
    fold_arm(arm, learner_);
    core::copy_stats(learner_, fused_.arms[arm]);
  }
  fused_.epsilon = fold_epsilon();
  server_.adopt_stats(fused_, dirty_);
  std::fill(dirty_.begin(), dirty_.end(), false);
}

std::vector<io::FleetVvEntry> FleetNode::version_vector() const {
  std::vector<io::FleetVvEntry> vv;
  vv.reserve(origins_.size());
  for (const auto& [origin, arms] : origins_) {
    io::FleetVvEntry entry;
    entry.origin = origin;
    entry.per_arm_n.reserve(arms.size());
    for (const auto& slot : arms) entry.per_arm_n.push_back(slot.n);
    vv.push_back(std::move(entry));
  }
  return vv;
}

std::uint64_t FleetNode::total_observations() const {
  std::uint64_t total = 0;
  for (const auto& [origin, arms] : origins_) {
    for (const auto& slot : arms) total += slot.n;
  }
  return total;
}

std::string FleetNode::save_snapshot() const {
  io::FleetNodeState state;
  state.node = node_id_;
  state.incarnation = incarnation_;
  state.config = wire_config_;
  std::ostringstream blob;
  io::save_state(blob, server_, io::Format::kBinary);
  state.server_blob = blob.str();
  for (const auto& [origin, arms] : origins_) {
    io::FleetOriginBlock block;
    block.origin = origin;
    for (std::size_t arm = 0; arm < arms.size(); ++arm) {
      if (arms[arm].n == 0) continue;
      block.arms.push_back({static_cast<std::uint32_t>(arm), arms[arm]});
    }
    if (!block.arms.empty()) state.origins.push_back(std::move(block));
  }
  return io::save_fleet_node(state);
}

FleetNode FleetNode::restore(const std::string& bytes) {
  const io::FleetNodeState state = io::load_fleet_node(bytes);
  std::istringstream blob(state.server_blob);
  serve::BanditServer loaded = io::load_server_state(blob);
  // A wire-v1 engine blob predates persisted ridges; the envelope holds the
  // ridge. rebuild_from_origins below replaces every shard and the sync
  // baseline with the fold, so a fresh engine with that ridge loses only
  // the blob's routing and cadence counters.
  serve::BanditServer server = [&] {
    if (!state.legacy_engine) return std::move(loaded);
    serve::BanditServerConfig config = loaded.config();
    config.bandit.policy.fit.ridge = state.config.ridge;
    return serve::BanditServer(loaded.catalog(), loaded.feature_names(), config);
  }();
  // Restarting closes the old origin stream: the node re-enters the fleet
  // under incarnation + 1 and appends to a fresh stream, so the pre-crash
  // prefix (restored below, possibly extended later by peers that held
  // more of it) can never be confused with post-restart evidence. Every
  // envelope field, the ridge included, round-trips through the engine
  // blob and is verified against the envelope below.
  FleetNode node(std::move(server), state.node, state.incarnation + 1);
  if (!(node.wire_config_ == state.config)) {
    throw ParseError(
        "fleet: snapshot config envelope does not match the embedded engine");
  }
  for (const auto& block : state.origins) {
    if (block.origin.node == node.node_id_ &&
        block.origin.incarnation >= node.incarnation_) {
      throw ParseError("fleet: snapshot holds an origin from a future incarnation");
    }
    node.fold_origin(block.origin, block.arms);
  }
  node.rebuild_from_origins();
  return node;
}

}  // namespace bw::fleet
