#include "fleet/sim.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace bw::fleet {

namespace {
constexpr std::size_t kNoNode = std::numeric_limits<std::size_t>::max();
}  // namespace

FleetSim::FleetSim(hw::HardwareCatalog catalog, std::vector<std::string> feature_names,
                   FleetSimConfig config)
    : config_(std::move(config)),
      catalog_(std::move(catalog)),
      feature_names_(std::move(feature_names)),
      schedule_rng_(config_.seed),
      workload_rng_(schedule_rng_.child_seed(1)),
      network_rng_(schedule_rng_.child_seed(2)) {
  BW_CHECK_MSG(config_.num_nodes >= 1, "FleetSim needs at least one node");
  BW_CHECK_MSG(config_.min_delay <= config_.max_delay,
               "FleetSim: min_delay must not exceed max_delay");
  nodes_.reserve(config_.num_nodes);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    FleetNodeConfig node_config;
    node_config.node_id = static_cast<std::uint32_t>(i);
    node_config.server = config_.server;
    // Distinct exploration streams per node, derived from one root seed so
    // the whole fleet is reproducible from (seed, num_nodes).
    node_config.server.seed = config_.server.seed + i;
    nodes_.push_back(
        std::make_unique<FleetNode>(catalog_, feature_names_, node_config));
    alive_.push_back(true);
    serve_steps_.push_back(0);
    partition_group_.push_back(-1);
  }
  snapshots_.reserve(config_.num_nodes);
  for (const auto& node : nodes_) snapshots_.push_back(node->save_snapshot());
}

void FleetSim::run(std::uint64_t ticks) {
  const int total_weight = config_.serve_weight + config_.gossip_weight;
  BW_CHECK_MSG(total_weight > 0, "FleetSim::run needs at least one actor enabled");
  for (std::uint64_t step = 0; step < ticks; ++step) {
    ++tick_;
    deliver_due();
    int pick = static_cast<int>(
        schedule_rng_.uniform_int(0, static_cast<std::int64_t>(total_weight) - 1));
    if (pick < config_.serve_weight) {
      const std::size_t who = pick_alive(schedule_rng_, kNoNode);
      if (who != kNoNode) serve_batch(who);
      continue;
    }
    const std::size_t src = pick_alive(schedule_rng_, kNoNode);
    if (src == kNoNode) continue;
    std::size_t dst = kNoNode;
    if (config_.topology == GossipTopology::kRing) {
      // Ring neighbours are fixed regardless of liveness — a sender does
      // not know its neighbour crashed, so the mail drops at delivery.
      const std::size_t n = nodes_.size();
      dst = schedule_rng_.bernoulli(0.5) ? (src + 1) % n : (src + n - 1) % n;
      if (dst == src) dst = kNoNode;
    } else {
      dst = pick_alive(schedule_rng_, src);
    }
    if (dst != kNoNode) gossip(src, dst);
  }
}

void FleetSim::serve_batch(std::size_t node_index) {
  BW_CHECK_MSG(alive_[node_index], "FleetSim: serve on a crashed node");
  FleetNode& node = *nodes_[node_index];
  std::vector<core::FeatureVector> xs;
  xs.reserve(config_.batch_size);
  for (std::size_t i = 0; i < config_.batch_size; ++i) {
    core::FeatureVector x(feature_names_.size());
    for (double& v : x) v = workload_rng_.uniform(1.0, 10.0);
    xs.push_back(std::move(x));
  }
  const std::vector<serve::ServeDecision> decisions = node.recommend_batch(xs);
  std::vector<serve::ServeObservation> observations;
  observations.reserve(decisions.size());
  auto& log = logs_[node.self_origin()];
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const double tasks = std::accumulate(xs[i].begin(), xs[i].end(), 0.0);
    const double runtime = synthetic_runtime(*decisions[i].spec, tasks);
    observations.push_back({decisions[i].shard, decisions[i].arm, xs[i], runtime});
    log.push_back({decisions[i].arm, xs[i], runtime});
  }
  node.observe_batch(observations);
  stats_.observations_fed += observations.size();
  ++serve_steps_[node_index];
  if (config_.snapshot_every > 0 &&
      serve_steps_[node_index] % config_.snapshot_every == 0) {
    take_snapshot(node_index);
  }
}

void FleetSim::gossip(std::size_t src, std::size_t dst) {
  BW_CHECK_MSG(src != dst, "FleetSim: a node does not gossip with itself");
  BW_CHECK_MSG(alive_[src], "FleetSim: gossip from a crashed node");
  const std::string bytes = io::save_fleet_delta(
      nodes_[src]->make_delta(nodes_[dst]->node_id()));
  ++stats_.sent;
  if (partitioned(src, dst)) {
    ++stats_.partition_dropped;
    return;
  }
  if (config_.drop_probability > 0.0 &&
      network_rng_.bernoulli(config_.drop_probability)) {
    ++stats_.dropped;
    return;
  }
  enqueue(src, dst, bytes);
  if (config_.duplicate_probability > 0.0 &&
      network_rng_.bernoulli(config_.duplicate_probability)) {
    ++stats_.duplicated;
    enqueue(src, dst, bytes);
  }
}

void FleetSim::exchange(std::size_t src, std::size_t dst) {
  BW_CHECK_MSG(alive_[src] && alive_[dst], "FleetSim: exchange needs live nodes");
  const std::string bytes = io::save_fleet_delta(
      nodes_[src]->make_delta(nodes_[dst]->node_id()));
  ++stats_.sent;
  apply(dst, bytes);
}

void FleetSim::apply(std::size_t dst, const std::string& bytes) {
  const ApplyResult result = nodes_[dst]->apply_delta(io::load_fleet_delta(bytes));
  ++stats_.delivered;
  stats_.entries_applied += result.applied;
  stats_.entries_stale += result.stale;
  if (apply_probe_) apply_probe_(dst, result);
}

void FleetSim::set_apply_probe(
    std::function<void(std::size_t, const ApplyResult&)> probe) {
  apply_probe_ = std::move(probe);
}

void FleetSim::enqueue(std::size_t src, std::size_t dst, const std::string& bytes) {
  (void)src;
  const std::uint64_t spread = config_.max_delay - config_.min_delay;
  const std::uint64_t delay =
      config_.min_delay +
      (spread > 0 ? static_cast<std::uint64_t>(network_rng_.uniform_int(
                        0, static_cast<std::int64_t>(spread)))
                  : 0);
  network_.emplace(std::make_pair(tick_ + delay, seq_++), Message{dst, bytes});
}

void FleetSim::deliver_due() {
  while (!network_.empty() && network_.begin()->first.first <= tick_) {
    const Message message = std::move(network_.begin()->second);
    network_.erase(network_.begin());
    if (!alive_[message.dst]) {
      ++stats_.crash_dropped;
      continue;
    }
    apply(message.dst, message.bytes);
  }
}

void FleetSim::deliver_all() {
  while (!network_.empty()) {
    tick_ = std::max(tick_ + 1, network_.begin()->first.first);
    deliver_due();
  }
}

bool FleetSim::partitioned(std::size_t a, std::size_t b) const {
  return partition_group_[a] >= 0 && partition_group_[b] >= 0 &&
         partition_group_[a] != partition_group_[b];
}

void FleetSim::partition(const std::vector<std::vector<std::size_t>>& groups) {
  std::fill(partition_group_.begin(), partition_group_.end(), -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::size_t member : groups[g]) {
      BW_CHECK_MSG(member < nodes_.size(), "FleetSim: partition member out of range");
      partition_group_[member] = static_cast<int>(g);
    }
  }
  // Nodes not named in any group form one implicit final group.
  for (int& g : partition_group_) {
    if (g < 0) g = static_cast<int>(groups.size());
  }
}

void FleetSim::heal() {
  std::fill(partition_group_.begin(), partition_group_.end(), -1);
}

void FleetSim::crash(std::size_t node_index) {
  BW_CHECK_MSG(alive_[node_index], "FleetSim: node already down");
  alive_[node_index] = false;
}

void FleetSim::restart(std::size_t node_index) {
  BW_CHECK_MSG(!alive_[node_index], "FleetSim: node is not down");
  nodes_[node_index] =
      std::make_unique<FleetNode>(FleetNode::restore(snapshots_[node_index]));
  alive_[node_index] = true;
}

void FleetSim::take_snapshot(std::size_t node_index) {
  BW_CHECK_MSG(alive_[node_index], "FleetSim: cannot snapshot a crashed node");
  snapshots_[node_index] = nodes_[node_index]->save_snapshot();
}

void FleetSim::quiesce() {
  deliver_all();
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (alive_[i]) live.push_back(i);
  }
  if (live.size() < 2) return;
  // Full-mesh anti-entropy until the fleet runs dry. One zero-apply round
  // is not yet convergence: a round can move no entries while still
  // *correcting knowledge* (a restarted peer's first message voids the
  // stale floors the fleet held for it), and it is the round after the
  // correction that resends. After one dry round every floor matches the
  // actual (unchanged) stores, so a second dry round proves no node lacks
  // anything — stop at two consecutive.
  const std::size_t max_rounds = live.size() + 4;
  std::size_t dry = 0;
  for (std::size_t round = 0; round < max_rounds && dry < 2; ++round) {
    const std::uint64_t before = stats_.entries_applied;
    for (const std::size_t src : live) {
      for (const std::size_t dst : live) {
        if (src != dst) exchange(src, dst);
      }
    }
    dry = stats_.entries_applied == before ? dry + 1 : 0;
  }
  if (dry < 2) {
    throw Error("FleetSim::quiesce: fleet failed to converge — protocol bug");
  }
}

std::size_t FleetSim::pick_alive(Rng& rng, std::size_t excluding) const {
  std::vector<std::size_t> candidates;
  candidates.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (alive_[i] && i != excluding) candidates.push_back(i);
  }
  if (candidates.empty()) return kNoNode;
  return candidates[rng.index(candidates.size())];
}

core::BanditWare FleetSim::reference_model(std::size_t as_seen_by) const {
  const std::vector<io::FleetVvEntry> vv = nodes_[as_seen_by]->version_vector();
  core::BanditWare reference(catalog_, feature_names_, config_.server.bandit);
  for (const auto& entry : vv) {  // ascending origin order, like the fold
    const auto log_it = logs_.find(entry.origin);
    if (log_it == logs_.end()) {
      for (const std::uint64_t n : entry.per_arm_n) {
        BW_CHECK_MSG(n == 0, "FleetSim: store holds evidence the sim never fed");
      }
      continue;
    }
    // Replay the surviving per-arm prefix of this origin's stream: gossip
    // ships cumulative prefixes, so whatever count survived is exactly the
    // first n observations this origin made on that arm.
    std::vector<std::uint64_t> fed(entry.per_arm_n.size(), 0);
    for (const LoggedObs& obs : log_it->second) {
      if (fed[obs.arm] < entry.per_arm_n[obs.arm]) {
        reference.observe(obs.arm, obs.x, obs.runtime_s);
        ++fed[obs.arm];
      }
    }
    for (std::size_t arm = 0; arm < fed.size(); ++arm) {
      BW_CHECK_MSG(fed[arm] == entry.per_arm_n[arm],
                   "FleetSim: surviving count exceeds the origin's logged stream");
    }
  }
  return reference;
}

}  // namespace bw::fleet
