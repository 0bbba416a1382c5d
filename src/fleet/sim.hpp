#pragma once
// FleetSim — deterministic virtual-clock network simulator for FleetNode
// gossip (the fleet-level sibling of tests/sched_harness.hpp). Real sockets
// and timers cannot replay a failing interleaving; here every source of
// fleet nondeterminism — who serves, who gossips with whom, how long a
// message sits in flight, whether it is dropped or duplicated, when a node
// crashes — is drawn from one seeded RNG against a virtual clock, so a
// (seed, config, schedule) triple reproduces the exact run every time:
// same seed ⇒ same decision traces, same message history, byte-identical
// final snapshots.
//
// The network is a priority queue of serialized wire messages keyed by
// (deliver_tick, sequence): a uniform per-message delay reorders naturally,
// drops and duplicates are Bernoulli draws, partitions block edges between
// groups until heal(), and delivery to a crashed node silently drops (the
// protocol must tolerate all of it — FleetNode's replace-if-larger-n apply
// makes every one of these failures benign). Every hop round-trips the real
// wire codec (io::save_fleet_delta / load_fleet_delta), so the simulator
// also exercises serialization on every exchange.
//
// For convergence proofs the simulator keeps the ground truth the fleet
// cannot see: the full per-origin observation log. reference_model()
// replays the *surviving* prefix of every origin stream (per-arm counts
// from node 0's origin store — call quiesce() first so all stores agree)
// into one fresh single learner, in the same canonical ascending-origin
// order FleetNode::fused_model() folds — the gossip fleet must match it to
// float-roundtrip precision, for every policy and every λ.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_node.hpp"

namespace bw::fleet {

enum class GossipTopology {
  kComplete,  ///< gossip partner drawn uniformly among alive peers
  kRing,      ///< gossip partner is a ring neighbour (random direction)
};

struct FleetSimConfig {
  std::size_t num_nodes = 2;
  std::uint64_t seed = 1;
  serve::BanditServerConfig server{};  ///< per-node engine config
  // Workload: one serve step = batch_size recommend/observe pairs.
  std::size_t batch_size = 4;
  int serve_weight = 4;   ///< relative frequency of a serve step
  int gossip_weight = 2;  ///< relative frequency of a gossip send
  GossipTopology topology = GossipTopology::kComplete;
  // Network faults.
  std::uint64_t min_delay = 1;  ///< ticks a message sits in flight (uniform)
  std::uint64_t max_delay = 1;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  /// Take a durable snapshot of a node every K of its serve steps (0 =
  /// only the initial snapshot). restart() restores the latest one.
  std::size_t snapshot_every = 0;
};

/// Message/fault accounting for assertions.
struct FleetSimStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;            ///< Bernoulli network loss
  std::uint64_t duplicated = 0;         ///< extra enqueued copies
  std::uint64_t partition_dropped = 0;  ///< blocked by an active partition
  std::uint64_t crash_dropped = 0;      ///< destination was down at delivery
  std::uint64_t entries_applied = 0;    ///< origin-arm entries that advanced
  std::uint64_t entries_stale = 0;      ///< duplicates/echoes ignored
  std::uint64_t observations_fed = 0;   ///< ground truth across all nodes
};

class FleetSim {
 public:
  FleetSim(hw::HardwareCatalog catalog, std::vector<std::string> feature_names,
           FleetSimConfig config);

  std::size_t num_nodes() const { return nodes_.size(); }
  FleetNode& node(std::size_t i) { return *nodes_[i]; }
  const FleetNode& node(std::size_t i) const { return *nodes_[i]; }
  bool alive(std::size_t i) const { return alive_[i]; }
  std::uint64_t now() const { return tick_; }
  const FleetSimStats& stats() const { return stats_; }
  std::size_t in_flight() const { return network_.size(); }

  /// Shared deterministic runtime model (same as the sched harness).
  static double synthetic_runtime(const hw::HardwareSpec& spec, double num_tasks) {
    return 5.0 + num_tasks / spec.cpus;
  }

  /// Advances the virtual clock `ticks` steps: each step delivers every
  /// message due, then a weighted coin picks a serve step or a gossip send
  /// on seeded random alive nodes.
  void run(std::uint64_t ticks);

  // Explicit schedule hooks (all usable alongside run()):
  void serve_batch(std::size_t node);            ///< one recommend+observe batch
  void gossip(std::size_t src, std::size_t dst); ///< send delta through the network
  void exchange(std::size_t src, std::size_t dst);  ///< instant, still via wire bytes
  void crash(std::size_t node);    ///< node down; in-flight mail to it will drop
  void restart(std::size_t node);  ///< restore from its latest snapshot (inc+1)
  void take_snapshot(std::size_t node);
  /// Splits the fleet: messages between different groups drop until heal().
  /// Nodes absent from every group form an implicit final group.
  void partition(const std::vector<std::vector<std::size_t>>& groups);
  void heal();

  /// Calls `probe(node index, result)` after every apply_delta the
  /// simulator performs (network delivery and exchange), so a test can
  /// check per-apply invariants. An empty function removes the probe.
  void set_apply_probe(std::function<void(std::size_t, const ApplyResult&)> probe);

  /// Delivers everything in flight (advancing the clock past the last
  /// deliver tick). Partitions still apply; crashed nodes still drop.
  void deliver_all();

  /// Drains the network, then runs direct full-mesh exchange rounds among
  /// alive nodes until a whole round applies nothing new (bounded; throws
  /// if the fleet refuses to converge). Afterwards every alive node's
  /// origin store — and therefore its canonical fused model — agrees.
  void quiesce();

  /// Single learner replaying every origin's surviving stream prefix
  /// (per-arm counts taken from `as_seen_by`'s origin store) in canonical
  /// ascending-origin order. With no crashes every logged observation
  /// survives somewhere, so after quiesce() this is the full-information
  /// model the fleet must reproduce.
  core::BanditWare reference_model(std::size_t as_seen_by = 0) const;

 private:
  struct Message {
    std::size_t dst = 0;
    std::string bytes;  ///< serialized FleetDelta
  };
  struct LoggedObs {
    core::ArmIndex arm = 0;
    core::FeatureVector x;
    double runtime_s = 0.0;
  };

  void deliver_due();
  /// Applies serialized delta `bytes` at node `dst` and accounts for it.
  void apply(std::size_t dst, const std::string& bytes);
  void enqueue(std::size_t src, std::size_t dst, const std::string& bytes);
  bool partitioned(std::size_t a, std::size_t b) const;
  std::size_t pick_alive(Rng& rng, std::size_t excluding) const;

  FleetSimConfig config_;
  hw::HardwareCatalog catalog_;
  std::vector<std::string> feature_names_;
  std::uint64_t tick_ = 0;
  std::uint64_t seq_ = 0;  ///< total-order tiebreak for same-tick delivery
  Rng schedule_rng_;
  Rng workload_rng_;
  Rng network_rng_;
  std::vector<std::unique_ptr<FleetNode>> nodes_;
  std::vector<bool> alive_;
  std::vector<std::string> snapshots_;       ///< latest durable snapshot per node
  std::vector<std::size_t> serve_steps_;     ///< per-node, for snapshot cadence
  std::vector<int> partition_group_;         ///< -1 = unpartitioned
  std::map<std::pair<std::uint64_t, std::uint64_t>, Message> network_;
  /// Ground truth: every observation ever fed, per origin, in stream order.
  std::map<FleetOriginKey, std::vector<LoggedObs>> logs_;
  FleetSimStats stats_;
  std::function<void(std::size_t, const ApplyResult&)> apply_probe_;
};

}  // namespace bw::fleet
