// Property suite for multi-node gossip fleet sync (src/fleet/).
//
// The headline property, proven under every network failure the simulator
// can inject (delay, reorder, drop, duplication, partition, crash/restart):
// once gossip quiesces, every node's canonical fused model agrees with ONE
// single learner fed the surviving origin streams — same predictions to
// 1e-9, same exploration state, for all three policies and λ ∈ {1, 0.98}.
// Because the reference is built from the simulator's ground-truth logs,
// agreement simultaneously proves no evidence was lost (counts match the
// fed totals) and none was double-counted (a double-fold would shift every
// prediction).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "fleet/fleet_node.hpp"
#include "fleet/sim.hpp"
#include "hardware/catalog.hpp"
#include "io/state_io.hpp"

namespace bw {
namespace {

using core::BanditWare;
using core::PolicyKind;
using fleet::FleetNode;
using fleet::FleetNodeConfig;
using fleet::FleetSim;
using fleet::FleetSimConfig;

std::vector<std::string> feature_names() { return {"num_tasks", "mem_gb"}; }

serve::BanditServerConfig server_config(PolicyKind policy, double lambda) {
  serve::BanditServerConfig config;
  config.num_shards = 1;
  config.seed = 17;
  config.bandit.policy_kind = policy;
  config.bandit.alpha = 1.5;
  config.bandit.posterior_scale = 1.25;
  config.bandit.policy.fit.ridge = 1e-3;
  config.bandit.policy.fit.forgetting = lambda;
  return config;
}

FleetSimConfig sim_config(PolicyKind policy, double lambda, std::size_t nodes,
                          std::uint64_t seed) {
  FleetSimConfig config;
  config.num_nodes = nodes;
  config.seed = seed;
  config.server = server_config(policy, lambda);
  config.batch_size = 4;
  config.min_delay = 1;
  config.max_delay = 5;
  return config;
}

/// Serialized text snapshot of a model — the strictest equality we have
/// (17-significant-digit doubles, every arm, the ε scalar).
std::string model_text(const BanditWare& model) {
  std::ostringstream os;
  io::save_state(os, model, io::Format::kText);
  return os.str();
}

/// Prediction-surface agreement at `tol` on a deterministic probe grid,
/// plus exact count and near-exact ε agreement.
void expect_models_agree(const BanditWare& got, const BanditWare& want, double tol) {
  ASSERT_EQ(got.num_arms(), want.num_arms());
  EXPECT_EQ(got.num_observations(), want.num_observations());
  Rng probe_rng(99);
  for (int probe = 0; probe < 25; ++probe) {
    core::FeatureVector x(feature_names().size());
    for (double& v : x) v = probe_rng.uniform(1.0, 10.0);
    const std::vector<double> a = got.predictions(x);
    const std::vector<double> b = want.predictions(x);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t arm = 0; arm < a.size(); ++arm) {
      const double scale = std::max(1.0, std::fabs(b[arm]));
      EXPECT_NEAR(a[arm], b[arm], tol * scale)
          << "arm " << arm << " probe " << probe;
    }
  }
  EXPECT_NEAR(got.epsilon(), want.epsilon(), tol);
}

/// What an engine serves after adopting `node`'s canonical fold: a fresh
/// engine with the node's own engine config adopts fused_model() and is
/// serialized. A node's engine must produce exactly these bytes after every
/// rebuild.
std::string adopted_fold_text(const FleetNode& node) {
  const serve::BanditServer& engine = node.server();
  serve::BanditServer twin(engine.catalog(), engine.feature_names(), engine.config());
  twin.adopt_model(node.fused_model());
  return twin.save_state();
}

/// The canonical fold written the way the node first computed it: a fresh
/// model that merge_from()s one whole model per origin — full-width stats
/// from the node's durable snapshot (prior where the origin has no
/// evidence), ε = ε₀·decayⁿ — in ascending key order.
BanditWare whole_model_fold(const FleetNode& node, const core::BanditWareConfig& bandit) {
  const io::FleetNodeState state = io::load_fleet_node(node.save_snapshot());
  std::map<fleet::FleetOriginKey, const io::FleetOriginBlock*> ordered;
  for (const auto& block : state.origins) ordered.emplace(block.origin, &block);
  const hw::HardwareCatalog& catalog = node.server().catalog();
  const std::vector<std::string>& names = node.server().feature_names();
  BanditWare fused(catalog, names, bandit);
  const std::vector<core::ArmStats> prior = fused.export_stats().arms;
  for (const auto& [origin, block] : ordered) {
    core::BanditWareStats stats;
    stats.arms = prior;
    for (const auto& entry : block->arms) stats.arms[entry.arm] = entry.stats;
    stats.epsilon =
        bandit.policy_kind == PolicyKind::kEpsilonGreedy
            ? bandit.policy.initial_epsilon *
                  std::pow(bandit.policy.decay,
                           static_cast<double>(stats.num_observations()))
            : 0.0;
    fused.merge_from(BanditWare::from_stats(catalog, names, bandit, stats));
  }
  return fused;
}

struct PolicyLambdaCase {
  PolicyKind policy;
  double lambda;
};

const PolicyLambdaCase kAllCases[] = {
    {PolicyKind::kEpsilonGreedy, 1.0}, {PolicyKind::kEpsilonGreedy, 0.98},
    {PolicyKind::kLinUcb, 1.0},        {PolicyKind::kLinUcb, 0.98},
    {PolicyKind::kThompson, 1.0},      {PolicyKind::kThompson, 0.98},
};

// ---------------------------------------------------------------------------
// Convergence: gossip == single learner, all policies × λ.

TEST(FleetSync, GossipMatchesSingleLearnerAllPoliciesAndLambdas) {
  for (const auto& test_case : kAllCases) {
    SCOPED_TRACE(core::to_string(test_case.policy) + " lambda " +
                 std::to_string(test_case.lambda));
    FleetSim sim(hw::ndp_catalog(), feature_names(),
                 sim_config(test_case.policy, test_case.lambda, 4, 101));
    sim.run(300);
    sim.quiesce();
    // Nothing was dropped or crashed, so every fed observation must survive.
    ASSERT_EQ(sim.node(0).total_observations(), sim.stats().observations_fed);
    const BanditWare reference = sim.reference_model();
    const std::string canonical = model_text(sim.node(0).fused_model());
    for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
      const BanditWare fused = sim.node(i).fused_model();
      expect_models_agree(fused, reference, 1e-9);
      // Node stores agree entry-for-entry, so the deterministic fold must
      // agree byte-for-byte — not merely to tolerance.
      EXPECT_EQ(model_text(fused), canonical) << "node " << i;
    }
  }
}

TEST(FleetSync, RingTopologyConvergesAcrossMultipleHops) {
  FleetSimConfig config = sim_config(PolicyKind::kEpsilonGreedy, 0.98, 5, 7);
  config.topology = fleet::GossipTopology::kRing;
  FleetSim sim(hw::ndp_catalog(), feature_names(), config);
  sim.run(400);
  sim.quiesce();
  const BanditWare reference = sim.reference_model();
  for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
    expect_models_agree(sim.node(i).fused_model(), reference, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Fault injection: delay + reorder + drop + duplicate.

TEST(FleetSync, DropsReordersAndDuplicatesLoseNothingAndDoubleCountNothing) {
  FleetSimConfig config = sim_config(PolicyKind::kLinUcb, 0.98, 4, 23);
  config.min_delay = 1;
  config.max_delay = 25;  // heavy reordering
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.25;
  FleetSim sim(hw::ndp_catalog(), feature_names(), config);
  sim.run(600);
  sim.quiesce();
  // The faults actually fired…
  EXPECT_GT(sim.stats().dropped, 0u);
  EXPECT_GT(sim.stats().duplicated, 0u);
  EXPECT_GT(sim.stats().entries_stale, 0u);  // duplicates arrived and were ignored
  // …and despite them: every observation survives exactly once.
  ASSERT_EQ(sim.node(0).total_observations(), sim.stats().observations_fed);
  const BanditWare reference = sim.reference_model();
  for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
    expect_models_agree(sim.node(i).fused_model(), reference, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Crash / restart-from-snapshot.

TEST(FleetSync, CrashRestartRejoinsUnderBumpedIncarnationAndConverges) {
  FleetSimConfig config = sim_config(PolicyKind::kEpsilonGreedy, 1.0, 3, 31);
  config.snapshot_every = 2;
  FleetSim sim(hw::ndp_catalog(), feature_names(), config);
  sim.run(200);
  sim.crash(1);
  sim.run(120);  // fleet keeps serving and gossiping around the hole
  sim.restart(1);
  EXPECT_EQ(sim.node(1).incarnation(), 2u);
  sim.run(200);
  sim.quiesce();
  const BanditWare reference = sim.reference_model();
  for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
    expect_models_agree(sim.node(i).fused_model(), reference, 1e-9);
  }
  // The pre-crash stream survives as a distinct closed origin: every node
  // holds both incarnations of node 1 (plus the other two nodes).
  EXPECT_GE(sim.node(0).num_origins(), 4u);
}

TEST(FleetSync, EvidenceGossipedBeforeCrashOutlivesTheSnapshot) {
  // Node 1 observes, gossips everything to node 0, then crashes having
  // only an *initial* (empty) snapshot. After restart + quiesce the fleet
  // must still hold every pre-crash observation — recovered from node 0,
  // not from the snapshot.
  FleetSimConfig config = sim_config(PolicyKind::kThompson, 0.98, 2, 47);
  FleetSim sim(hw::ndp_catalog(), feature_names(), config);
  for (int i = 0; i < 6; ++i) sim.serve_batch(1);
  sim.exchange(1, 0);
  const std::uint64_t fed = sim.stats().observations_fed;
  sim.crash(1);
  sim.restart(1);
  sim.quiesce();
  ASSERT_EQ(sim.node(1).total_observations(), fed);
  expect_models_agree(sim.node(1).fused_model(), sim.reference_model(), 1e-9);
}

// ---------------------------------------------------------------------------
// The served engine is the canonical fold, bit for bit. Rebuilds refold
// only the arms whose origin slots changed, so a missed change would leave
// the engine serving a stale arm while fused_model() — which refolds every
// arm — still looked right.

TEST(FleetSync, EngineServesTheCanonicalFoldAfterEveryRebuild) {
  std::size_t checks = 0;
  std::size_t engine_mismatches = 0;
  std::size_t fold_mismatches = 0;
  for (const auto& test_case : kAllCases) {
    SCOPED_TRACE(core::to_string(test_case.policy) + " lambda " +
                 std::to_string(test_case.lambda));
    FleetSimConfig config = sim_config(test_case.policy, test_case.lambda, 3, 83);
    config.max_delay = 10;
    config.drop_probability = 0.2;
    config.duplicate_probability = 0.2;
    config.snapshot_every = 2;
    FleetSim sim(hw::ndp_catalog(), feature_names(), config);
    auto check = [&](std::size_t i) {
      const FleetNode& node = sim.node(i);
      engine_mismatches += node.server().save_state() != adopted_fold_text(node);
      fold_mismatches += model_text(node.fused_model()) !=
                         model_text(whole_model_fold(node, config.server.bandit));
      ++checks;
    };
    sim.set_apply_probe([&](std::size_t i, const fleet::ApplyResult& result) {
      if (result.changed) check(i);
    });
    sim.run(120);
    sim.crash(1);
    sim.run(60);
    sim.restart(1);
    check(1);
    sim.run(120);
    sim.quiesce();
    EXPECT_GT(sim.stats().dropped, 0u);
    EXPECT_GT(sim.stats().duplicated, 0u);
  }
  EXPECT_GT(checks, 300u);
  EXPECT_EQ(engine_mismatches, 0u) << "of " << checks << " checks";
  EXPECT_EQ(fold_mismatches, 0u) << "of " << checks << " checks";
}

// ---------------------------------------------------------------------------
// Partition, then heal.

TEST(FleetSync, PartitionedHalvesDivergeThenHealToOneModel) {
  FleetSimConfig config = sim_config(PolicyKind::kLinUcb, 1.0, 4, 59);
  FleetSim sim(hw::ndp_catalog(), feature_names(), config);
  sim.run(100);
  sim.partition({{0, 1}, {2, 3}});
  sim.run(300);
  EXPECT_GT(sim.stats().partition_dropped, 0u);
  sim.deliver_all();
  // While split, the halves hold different evidence.
  EXPECT_NE(model_text(sim.node(0).fused_model()),
            model_text(sim.node(2).fused_model()));
  sim.heal();
  sim.run(200);
  sim.quiesce();
  ASSERT_EQ(sim.node(0).total_observations(), sim.stats().observations_fed);
  const BanditWare reference = sim.reference_model();
  const std::string canonical = model_text(sim.node(0).fused_model());
  for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
    expect_models_agree(sim.node(i).fused_model(), reference, 1e-9);
    EXPECT_EQ(model_text(sim.node(i).fused_model()), canonical);
  }
}

// ---------------------------------------------------------------------------
// Determinism: the whole point of the virtual-clock harness.

TEST(FleetSync, SameSeedYieldsByteIdenticalFinalSnapshots) {
  auto final_snapshots = [](std::uint64_t seed) {
    FleetSimConfig config = sim_config(PolicyKind::kEpsilonGreedy, 0.98, 3, seed);
    config.max_delay = 10;
    config.drop_probability = 0.2;
    FleetSim sim(hw::ndp_catalog(), feature_names(), config);
    sim.run(250);
    sim.quiesce();
    std::vector<std::string> out;
    for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
      out.push_back(sim.node(i).save_snapshot());
    }
    return out;
  };
  const std::vector<std::string> first = final_snapshots(77);
  const std::vector<std::string> second = final_snapshots(77);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "node " << i;
  }
  // And a different schedule genuinely differs (the determinism above is
  // not vacuous).
  EXPECT_NE(final_snapshots(78)[0], first[0]);
}

// ---------------------------------------------------------------------------
// Protocol-level unit tests (no simulator).

FleetNode make_node(std::uint32_t id, PolicyKind policy = PolicyKind::kEpsilonGreedy,
                    double lambda = 1.0) {
  FleetNodeConfig config;
  config.node_id = id;
  config.server = server_config(policy, lambda);
  return FleetNode(hw::ndp_catalog(), feature_names(), config);
}

void feed(FleetNode& node, int batches, std::uint64_t seed) {
  Rng rng(seed);
  for (int b = 0; b < batches; ++b) {
    std::vector<core::FeatureVector> xs;
    for (int i = 0; i < 4; ++i) {
      xs.push_back({rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)});
    }
    const auto decisions = node.recommend_batch(xs);
    std::vector<serve::ServeObservation> observations;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
      const double tasks = xs[i][0] + xs[i][1];
      observations.push_back({decisions[i].shard, decisions[i].arm, xs[i],
                              FleetSim::synthetic_runtime(*decisions[i].spec, tasks)});
    }
    node.observe_batch(observations);
  }
}

TEST(FleetWireProtocol, DeltaSurvivesTheWireBitExactly) {
  FleetNode node = make_node(3, PolicyKind::kLinUcb);
  feed(node, 5, 11);
  const fleet::FleetDelta delta = node.make_delta(9);
  const std::string bytes = io::save_fleet_delta(delta);
  bool truncated = true;
  const fleet::FleetDelta loaded = io::load_fleet_delta(bytes, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(loaded.sender, delta.sender);
  EXPECT_EQ(loaded.sender_incarnation, delta.sender_incarnation);
  EXPECT_TRUE(loaded.config == delta.config);
  ASSERT_EQ(loaded.origins.size(), delta.origins.size());
  for (std::size_t o = 0; o < delta.origins.size(); ++o) {
    ASSERT_EQ(loaded.origins[o].arms.size(), delta.origins[o].arms.size());
    for (std::size_t e = 0; e < delta.origins[o].arms.size(); ++e) {
      const auto& got = loaded.origins[o].arms[e];
      const auto& want = delta.origins[o].arms[e];
      EXPECT_EQ(got.arm, want.arm);
      EXPECT_EQ(got.stats.n, want.stats.n);
      EXPECT_EQ(got.stats.r, want.stats.r);  // raw LE doubles: exact
      EXPECT_EQ(got.stats.z, want.stats.z);
    }
  }
  ASSERT_EQ(loaded.version_vector.size(), delta.version_vector.size());
}

TEST(FleetWireProtocol, ConfigEnvelopeMismatchesAreRejected) {
  FleetNode sender = make_node(1, PolicyKind::kEpsilonGreedy, 0.98);
  feed(sender, 2, 5);
  // λ mismatch.
  FleetNode lambda_node = make_node(2, PolicyKind::kEpsilonGreedy, 1.0);
  EXPECT_THROW(lambda_node.apply_delta(sender.make_delta(2)), ParseError);
  // Policy mismatch.
  FleetNode policy_node = make_node(2, PolicyKind::kThompson, 0.98);
  EXPECT_THROW(policy_node.apply_delta(sender.make_delta(2)), ParseError);
  // Matching config applies cleanly.
  FleetNode twin = make_node(2, PolicyKind::kEpsilonGreedy, 0.98);
  EXPECT_GT(twin.apply_delta(sender.make_delta(2)).applied, 0u);
  // The engine's own guard behind the envelope: adopt_model refuses a model
  // whose LinUCB α differs from the engine's.
  serve::BanditServer engine(hw::ndp_catalog(), feature_names(),
                             server_config(PolicyKind::kLinUcb, 1.0));
  core::BanditWareConfig wider = engine.config().bandit;
  wider.alpha = 2.0 * wider.alpha;
  EXPECT_THROW(engine.adopt_model(BanditWare(hw::ndp_catalog(), feature_names(), wider)),
               InvalidArgument);
}

TEST(FleetWireProtocol, OwnEchoIsEntirelyStale) {
  FleetNode node = make_node(4);
  feed(node, 3, 13);
  const std::string before = model_text(node.fused_model());
  const fleet::ApplyResult result = node.apply_delta(node.make_delta(4));
  EXPECT_EQ(result.applied, 0u);
  EXPECT_GT(result.stale, 0u);
  EXPECT_FALSE(result.changed);
  EXPECT_EQ(model_text(node.fused_model()), before);
}

TEST(FleetWireProtocol, VersionVectorsStopResends) {
  FleetNode a = make_node(1);
  FleetNode b = make_node(2);
  feed(a, 3, 21);
  feed(b, 3, 22);
  ASSERT_GT(b.apply_delta(a.make_delta(2)).applied, 0u);
  ASSERT_GT(a.apply_delta(b.make_delta(1)).applied, 0u);
  // b's reply advertised everything it holds, so a stops resending at
  // once. b still works from a's *first* vector (floors are ack-free and
  // only rise on receive), so one more message from a — origin-free or
  // not — brings b up to date and the fleet reaches its steady state:
  // version vectors only.
  EXPECT_TRUE(a.make_delta(2).origins.empty());
  EXPECT_EQ(b.apply_delta(a.make_delta(2)).applied, 0u);
  EXPECT_TRUE(b.make_delta(1).origins.empty());
  // …until new evidence arrives.
  feed(a, 1, 23);
  EXPECT_FALSE(a.make_delta(2).origins.empty());
}

TEST(FleetWireProtocol, RebuildRefoldsTheArmsLocalFeedbackAndGossipAdvanced) {
  FleetNode a = make_node(1, PolicyKind::kLinUcb, 0.98);
  FleetNode b = make_node(2, PolicyKind::kLinUcb, 0.98);
  auto observe_arm = [](FleetNode& node, core::ArmIndex arm, double seed) {
    std::vector<serve::ServeObservation> observations;
    for (int i = 0; i < 4; ++i) {
      const core::FeatureVector x = {seed + i, 2.0 * seed - i};
      observations.push_back({0, arm, x, 3.0 + seed + 0.5 * i});
    }
    node.observe_batch(observations);
  };
  // A's first rebuild refolds every arm (construction marks them all), so
  // it is the second rebuild that must pick up exactly the changed arms:
  // arm 0 from A's own feedback, arm 1 from B's gossip.
  observe_arm(b, 1, 4.0);
  ASSERT_TRUE(a.apply_delta(b.make_delta(1)).changed);
  observe_arm(a, 0, 6.0);
  observe_arm(b, 1, 8.0);
  ASSERT_TRUE(a.apply_delta(b.make_delta(1)).changed);
  EXPECT_EQ(a.server().save_state(), adopted_fold_text(a));
}

TEST(FleetWireProtocol, RejectedBatchLeavesTheOriginStreamUntouched) {
  FleetNode node = make_node(3);
  feed(node, 2, 61);
  const std::vector<io::FleetVvEntry> vv = node.version_vector();
  const std::uint64_t total = node.total_observations();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<serve::ServeObservation> bad_runtime = {
      {0, 0, {2.0, 3.0}, 9.0}, {0, 1, {4.0, 5.0}, 8.0}, {0, 2, {6.0, 7.0}, nan}};
  const std::vector<serve::ServeObservation> bad_feature = {
      {0, 0, {2.0, 3.0}, 9.0}, {0, 1, {4.0, 5.0}, 8.0}, {0, 2, {6.0, inf}, 7.0}};
  for (const auto* batch : {&bad_runtime, &bad_feature}) {
    EXPECT_THROW(node.observe_batch(*batch), InvalidArgument);
    const std::vector<io::FleetVvEntry> after = node.version_vector();
    ASSERT_EQ(after.size(), vv.size());
    for (std::size_t o = 0; o < vv.size(); ++o) {
      EXPECT_EQ(after[o].per_arm_n, vv[o].per_arm_n) << "origin " << o;
    }
    EXPECT_EQ(node.total_observations(), total);
  }
}

TEST(FleetWireProtocol, RestartVoidsTheFloorsPeersLearnedFromTheDeadIncarnation) {
  FleetNode a = make_node(1);
  FleetNode b = make_node(2);
  feed(b, 3, 51);
  // a learns (from b itself) that b holds its own evidence.
  ASSERT_GT(a.apply_delta(b.make_delta(1)).applied, 0u);
  EXPECT_TRUE(a.make_delta(2).origins.empty());
  // …then b restarts from an EMPTY snapshot, losing everything. Its floor
  // at a is now a false claim; b's first new-incarnation message must void
  // it so a resends, or the evidence would be stranded.
  const std::string empty_snapshot = make_node(2).save_snapshot();
  FleetNode reborn = FleetNode::restore(empty_snapshot);
  ASSERT_EQ(reborn.total_observations(), 0u);
  a.apply_delta(reborn.make_delta(1));  // carries incarnation 2 + honest vv
  const fleet::FleetDelta resend = a.make_delta(2);
  EXPECT_FALSE(resend.origins.empty());
  ASSERT_GT(reborn.apply_delta(resend).applied, 0u);
  EXPECT_EQ(reborn.total_observations(), b.total_observations());
}

TEST(FleetWireProtocol, TruncatedDeltaLoadsItsPrefix) {
  FleetNode node = make_node(5, PolicyKind::kLinUcb);
  feed(node, 4, 31);
  FleetNode peer = make_node(6, PolicyKind::kLinUcb);
  feed(peer, 4, 32);
  ASSERT_GT(node.apply_delta(peer.make_delta(5)).applied, 0u);  // two origins now
  const std::string bytes = io::save_fleet_delta(node.make_delta(99));
  // Tear mid-stream: everything before the tear loads, flagged truncated.
  bool truncated = false;
  const fleet::FleetDelta partial =
      io::load_fleet_delta(bytes.substr(0, bytes.size() - 7), &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_LE(partial.origins.size(), 2u);
  // A partial apply is harmless — replace semantics: the remainder simply
  // arrives later; applying the full message afterwards converges.
  FleetNode receiver = make_node(7, PolicyKind::kLinUcb);
  receiver.apply_delta(partial);
  receiver.apply_delta(io::load_fleet_delta(bytes));
  EXPECT_EQ(receiver.total_observations(), node.total_observations());
}

TEST(FleetWireProtocol, NodeSnapshotRestoresUnderNextIncarnation) {
  FleetNode node = make_node(8, PolicyKind::kThompson, 0.98);
  feed(node, 5, 41);
  const std::string canonical = model_text(node.fused_model());
  const std::uint64_t held = node.total_observations();
  FleetNode restored = FleetNode::restore(node.save_snapshot());
  EXPECT_EQ(restored.node_id(), 8u);
  EXPECT_EQ(restored.incarnation(), 2u);
  EXPECT_EQ(restored.total_observations(), held);
  // The canonical fold is deterministic in the origin store, so the
  // restored fleet model matches byte-for-byte.
  EXPECT_EQ(model_text(restored.fused_model()), canonical);
  // The old stream is closed: a peer echoing more of incarnation 1 is a
  // normal origin update, but the node's own new stream starts empty.
  EXPECT_EQ(restored.make_delta(0).origins.size(), 1u);  // old stream only
}

TEST(FleetWireProtocol, RestoredAsyncNodeKeepsPublishingSyncRounds) {
  // A multi-shard async engine with a non-default ridge must come back from
  // a snapshot with that ridge: the fuser rebuilds its staged replicas from
  // the engine's config, and a replica on another prior makes every round's
  // merge throw, so no round would ever publish again.
  FleetNodeConfig config;
  config.node_id = 4;
  config.server = server_config(PolicyKind::kEpsilonGreedy, 1.0);  // ridge 1e-3
  config.server.num_shards = 2;
  config.server.sharding = serve::ShardingPolicy::kRoundRobin;
  config.server.sync_every = 1;
  config.server.sync_mode = serve::SyncMode::kAsync;
  std::size_t step = 0;
  // Feeds `batches` observe batches, draining the fuser after each, and
  // returns how many sync rounds published.
  const auto published_rounds = [&step](FleetNode& node, int batches) {
    const std::size_t before = node.server().sync_count();
    for (int b = 0; b < batches; ++b) {
      std::vector<serve::ServeObservation> batch;
      for (int i = 0; i < 4; ++i, ++step) {
        const double tasks = 10.0 + 3.0 * static_cast<double>(step % 17);
        const double mem = 2.0 + static_cast<double>(step % 5);
        batch.push_back({step % 2, static_cast<core::ArmIndex>(step % 3), {tasks, mem},
                         1.0 + 0.1 * tasks + 0.5 * mem});
      }
      node.observe_batch(batch);
      node.server().drain_sync();
    }
    return node.server().sync_count() - before;
  };
  FleetNode node(hw::ndp_catalog(), feature_names(), config);
  EXPECT_EQ(published_rounds(node, 5), 5u);
  FleetNode restored = FleetNode::restore(node.save_snapshot());
  EXPECT_EQ(restored.server().config().bandit.policy.fit.ridge, 1e-3);
  EXPECT_EQ(published_rounds(restored, 5), 5u);
}

// ---------------------------------------------------------------------------
// The engine's in-place adopt (BanditServer::adopt_stats), which every
// refolding apply runs: failure-atomic, only the flagged arms move, one
// publication per shard, and safe under concurrent readers.

/// A 2-shard round-robin engine whose shards and sync baseline hold
/// different evidence: one batch, a sync, then another batch.
serve::BanditServer trained_engine(serve::SyncMode mode) {
  serve::BanditServerConfig config = server_config(PolicyKind::kEpsilonGreedy, 0.98);
  config.num_shards = 2;
  config.sharding = serve::ShardingPolicy::kRoundRobin;
  config.sync_mode = mode;
  serve::BanditServer engine(hw::ndp_catalog(), feature_names(), config);
  for (const double start : {1.0, 5.0}) {
    std::vector<serve::ServeObservation> batch;
    for (std::size_t i = 0; i < 12; ++i) {
      const core::FeatureVector x = {start + static_cast<double>(i), 2.0 + i % 3};
      batch.push_back({i % 2, i % 3, x, 1.0 + 0.3 * x[0] + 0.2 * x[1]});
    }
    engine.observe_batch(batch);
    if (start == 1.0) engine.sync_shards();
  }
  return engine;
}

/// Evidence for every arm of `engine`'s shape that no shard holds.
core::BanditWareStats donor_stats(const serve::BanditServer& engine) {
  BanditWare donor(engine.catalog(), engine.feature_names(), engine.config().bandit);
  for (std::size_t i = 0; i < 9; ++i) {
    const core::FeatureVector x = {3.0 + static_cast<double>(i), 1.0 + i % 4};
    donor.observe(i % 3, x, 2.0 + 0.5 * x[0]);
  }
  return donor.export_stats();
}

/// Every arm record of the engine's text snapshot — the arm line with its
/// z and R lines, 17 significant digits — keyed by section ("shard 0",
/// "shard 1", "base") and arm name.
std::map<std::pair<std::string, std::string>, std::string> arm_records(
    const serve::BanditServer& engine) {
  std::istringstream in(engine.save_state());
  std::map<std::pair<std::string, std::string>, std::string> records;
  std::string section;
  std::string line;
  std::string* record = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("shard ", 0) == 0 || line.rfind("base ", 0) == 0) {
      section = line.substr(0, line.find(" bytes"));
      record = nullptr;
    } else if (line.rfind("arm ", 0) == 0) {
      const std::string name = line.substr(4, line.find(' ', 4) - 4);
      record = &records[{section, name}];
      *record = line;
    } else if (record != nullptr &&
               (line.rfind("z ", 0) == 0 || line.rfind("R ", 0) == 0)) {
      *record += "\n" + line;
    } else {
      record = nullptr;
    }
  }
  return records;
}

std::vector<std::uint64_t> published_epochs(const serve::BanditServer& engine) {
  std::vector<std::uint64_t> epochs;
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    epochs.push_back(engine.published_epoch(s));
  }
  return epochs;
}

TEST(FleetAdopt, RejectedAdoptChangesNoShardBaselineOrEpoch) {
  serve::BanditServer engine = trained_engine(serve::SyncMode::kInline);
  const core::BanditWareStats good = donor_stats(engine);
  const std::vector<bool> all(engine.catalog().size(), true);
  const std::string state = engine.save_state();
  const std::vector<std::uint64_t> epochs = published_epochs(engine);
  const std::uint64_t generation = engine.generation();
  const auto expect_unchanged = [&] {
    EXPECT_EQ(engine.save_state(), state);
    EXPECT_EQ(published_epochs(engine), epochs);
    EXPECT_EQ(engine.generation(), generation);
  };
  core::BanditWareStats short_stats = good;
  short_stats.arms.pop_back();
  EXPECT_THROW(engine.adopt_stats(short_stats, all), InvalidArgument);
  expect_unchanged();
  EXPECT_THROW(engine.adopt_stats(good, std::vector<bool>(all.size() + 1, true)),
               InvalidArgument);
  expect_unchanged();
  // The bad arm is the last one flagged: arms before it must not have been
  // restored either.
  for (const double diagonal : {0.0, std::numeric_limits<double>::quiet_NaN()}) {
    core::BanditWareStats bad = good;
    bad.arms.back().r.back() = diagonal;  // R's last diagonal entry
    EXPECT_THROW(engine.adopt_stats(bad, all), InvalidArgument);
    expect_unchanged();
  }
}

TEST(FleetAdopt, OnlyFlaggedArmsMoveAndEachShardRepublishesOnce) {
  serve::BanditServer engine = trained_engine(serve::SyncMode::kInline);
  const core::BanditWareStats stats = donor_stats(engine);
  const std::size_t arms = engine.catalog().size();
  const std::string adopted_name = engine.catalog()[1].name;
  std::vector<bool> flagged(arms, false);
  flagged[1] = true;
  const auto before = arm_records(engine);
  const std::vector<std::uint64_t> epochs = published_epochs(engine);
  const std::uint64_t generation = engine.generation();
  std::vector<std::vector<std::vector<double>>> columns(engine.num_shards());
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    for (std::size_t arm = 0; arm < arms; ++arm) {
      columns[s].push_back(engine.published_model(s)->weight_row(arm));
    }
  }

  engine.adopt_stats(stats, flagged);

  // The flagged arm now holds the donor's evidence everywhere, exactly as
  // a whole-model adopt of the donor would write it; every other arm of
  // every shard and of the baseline is untouched, bit for bit.
  const BanditWare donor = BanditWare::from_stats(
      engine.catalog(), engine.feature_names(), engine.config().bandit, stats);
  serve::BanditServer twin(engine.catalog(), engine.feature_names(), engine.config());
  twin.adopt_model(donor);
  const std::string donor_record = arm_records(twin).at({"base", adopted_name});
  const auto after = arm_records(engine);
  ASSERT_EQ(after.size(), before.size());
  ASSERT_EQ(after.size(), 3 * arms);
  for (const auto& [key, record] : before) {
    SCOPED_TRACE(key.first + " arm " + key.second);
    if (key.second == adopted_name) {
      EXPECT_EQ(after.at(key), donor_record);
      EXPECT_NE(after.at(key), record);
    } else {
      EXPECT_EQ(after.at(key), record);
    }
  }
  std::vector<std::uint64_t> expected_epochs = epochs;
  for (std::uint64_t& epoch : expected_epochs) ++epoch;
  EXPECT_EQ(published_epochs(engine), expected_epochs);
  EXPECT_EQ(engine.generation(), generation + 1);
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    const auto published = engine.published_model(s);
    for (std::size_t arm = 0; arm < arms; ++arm) {
      if (flagged[arm]) continue;
      EXPECT_EQ(published->weight_row(arm), columns[s][arm]) << "shard " << s;
    }
  }
}

TEST(FleetAdopt, RoundStagedBeforeAnAdoptAbandonsAtPublish) {
  serve::BanditServer engine = trained_engine(serve::SyncMode::kAsync);
  ASSERT_TRUE(engine.sync_stage());
  engine.adopt_stats(donor_stats(engine),
                     std::vector<bool>(engine.catalog().size(), true));
  engine.sync_fuse();
  const std::string adopted = engine.save_state();
  const std::size_t syncs = engine.sync_count();
  EXPECT_FALSE(engine.sync_publish());
  EXPECT_EQ(engine.save_state(), adopted);
  EXPECT_EQ(engine.sync_count(), syncs);
}

TEST(FleetAdopt, GreedyAndExploringReadersRunWhileDeltasApply) {
  FleetNodeConfig config;
  config.node_id = 1;
  config.server = server_config(PolicyKind::kThompson, 0.98);
  config.server.num_shards = 2;
  FleetNode node(hw::ndp_catalog(), feature_names(), config);
  FleetNode peer = make_node(2, PolicyKind::kThompson, 0.98);
  const std::size_t arms = node.server().catalog().size();
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> bad_arms{0};
  const auto reader = [&](bool explore, std::uint64_t seed) {
    Rng rng(seed);
    for (bool first = true; first || !done.load(); first = false) {
      const core::FeatureVector x = {rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)};
      const serve::ServeDecision decision = explore ? node.server().recommend_one(x)
                                                    : node.server().recommend_greedy(x);
      if (decision.arm >= arms) ++bad_arms;
      ++reads;
      if (first) ++started;
    }
  };
  std::thread greedy(reader, false, 1);
  std::thread exploring(reader, true, 2);
  while (started.load() < 2) std::this_thread::yield();  // both readers live
  std::size_t refolds = 0;
  for (int round = 0; round < 40; ++round) {
    feed(peer, 1, 100 + round);
    refolds += node.apply_delta(peer.make_delta(1)).changed;
  }
  done = true;
  greedy.join();
  exploring.join();
  EXPECT_EQ(refolds, 40u);
  EXPECT_GE(reads.load(), 2u);
  EXPECT_EQ(bad_arms.load(), 0u);
  EXPECT_EQ(node.server().save_state(), adopted_fold_text(node));
}

}  // namespace
}  // namespace bw
