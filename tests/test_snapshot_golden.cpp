// Golden-snapshot fixtures: small v1 and v2 `banditware-state` files are
// checked in under tests/data/, and load -> save output is pinned byte-for-
// byte against them. A change to the snapshot writer or readers that alters
// bytes (or silently mis-migrates a legacy v1 file) fails here loudly,
// instead of shipping a format drift that corrupts deployed state files.
//
// Regenerating fixtures after an *intentional* format change: the expected
// bytes are exactly `BanditWare::load_state(<fixture>).save_state()` — see
// the comments on each fixture below for its provenance.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/banditware.hpp"
#include "core/run_table.hpp"
#include "fleet/fleet_node.hpp"
#include "hardware/catalog.hpp"
#include "io/fleet_wire.hpp"
#include "io/run_table_io.hpp"
#include "io/state_io.hpp"
#include "serve/bandit_server.hpp"

namespace bw::core {
namespace {

std::string data_path(const std::string& name) {
  return std::string(BW_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(SnapshotGolden, V2StatsFixtureRoundTripsByteIdentical) {
  // Incremental arms (sufficient statistics records). Produced by training
  // the NDP catalog on a short deterministic stream and saving.
  const std::string fixture = read_file(data_path("state_v2_stats.bw"));
  ASSERT_FALSE(fixture.empty());
  const BanditWare bandit = BanditWare::load_state(fixture);
  EXPECT_EQ(bandit.save_state(), fixture);
  EXPECT_EQ(bandit.num_arms(), 3u);
  EXPECT_EQ(bandit.num_observations(), 9u);
}

TEST(SnapshotGolden, V2ExactHistoryFixtureMigratesToPinnedStatsBytes) {
  // Legacy `exact_history 1` snapshot (raw observation rows inside a v2
  // envelope). Rows are load-only: they replay into the recursive arms and
  // re-save as exactly the pinned stats records with the flag at 0.
  const std::string fixture = read_file(data_path("state_v2_obs.bw"));
  const std::string expected = read_file(data_path("state_v2_obs_migrated.bw"));
  ASSERT_FALSE(fixture.empty());
  ASSERT_FALSE(expected.empty());
  const BanditWare bandit = BanditWare::load_state(fixture);
  EXPECT_EQ(bandit.num_observations(), 6u);
  const std::string migrated = bandit.save_state();
  EXPECT_EQ(migrated, expected);
  EXPECT_NE(migrated.find(" exact_history 0\n"), std::string::npos);
  // The migration itself must be stable under a second round trip.
  EXPECT_EQ(BanditWare::load_state(migrated).save_state(), migrated);
}

TEST(SnapshotGolden, V1FixtureMigratesToPinnedV2Bytes) {
  // Legacy v1 (raw rows, no gpus column, no exact_history flag) must keep
  // loading by replay and re-save as exactly the pinned v2 migration — any
  // drift in the replay or the writer shows up as a byte diff here.
  const std::string fixture = read_file(data_path("state_v1.bw"));
  const std::string expected = read_file(data_path("state_v1_migrated.bw"));
  ASSERT_FALSE(fixture.empty());
  ASSERT_FALSE(expected.empty());
  const BanditWare bandit = BanditWare::load_state(fixture);
  const std::string migrated = bandit.save_state();
  EXPECT_EQ(migrated, expected);
  EXPECT_EQ(migrated.rfind("banditware-state v2\n", 0), 0u);
  // The migration itself must be stable under a second round trip.
  EXPECT_EQ(BanditWare::load_state(migrated).save_state(), migrated);
}

TEST(SnapshotGolden, V2ServerFixtureMigratesToPinnedV3Bytes) {
  // Legacy `banditserver-state v2` (no sync_mode token) carrying a
  // NON-TRIVIAL sync baseline: 2 round-robin shards, sync_every=2, one
  // auto-sync fused 12 observations into the baseline, then one more
  // mid-cadence batch left per-shard deltas on top. Produced by the v2
  // writer before the v3 (sync_mode) bump. It must keep loading — inline
  // mode default, baseline intact (no double-counting on the next sync) —
  // and re-save as exactly the pinned v3 migration.
  const std::string fixture = read_file(data_path("server_state_v2.bw"));
  const std::string expected = read_file(data_path("server_state_v2_migrated.bw"));
  ASSERT_FALSE(fixture.empty());
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(fixture.rfind("banditserver-state v2\n", 0), 0u);

  serve::BanditServer server = serve::BanditServer::load_state(fixture);
  EXPECT_EQ(server.num_shards(), 2u);
  EXPECT_EQ(server.config().sync_mode, serve::SyncMode::kInline);
  EXPECT_EQ(server.config().sync_every, 2u);
  // 3 batches x 6 observations; the baseline carries the 12 fused at the
  // auto-sync, each shard 12 fused + 3 own: 30 raw - 12 shared = 18.
  EXPECT_EQ(server.num_observations(), 18u);
  EXPECT_EQ(server.shard_observation_counts(), (std::vector<std::size_t>{15, 15}));

  const std::string migrated = server.save_state();
  EXPECT_EQ(migrated, expected);
  EXPECT_EQ(migrated.rfind("banditserver-state v3\n", 0), 0u);
  // The migration itself must be stable under a second round trip.
  EXPECT_EQ(serve::BanditServer::load_state(migrated).save_state(), migrated);
}

TEST(SnapshotGolden, V3LinUcbFixtureRoundTripsByteIdentical) {
  // Policy-axis format: LinUCB (alpha 1.5) over the NDP catalog, trained on
  // a short deterministic stream. The `policy` line is the only addition
  // over the v2 body; the bytes are pinned so the policy token and its
  // scalar can never drift silently.
  const std::string fixture = read_file(data_path("state_v3_linucb.bw"));
  ASSERT_FALSE(fixture.empty());
  ASSERT_EQ(fixture.rfind("banditware-state v3\npolicy linucb alpha 1.5\n", 0), 0u);
  const BanditWare bandit = BanditWare::load_state(fixture);
  EXPECT_EQ(bandit.save_state(), fixture);
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kLinUcb);
  EXPECT_DOUBLE_EQ(bandit.config().alpha, 1.5);
  EXPECT_EQ(bandit.num_observations(), 9u);
}

TEST(SnapshotGolden, V4ThompsonServerFixtureRoundTripsByteIdentical) {
  // `banditserver-state v4`: 2 round-robin shards, sync_every=2, Thompson
  // (v=1.25); the auto-sync at batch 2 fused 8 observations into the
  // baseline and batch 3 left per-shard deltas — so the policy axis is
  // pinned together with a real sync baseline, not a fresh engine.
  const std::string fixture = read_file(data_path("server_state_v4_thompson.bw"));
  ASSERT_FALSE(fixture.empty());
  ASSERT_EQ(fixture.rfind("banditserver-state v4\n", 0), 0u);
  serve::BanditServer server = serve::BanditServer::load_state(fixture);
  EXPECT_EQ(server.config().bandit.policy_kind, PolicyKind::kThompson);
  EXPECT_DOUBLE_EQ(server.config().bandit.posterior_scale, 1.25);
  EXPECT_EQ(server.num_shards(), 2u);
  EXPECT_EQ(server.num_observations(), 12u);
  EXPECT_EQ(server.save_state(), fixture);
  // A sync on the restored engine must not double-count the fused baseline.
  server.sync_shards();
  EXPECT_EQ(server.num_observations(), 12u);
}

TEST(SnapshotGolden, LegacyFixturesRestoreAsEpsilonGreedyByteForByte) {
  // The pre-policy-axis formats carry no policy token; they must restore as
  // ε-greedy and re-save to exactly their own bytes — the v2 (banditware)
  // and v3 (banditserver) encodings ARE the ε-greedy encodings, so the
  // legacy->current "migration" is pinned as the identity.
  const std::string bandit_fixture = read_file(data_path("state_v2_stats.bw"));
  const BanditWare bandit = BanditWare::load_state(bandit_fixture);
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kEpsilonGreedy);
  EXPECT_EQ(bandit.save_state(), bandit_fixture);

  const std::string server_fixture = read_file(data_path("server_state_v2_migrated.bw"));
  ASSERT_EQ(server_fixture.rfind("banditserver-state v3\n", 0), 0u);
  serve::BanditServer server = serve::BanditServer::load_state(server_fixture);
  EXPECT_EQ(server.config().bandit.policy_kind, PolicyKind::kEpsilonGreedy);
  EXPECT_EQ(server.save_state(), server_fixture);
}

TEST(SnapshotGolden, V4LambdaFixtureRoundTripsByteIdentical) {
  // `banditware-state v4`: the discount superset — a `lambda 0.5` line
  // before the (now always present) policy line. LinUCB (alpha 1.5) over
  // the NDP catalog on the standard 9-observation stream, λ = 0.5 chosen
  // exactly representable so the text bytes are platform-stable.
  const std::string fixture = read_file(data_path("state_v4_lambda.bw"));
  ASSERT_FALSE(fixture.empty());
  ASSERT_EQ(
      fixture.rfind("banditware-state v4\nlambda 0.5\npolicy linucb alpha 1.5\n", 0),
      0u);
  const BanditWare bandit = BanditWare::load_state(fixture);
  EXPECT_EQ(bandit.save_state(), fixture);
  EXPECT_EQ(bandit.config().policy.fit.forgetting, 0.5);
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kLinUcb);
  EXPECT_EQ(bandit.num_observations(), 9u);
}

TEST(SnapshotGolden, V5LambdaServerFixtureRoundTripsByteIdentical) {
  // `banditserver-state v5`: the header's ` lambda 0.5` token ahead of the
  // policy token, Thompson (v=1.25), 2 shards, one auto-sync baseline —
  // pins the discounted header together with discounted shard/base blobs
  // (each a v4 bandit blob whose lambda must agree with the header).
  const std::string fixture = read_file(data_path("server_state_v5_lambda.bw"));
  ASSERT_FALSE(fixture.empty());
  ASSERT_EQ(fixture.rfind("banditserver-state v5\n", 0), 0u);
  ASSERT_NE(fixture.find(" lambda 0.5 "), std::string::npos);
  serve::BanditServer server = serve::BanditServer::load_state(fixture);
  EXPECT_EQ(server.config().bandit.policy.fit.forgetting, 0.5);
  EXPECT_EQ(server.config().bandit.policy_kind, PolicyKind::kThompson);
  EXPECT_EQ(server.num_shards(), 2u);
  EXPECT_EQ(server.save_state(), fixture);
  // Discounted baseline algebra survives the round trip: a sync must not
  // double-count what the snapshot already fused.
  const std::size_t before = server.num_observations();
  server.sync_shards();
  EXPECT_EQ(server.num_observations(), before);
}

// ---- binary container fixtures ------------------------------------------
// Checked-in .bwb/.bwt files pin the binary container encoding the same
// way the .bw files pin the text formats: load (through io:: auto-
// detection) -> re-save must reproduce the fixture bytes exactly, so a
// framing, checksum, or field-layout drift fails loudly instead of
// corrupting deployed binary snapshots. Regenerating after an intentional
// format change: the expected bytes are exactly
// `io::save_state(os, io::load_state(<fixture>), Format::kBinary)`.

template <typename State>
std::string save_binary(const State& state) {
  std::ostringstream os(std::ios::binary);
  io::save_state(os, state, io::Format::kBinary);
  return os.str();
}

TEST(SnapshotGolden, BinaryStateFixtureRoundTripsByteIdentical) {
  // ε-greedy over the NDP catalog, 9 deterministic observations, saved by
  // the v1 binary writer (container version byte 1).
  const std::string fixture = read_file(data_path("state_bin_v1.bwb"));
  ASSERT_FALSE(fixture.empty());
  std::istringstream is(fixture, std::ios::binary);
  io::LoadInfo info;
  const BanditWare bandit = io::load_state(is, &info);
  EXPECT_EQ(info.format, io::Format::kBinary);
  EXPECT_EQ(info.version, 1);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kEpsilonGreedy);
  EXPECT_EQ(bandit.num_arms(), 3u);
  EXPECT_EQ(bandit.num_observations(), 9u);
  EXPECT_EQ(save_binary(bandit), fixture);
}

TEST(SnapshotGolden, BinaryRowsFixtureLoadsByReplay) {
  // state_v2_obs.bw re-saved by the last binary writer that still emitted
  // 0x03 row packets (header exact_history flag 1). Rows are load-only: the
  // file replays into the recursive arms, exactly as its text twin does,
  // so both re-save to the same stats-only bytes.
  const std::string fixture = read_file(data_path("state_bin_v1_rows.bwb"));
  ASSERT_FALSE(fixture.empty());
  std::istringstream is(fixture, std::ios::binary);
  io::LoadInfo info;
  const BanditWare bandit = io::load_state(is, &info);
  EXPECT_EQ(info.format, io::Format::kBinary);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(bandit.num_observations(), 6u);
  const BanditWare text_twin =
      BanditWare::load_state(read_file(data_path("state_v2_obs.bw")));
  EXPECT_EQ(save_binary(bandit), save_binary(text_twin));
  EXPECT_NE(save_binary(bandit), fixture);  // re-saved as stats packets
  EXPECT_EQ(bandit.save_state(), read_file(data_path("state_v2_obs_migrated.bw")));
}

TEST(SnapshotGolden, BinaryLinUcbFixtureRoundTripsByteIdentical) {
  // Same stream under LinUCB (alpha 1.5): pins the policy-kind byte and
  // scalar slots of the binary header packet.
  const std::string fixture = read_file(data_path("state_bin_v1_linucb.bwb"));
  ASSERT_FALSE(fixture.empty());
  std::istringstream is(fixture, std::ios::binary);
  const BanditWare bandit = io::load_state(is);
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kLinUcb);
  EXPECT_DOUBLE_EQ(bandit.config().alpha, 1.5);
  EXPECT_EQ(bandit.num_observations(), 9u);
  EXPECT_EQ(save_binary(bandit), fixture);
}

TEST(SnapshotGolden, BinaryServerFixtureRoundTripsByteIdentical) {
  // 2 round-robin shards, sync_every=2, one auto-sync baseline — the same
  // non-trivial engine shape the text server fixtures pin, as packets.
  const std::string fixture = read_file(data_path("server_state_bin_v1.bwb"));
  ASSERT_FALSE(fixture.empty());
  std::istringstream is(fixture, std::ios::binary);
  io::LoadInfo info;
  serve::BanditServer server = io::load_server_state(is, &info);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(server.num_shards(), 2u);
  EXPECT_EQ(server.config().sync_every, 2u);
  EXPECT_EQ(save_binary(server), fixture);
  // The restored baseline threads through the merge algebra: a sync must
  // not double-count what the snapshot already fused.
  const std::size_t before = server.num_observations();
  server.sync_shards();
  EXPECT_EQ(server.num_observations(), before);
}

TEST(SnapshotGolden, BinaryRunTableFixtureRoundTripsByteIdentical) {
  // 10 groups x 2 features over the NDP arms, one row block + end sentinel.
  const std::string fixture = read_file(data_path("runs_bin_v1.bwt"));
  ASSERT_FALSE(fixture.empty());
  std::istringstream is(fixture, std::ios::binary);
  io::LoadInfo info;
  const RunTable table = io::read_run_table(is, &info);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(table.num_groups(), 10u);
  EXPECT_EQ(table.num_features(), 2u);
  EXPECT_EQ(table.num_arms(), 3u);
  std::ostringstream os(std::ios::binary);
  io::write_run_table(os, table);
  EXPECT_EQ(os.str(), fixture);
}

TEST(SnapshotGolden, BinaryLambdaFixturesRoundTripByteIdentical) {
  // The 0x04 (bandit) and 0x13 (server) lambda extension packets, pinned as
  // checked-in bytes: the same discounted instances as the text fixtures,
  // through the binary container. The lambda packet rides between the magic
  // and the header, uncounted by the end sentinel — old readers skip it.
  {
    const std::string fixture = read_file(data_path("state_bin_v1_lambda.bwb"));
    ASSERT_FALSE(fixture.empty());
    std::istringstream is(fixture, std::ios::binary);
    io::LoadInfo info;
    const BanditWare bandit = io::load_state(is, &info);
    EXPECT_FALSE(info.truncated);
    EXPECT_EQ(bandit.config().policy.fit.forgetting, 0.5);
    EXPECT_EQ(bandit.policy_kind(), PolicyKind::kLinUcb);
    EXPECT_EQ(bandit.num_observations(), 9u);
    EXPECT_EQ(save_binary(bandit), fixture);
    // Binary and text fixtures pin the same model.
    EXPECT_EQ(bandit.save_state(), read_file(data_path("state_v4_lambda.bw")));
  }
  {
    const std::string fixture =
        read_file(data_path("server_state_bin_v1_lambda.bwb"));
    ASSERT_FALSE(fixture.empty());
    std::istringstream is(fixture, std::ios::binary);
    io::LoadInfo info;
    serve::BanditServer server = io::load_server_state(is, &info);
    EXPECT_FALSE(info.truncated);
    EXPECT_EQ(server.config().bandit.policy.fit.forgetting, 0.5);
    EXPECT_EQ(save_binary(server), fixture);
    EXPECT_EQ(server.save_state(),
              read_file(data_path("server_state_v5_lambda.bw")));
  }
}

// ---- fleet wire fixtures -------------------------------------------------
// Kind-4 (gossip delta) and kind-5 (node snapshot) containers, pinned the
// same way: load -> re-save must reproduce the fixture bytes exactly, so
// the delta framing a whole fleet gossips over can never drift silently.
// Both cases also rebuild the generator's recipe with this tree's code and
// compare against the checked-in bytes, which pins the engine blob a node
// snapshot embeds — the model its rebuild adopted. Regenerating after an
// intentional format change:
//   ./build/tools/gen_fleet_fixtures --out-dir tests/data
// (the generator's fixture_node() must stay in lockstep with the helper
// below — both build node 1 after one gossip hop from node 0).

fleet::FleetNode fleet_fixture_node(std::uint32_t node_id, PolicyKind kind,
                                    double forgetting) {
  fleet::FleetNodeConfig config;
  config.node_id = node_id;
  config.server.num_shards = 1;
  config.server.seed = 17 + node_id;
  config.server.bandit.policy_kind = kind;
  config.server.bandit.alpha = 1.5;
  config.server.bandit.posterior_scale = 1.25;
  config.server.bandit.policy.fit.forgetting = forgetting;
  config.server.bandit.policy.fit.ridge = 1e-3;
  fleet::FleetNode node(hw::ndp_catalog(), {"num_tasks", "mem_gb"}, config);
  std::vector<serve::ServeObservation> observations;
  for (int i = 0; i < 8; ++i) {
    const double tasks = 20.0 + 5.0 * i + 3.0 * node_id;
    const double mem = 4.0 + (i % 3);
    observations.push_back(
        {0, static_cast<ArmIndex>(i % 3), {tasks, mem}, 4.0 + tasks / 16.0});
  }
  node.observe_batch(observations);
  return node;
}

/// The generator's recipe: node 1 after one gossip hop from node 0,
/// through the wire codec.
fleet::FleetNode fleet_fixture_hop(PolicyKind kind, double forgetting) {
  const fleet::FleetNode a = fleet_fixture_node(0, kind, forgetting);
  fleet::FleetNode b = fleet_fixture_node(1, kind, forgetting);
  b.apply_delta(io::load_fleet_delta(io::save_fleet_delta(a.make_delta(1))));
  return b;
}

TEST(SnapshotGolden, FleetDeltaFixturesRoundTripByteIdentical) {
  struct Case {
    const char* file;
    PolicyKind kind;
    double forgetting;
  };
  const std::vector<Case> cases = {
      {"fleet_delta_v1_eps.bwf", PolicyKind::kEpsilonGreedy, 1.0},
      {"fleet_delta_v1_linucb.bwf", PolicyKind::kLinUcb, 1.0},
      {"fleet_delta_v1_lambda.bwf", PolicyKind::kThompson, 0.5},
  };
  for (const Case& c : cases) {
    const std::string fixture = read_file(data_path(c.file));
    ASSERT_FALSE(fixture.empty()) << c.file;
    bool truncated = true;
    const io::FleetDelta delta = io::load_fleet_delta(fixture, &truncated);
    EXPECT_FALSE(truncated) << c.file;
    EXPECT_EQ(delta.sender, 1u) << c.file;
    EXPECT_EQ(delta.sender_incarnation, 1u) << c.file;
    EXPECT_EQ(delta.config.policy, c.kind) << c.file;
    EXPECT_DOUBLE_EQ(delta.config.lambda, c.forgetting) << c.file;
    EXPECT_DOUBLE_EQ(delta.config.ridge, 1e-3) << c.file;
    EXPECT_EQ(delta.config.num_features, 2u) << c.file;
    EXPECT_EQ(delta.config.num_arms, 3u) << c.file;
    // Node 1 after one gossip hop holds its own stream and node 0's.
    EXPECT_EQ(delta.origins.size(), 2u) << c.file;
    EXPECT_EQ(delta.version_vector.size(), 2u) << c.file;
    EXPECT_EQ(io::save_fleet_delta(delta), fixture) << c.file;
    EXPECT_EQ(io::save_fleet_delta(fleet_fixture_hop(c.kind, c.forgetting).make_delta(2)),
              fixture)
        << c.file;
    // The pinned bytes stay semantically live: a receiver built with the
    // canonical fixture config must accept and fold every entry.
    fleet::FleetNode receiver = fleet_fixture_node(9, c.kind, c.forgetting);
    const fleet::ApplyResult applied = receiver.apply_delta(delta);
    EXPECT_EQ(applied.applied, 6u) << c.file;  // 2 origins x 3 arms
    EXPECT_TRUE(applied.changed) << c.file;
  }
}

TEST(SnapshotGolden, FleetNodeFixtureRestoresAndRoundTripsByteIdentical) {
  const std::string fixture = read_file(data_path("fleet_node_v1.bwf"));
  ASSERT_FALSE(fixture.empty());
  bool truncated = true;
  const io::FleetNodeState state = io::load_fleet_node(fixture, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(state.node, 1u);
  EXPECT_EQ(state.incarnation, 1u);
  EXPECT_EQ(state.config.policy, PolicyKind::kEpsilonGreedy);
  EXPECT_FALSE(state.server_blob.empty());
  EXPECT_EQ(state.origins.size(), 2u);
  EXPECT_EQ(io::save_fleet_node(state), fixture);
  EXPECT_EQ(fleet_fixture_hop(PolicyKind::kEpsilonGreedy, 1.0).save_snapshot(), fixture);
  // The snapshot must keep restarting: next incarnation, both origin
  // streams intact (2 nodes x 8 observations).
  const fleet::FleetNode node = fleet::FleetNode::restore(fixture);
  EXPECT_EQ(node.node_id(), 1u);
  EXPECT_EQ(node.incarnation(), 2u);
  EXPECT_EQ(node.total_observations(), 16u);
  EXPECT_EQ(node.num_origins(), 3u);  // restored streams + the fresh self
}

TEST(SnapshotGolden, MigratedServerBaselineKeepsSyncExact) {
  // The restored baseline must thread through the merge algebra: syncing
  // the restored server must not double-count the 12 shared observations.
  const std::string fixture = read_file(data_path("server_state_v2.bw"));
  serve::BanditServer server = serve::BanditServer::load_state(fixture);
  const std::size_t before = server.num_observations();
  server.sync_shards();
  EXPECT_EQ(server.num_observations(), before);
  // Post-sync both replicas serve the identical fused model.
  const core::FeatureVector x = {123.0};
  EXPECT_EQ(server.predictions(0, x), server.predictions(1, x));
}

}  // namespace
}  // namespace bw::core
