// Golden-snapshot fixtures under tests/data/, in two kinds:
//
// * Load pins — every fixture an older writer produced (text bandit v1-v4,
//   text server v2-v5, binary (θ, P) containers, fleet wire v1). Each must
//   keep loading: per-arm counts and ε exactly as stored, and predictions
//   within 1e-9 (relative) of the θ the fixture stores. The (θ, P) bodies
//   reach the model through the RLS's one legacy conversion; the tests read
//   the stored θ straight out of the fixture bytes to check it.
// * Write pins — one per format, exactly the bytes this tree writes for a
//   fixed recipe (write_pin_* below): text bandit v5, text server v6, the
//   binary bandit and server containers, fleet delta and fleet node wire v2.
//   The recipe must reproduce them and load -> save must be the identity,
//   so any drift in a writer, a reader or the RLS update fails here.
//
// Regenerating the write pins after an *intentional* format change (then
// review the byte diff):
//   ./build/tests/test_snapshot_golden --gtest_also_run_disabled_tests
//       --gtest_filter='SnapshotGolden.DISABLED_RegenerateWritePins'
// (one command line).
// The load pins are never regenerated: they are what older writers wrote.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/banditware.hpp"
#include "core/run_table.hpp"
#include "fleet/fleet_node.hpp"
#include "hardware/catalog.hpp"
#include "io/fleet_wire.hpp"
#include "io/run_table_io.hpp"
#include "io/state_io.hpp"
#include "linalg/rls.hpp"
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

template <typename State>
std::string save_binary(const State& state) {
  std::ostringstream os(std::ios::binary);
  io::save_state(os, state, io::Format::kBinary);
  return os.str();
}

BanditWare load_bandit(const std::string& bytes, io::LoadInfo* info = nullptr) {
  std::istringstream is(bytes, std::ios::binary);
  return io::load_state(is, info);
}

serve::BanditServer load_server(const std::string& bytes,
                                io::LoadInfo* info = nullptr) {
  std::istringstream is(bytes, std::ios::binary);
  return io::load_server_state(is, info);
}

// ---- reading what a legacy fixture stores ---------------------------------

/// One arm as a legacy body stores it: its count, and its θ (empty for a
/// raw-row record, which stores no θ).
struct StoredArm {
  std::size_t n = 0;
  linalg::Vector theta;
};

struct StoredBandit {
  double epsilon = 0.0;
  std::vector<StoredArm> arms;
};

/// Reads a legacy text `banditware-state` blob's ε line and each arm
/// record's count and `theta` line.
StoredBandit stored_text_bandit(const std::string& text) {
  StoredBandit stored;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "epsilon") {
      fields >> stored.epsilon;
    } else if (head == "arm") {
      std::string last;
      for (std::string token; fields >> token;) last = token;
      stored.arms.push_back({std::stoull(last), {}});
    } else if (head == "theta") {
      for (double v; fields >> v;) stored.arms.back().theta.push_back(v);
    }
  }
  return stored;
}

std::uint64_t le_uint(const std::string& bytes, std::size_t at, std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

double le_f64(const std::string& bytes, std::size_t at) {
  const std::uint64_t bits = le_uint(bytes, at, 8);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

/// Calls `visit(type, payload)` for every packet of a binary container.
void for_each_packet(const std::string& bytes,
                     const std::function<void(int, const std::string&)>& visit) {
  std::size_t at = sizeof(io::kMagic) + 1;
  while (at + 12 <= bytes.size()) {
    const std::size_t size = le_uint(bytes, at, 4);
    const int type = static_cast<unsigned char>(bytes[at + 8]);
    visit(type, bytes.substr(at + 12, size));
    at += 12 + size;
  }
}

/// Reads a legacy binary kind-1 container: ε from the 0x01 header and each
/// 0x02 arm packet's count and θ.
StoredBandit stored_binary_bandit(const std::string& bytes, std::size_t dim) {
  StoredBandit stored;
  for_each_packet(bytes, [&](int type, const std::string& payload) {
    if (type == 0x01) {
      stored.epsilon = le_f64(payload, 1 + 6 * 8 + 1);  // after the config
    } else if (type == 0x02) {
      const std::size_t arm = le_uint(payload, 0, 4);
      if (stored.arms.size() <= arm) stored.arms.resize(arm + 1);
      stored.arms[arm].n = le_uint(payload, 4, 8);
      for (std::size_t k = 0; k <= dim; ++k) {
        stored.arms[arm].theta.push_back(le_f64(payload, 12 + 8 * k));
      }
    }
  });
  return stored;
}

/// The shard blobs, then the base blob, of a text `banditserver-state`.
std::vector<std::string> text_server_blobs(const std::string& text) {
  std::vector<std::string> blobs;
  std::size_t at = text.find('\n') + 1;   // past the version line
  at = text.find('\n', at) + 1;           // past the header line
  while (at < text.size()) {
    const std::size_t eol = text.find('\n', at);
    const std::string record = text.substr(at, eol - at);
    const std::size_t bytes = std::stoull(record.substr(record.rfind(' ') + 1));
    blobs.push_back(text.substr(eol + 1, bytes));
    at = eol + 1 + bytes;
  }
  return blobs;
}

/// The nested shard containers, then the base container, of a binary
/// `banditserver-state`.
std::vector<std::string> binary_server_blobs(const std::string& bytes) {
  std::vector<std::string> blobs;
  std::string base;
  for_each_packet(bytes, [&](int type, const std::string& payload) {
    if (type == 0x11) blobs.push_back(payload.substr(4));
    if (type == 0x12) base = payload;
  });
  blobs.push_back(base);
  return blobs;
}

/// Probe contexts for `dim` features, away from the fixtures' training
/// points.
std::vector<FeatureVector> probes(std::size_t dim) {
  std::vector<FeatureVector> xs;
  for (int p = 0; p < 3; ++p) {
    FeatureVector x(dim);
    for (std::size_t k = 0; k < dim; ++k) x[k] = 10.0 + 17.0 * p + 3.0 * k;
    xs.push_back(x);
  }
  return xs;
}

/// θ·[x; 1], summed from 0.0 like every predict in the library.
double predict_theta(const linalg::Vector& theta, const FeatureVector& x) {
  double sum = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) sum += theta[k] * x[k];
  return sum + theta[x.size()];
}

void expect_theta_near(double got, const linalg::Vector& theta, const FeatureVector& x,
                       const std::string& what) {
  const double want = predict_theta(theta, x);
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want))) << what;
}

/// The load pin: counts and ε exactly as stored, predictions within 1e-9
/// of the stored θ.
void expect_holds_stored(const BanditWare& bandit, const StoredBandit& stored,
                         const std::string& what) {
  ASSERT_EQ(bandit.num_arms(), stored.arms.size()) << what;
  if (bandit.policy_kind() == PolicyKind::kEpsilonGreedy) {
    EXPECT_EQ(bandit.epsilon(), stored.epsilon) << what;
  }
  for (ArmIndex arm = 0; arm < bandit.num_arms(); ++arm) {
    EXPECT_EQ(bandit.arm_model(arm).n_observations(), stored.arms[arm].n) << what;
  }
  for (const FeatureVector& x : probes(bandit.feature_names().size())) {
    const std::vector<double> got = bandit.predictions(x);
    for (ArmIndex arm = 0; arm < bandit.num_arms(); ++arm) {
      if (stored.arms[arm].theta.empty()) continue;
      expect_theta_near(got[arm], stored.arms[arm].theta, x,
                        what + " arm " + std::to_string(arm));
    }
  }
}

/// Load pin for a text bandit fixture; returns the loaded model.
BanditWare expect_text_load_pin(const std::string& file) {
  const std::string fixture = read_file(data_path(file));
  const BanditWare bandit = BanditWare::load_state(fixture);
  expect_holds_stored(bandit, stored_text_bandit(fixture), file);
  return bandit;
}

/// Load pin for a binary bandit fixture; returns the loaded model.
BanditWare expect_binary_load_pin(const std::string& file) {
  const std::string fixture = read_file(data_path(file));
  io::LoadInfo info;
  const BanditWare bandit = load_bandit(fixture, &info);
  EXPECT_EQ(info.format, io::Format::kBinary) << file;
  EXPECT_FALSE(info.truncated) << file;
  expect_holds_stored(
      bandit, stored_binary_bandit(fixture, bandit.feature_names().size()), file);
  return bandit;
}

/// Load pin for a server: every blob (shards, then base) holds what it
/// stores, and each shard of the restored engine serves exactly its blob.
void expect_server_holds_blobs(const serve::BanditServer& server,
                               const std::vector<std::string>& blobs, bool binary,
                               const std::string& what) {
  ASSERT_EQ(blobs.size(), server.num_shards() + 1) << what;
  for (std::size_t b = 0; b < blobs.size(); ++b) {
    const std::string blob_what = what + " blob " + std::to_string(b);
    const BanditWare model = load_bandit(blobs[b]);
    const StoredBandit stored =
        binary ? stored_binary_bandit(blobs[b], model.feature_names().size())
               : stored_text_bandit(blobs[b]);
    expect_holds_stored(model, stored, blob_what);
    if (b == server.num_shards()) break;  // the base: no shard serves it
    EXPECT_EQ(server.shard_observation_counts()[b], model.num_observations())
        << blob_what;
    for (const FeatureVector& x : probes(model.feature_names().size())) {
      EXPECT_EQ(server.predictions(b, x), model.predictions(x)) << blob_what;
    }
  }
}

// ---- load pins: text ------------------------------------------------------

TEST(SnapshotGolden, V2StatsFixtureLoads) {
  // Sufficient statistics records, trained on the NDP catalog over a short
  // deterministic stream by the v2 writer.
  const BanditWare bandit = expect_text_load_pin("state_v2_stats.bw");
  EXPECT_EQ(bandit.num_arms(), 3u);
  EXPECT_EQ(bandit.num_observations(), 9u);
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kEpsilonGreedy);
  // Migration completes on the next save and is stable from then on.
  const std::string resaved = bandit.save_state();
  EXPECT_EQ(resaved.rfind("banditware-state v5\n", 0), 0u);
  EXPECT_EQ(BanditWare::load_state(resaved).save_state(), resaved);
}

TEST(SnapshotGolden, V2ExactHistoryFixtureReplaysToItsPinnedMigration) {
  // Legacy `exact_history 1` snapshot (raw observation rows inside a v2
  // envelope). Rows replay into the recursive arms; the result holds what
  // the last stats writer saved for it (state_v2_obs_migrated.bw).
  const std::string fixture = read_file(data_path("state_v2_obs.bw"));
  const BanditWare bandit = BanditWare::load_state(fixture);
  EXPECT_EQ(bandit.num_observations(), 6u);
  const std::string migrated = read_file(data_path("state_v2_obs_migrated.bw"));
  expect_holds_stored(bandit, stored_text_bandit(migrated), "replayed rows");
  expect_text_load_pin("state_v2_obs_migrated.bw");
  const std::string resaved = bandit.save_state();
  EXPECT_EQ(BanditWare::load_state(resaved).save_state(), resaved);
}

TEST(SnapshotGolden, V1FixtureReplaysToItsPinnedMigration) {
  // Legacy v1 (raw rows, no gpus column, no exact_history flag) keeps
  // loading by replay and holds what the v2 writer saved for it.
  const std::string fixture = read_file(data_path("state_v1.bw"));
  const BanditWare bandit = BanditWare::load_state(fixture);
  const std::string migrated = read_file(data_path("state_v1_migrated.bw"));
  expect_holds_stored(bandit, stored_text_bandit(migrated), "replayed v1 rows");
  expect_text_load_pin("state_v1_migrated.bw");
  const std::string resaved = bandit.save_state();
  EXPECT_EQ(BanditWare::load_state(resaved).save_state(), resaved);
}

TEST(SnapshotGolden, V2ServerFixtureLoadsWithItsBaseline) {
  // Legacy `banditserver-state v2` (no sync_mode token) carrying a
  // NON-TRIVIAL sync baseline: 2 round-robin shards, sync_every=2, one
  // auto-sync fused 12 observations into the baseline, then one more
  // mid-cadence batch left per-shard deltas on top. It must keep loading —
  // inline mode default, baseline intact — as must its v3 re-save.
  const std::string fixture = read_file(data_path("server_state_v2.bw"));
  ASSERT_EQ(fixture.rfind("banditserver-state v2\n", 0), 0u);
  serve::BanditServer server = serve::BanditServer::load_state(fixture);
  EXPECT_EQ(server.num_shards(), 2u);
  EXPECT_EQ(server.config().sync_mode, serve::SyncMode::kInline);
  EXPECT_EQ(server.config().sync_every, 2u);
  // 3 batches x 6 observations; the baseline carries the 12 fused at the
  // auto-sync, each shard 12 fused + 3 own: 30 raw - 12 shared = 18.
  EXPECT_EQ(server.num_observations(), 18u);
  EXPECT_EQ(server.shard_observation_counts(), (std::vector<std::size_t>{15, 15}));
  expect_server_holds_blobs(server, text_server_blobs(fixture), false, "v2 server");

  const std::string migrated = read_file(data_path("server_state_v2_migrated.bw"));
  ASSERT_EQ(migrated.rfind("banditserver-state v3\n", 0), 0u);
  const serve::BanditServer v3 = serve::BanditServer::load_state(migrated);
  EXPECT_EQ(v3.config().bandit.policy_kind, PolicyKind::kEpsilonGreedy);
  expect_server_holds_blobs(v3, text_server_blobs(migrated), false, "v3 server");
  const std::string resaved = server.save_state();
  EXPECT_EQ(resaved.rfind("banditserver-state v6\n", 0), 0u);
  EXPECT_EQ(serve::BanditServer::load_state(resaved).save_state(), resaved);
}

TEST(SnapshotGolden, V3LinUcbFixtureLoads) {
  // Policy-axis format: LinUCB (alpha 1.5) over the NDP catalog.
  const std::string fixture = read_file(data_path("state_v3_linucb.bw"));
  ASSERT_EQ(fixture.rfind("banditware-state v3\npolicy linucb alpha 1.5\n", 0), 0u);
  const BanditWare bandit = expect_text_load_pin("state_v3_linucb.bw");
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kLinUcb);
  EXPECT_DOUBLE_EQ(bandit.config().alpha, 1.5);
  EXPECT_EQ(bandit.num_observations(), 9u);
}

TEST(SnapshotGolden, V4ThompsonServerFixtureLoads) {
  // `banditserver-state v4`: 2 round-robin shards, sync_every=2, Thompson
  // (v=1.25); the auto-sync at batch 2 fused 8 observations into the
  // baseline and batch 3 left per-shard deltas.
  const std::string fixture = read_file(data_path("server_state_v4_thompson.bw"));
  ASSERT_EQ(fixture.rfind("banditserver-state v4\n", 0), 0u);
  serve::BanditServer server = serve::BanditServer::load_state(fixture);
  EXPECT_EQ(server.config().bandit.policy_kind, PolicyKind::kThompson);
  EXPECT_DOUBLE_EQ(server.config().bandit.posterior_scale, 1.25);
  EXPECT_EQ(server.num_shards(), 2u);
  EXPECT_EQ(server.num_observations(), 12u);
  expect_server_holds_blobs(server, text_server_blobs(fixture), false, "v4 server");
  // A sync on the restored engine must not double-count the fused baseline.
  server.sync_shards();
  EXPECT_EQ(server.num_observations(), 12u);
}

TEST(SnapshotGolden, LegacyFixturesRestoreAsEpsilonGreedy) {
  // The pre-policy-axis formats carry no policy token; they restore as
  // ε-greedy at λ = 1 with the default ridge.
  const BanditWare bandit =
      BanditWare::load_state(read_file(data_path("state_v2_stats.bw")));
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kEpsilonGreedy);
  EXPECT_EQ(bandit.config().policy.fit.forgetting, 1.0);
  EXPECT_EQ(bandit.config().policy.fit.ridge, 0.0);

  const serve::BanditServer server = serve::BanditServer::load_state(
      read_file(data_path("server_state_v2_migrated.bw")));
  EXPECT_EQ(server.config().bandit.policy_kind, PolicyKind::kEpsilonGreedy);
  EXPECT_EQ(server.config().bandit.policy.fit.ridge, 0.0);
}

TEST(SnapshotGolden, V4LambdaFixtureLoads) {
  // `banditware-state v4`: the discount superset — a `lambda 0.5` line
  // before the policy line. LinUCB (alpha 1.5) over the NDP catalog on the
  // standard 9-observation stream.
  const std::string fixture = read_file(data_path("state_v4_lambda.bw"));
  ASSERT_EQ(
      fixture.rfind("banditware-state v4\nlambda 0.5\npolicy linucb alpha 1.5\n", 0),
      0u);
  const BanditWare bandit = expect_text_load_pin("state_v4_lambda.bw");
  EXPECT_EQ(bandit.config().policy.fit.forgetting, 0.5);
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kLinUcb);
  EXPECT_EQ(bandit.num_observations(), 9u);
}

TEST(SnapshotGolden, V5LambdaServerFixtureLoads) {
  // `banditserver-state v5`: the header's ` lambda 0.5` token ahead of the
  // policy token, Thompson (v=1.25), 2 shards, one auto-sync baseline.
  const std::string fixture = read_file(data_path("server_state_v5_lambda.bw"));
  ASSERT_EQ(fixture.rfind("banditserver-state v5\n", 0), 0u);
  ASSERT_NE(fixture.find(" lambda 0.5 "), std::string::npos);
  serve::BanditServer server = serve::BanditServer::load_state(fixture);
  EXPECT_EQ(server.config().bandit.policy.fit.forgetting, 0.5);
  EXPECT_EQ(server.config().bandit.policy_kind, PolicyKind::kThompson);
  EXPECT_EQ(server.num_shards(), 2u);
  expect_server_holds_blobs(server, text_server_blobs(fixture), false, "v5 server");
  // Discounted baseline algebra survives the load: a sync must not
  // double-count what the snapshot already fused.
  const std::size_t before = server.num_observations();
  server.sync_shards();
  EXPECT_EQ(server.num_observations(), before);
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

// ---- load pins: binary ----------------------------------------------------

TEST(SnapshotGolden, BinaryStateFixtureLoads) {
  // ε-greedy over the NDP catalog, 9 deterministic observations, (θ, P)
  // packets (container version byte 1).
  io::LoadInfo info;
  load_bandit(read_file(data_path("state_bin_v1.bwb")), &info);
  EXPECT_EQ(info.version, 1);
  const BanditWare bandit = expect_binary_load_pin("state_bin_v1.bwb");
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kEpsilonGreedy);
  EXPECT_EQ(bandit.num_arms(), 3u);
  EXPECT_EQ(bandit.num_observations(), 9u);
}

TEST(SnapshotGolden, BinaryRowsFixtureLoadsByReplay) {
  // state_v2_obs.bw re-saved by the last binary writer that still emitted
  // 0x03 row packets (header exact_history flag 1). Rows replay into the
  // recursive arms, exactly as the text twin's do.
  const std::string fixture = read_file(data_path("state_bin_v1_rows.bwb"));
  io::LoadInfo info;
  const BanditWare bandit = load_bandit(fixture, &info);
  EXPECT_EQ(info.format, io::Format::kBinary);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(bandit.num_observations(), 6u);
  const BanditWare text_twin =
      BanditWare::load_state(read_file(data_path("state_v2_obs.bw")));
  EXPECT_EQ(save_binary(bandit), save_binary(text_twin));
  const std::string migrated = read_file(data_path("state_v2_obs_migrated.bw"));
  expect_holds_stored(bandit, stored_text_bandit(migrated), "binary rows");
}

TEST(SnapshotGolden, BinaryLinUcbFixtureLoads) {
  // Same stream under LinUCB (alpha 1.5): the policy-kind byte and scalar
  // slots of the binary header packet.
  const BanditWare bandit = expect_binary_load_pin("state_bin_v1_linucb.bwb");
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kLinUcb);
  EXPECT_DOUBLE_EQ(bandit.config().alpha, 1.5);
  EXPECT_EQ(bandit.num_observations(), 9u);
}

TEST(SnapshotGolden, BinaryServerFixtureLoads) {
  // 2 round-robin shards, sync_every=2, one auto-sync baseline — the same
  // non-trivial engine shape the text server fixtures pin, as packets.
  const std::string fixture = read_file(data_path("server_state_bin_v1.bwb"));
  io::LoadInfo info;
  serve::BanditServer server = load_server(fixture, &info);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(server.num_shards(), 2u);
  EXPECT_EQ(server.config().sync_every, 2u);
  expect_server_holds_blobs(server, binary_server_blobs(fixture), true, "binary server");
  // The restored baseline threads through the merge algebra.
  const std::size_t before = server.num_observations();
  server.sync_shards();
  EXPECT_EQ(server.num_observations(), before);
}

TEST(SnapshotGolden, BinaryLambdaFixturesLoadLikeTheirTextTwins) {
  // The λ-only 0x04 (bandit) and 0x13 (server) packets of the discount
  // writers, over the same discounted instances as the text fixtures. Text
  // and binary stored the same doubles, so both convert to the same
  // evidence and re-save to the same bytes.
  const BanditWare bandit = expect_binary_load_pin("state_bin_v1_lambda.bwb");
  EXPECT_EQ(bandit.config().policy.fit.forgetting, 0.5);
  EXPECT_EQ(bandit.policy_kind(), PolicyKind::kLinUcb);
  EXPECT_EQ(bandit.num_observations(), 9u);
  const std::string text_twin = read_file(data_path("state_v4_lambda.bw"));
  EXPECT_EQ(bandit.save_state(), BanditWare::load_state(text_twin).save_state());

  const std::string fixture = read_file(data_path("server_state_bin_v1_lambda.bwb"));
  io::LoadInfo info;
  const serve::BanditServer server = load_server(fixture, &info);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(server.config().bandit.policy.fit.forgetting, 0.5);
  expect_server_holds_blobs(server, binary_server_blobs(fixture), true,
                            "binary lambda server");
  EXPECT_EQ(server.save_state(),
            serve::BanditServer::load_state(
                read_file(data_path("server_state_v5_lambda.bw")))
                .save_state());
}

TEST(SnapshotGolden, BinaryRunTableFixtureRoundTripsByteIdentical) {
  // 10 groups x 2 features over the NDP arms, one row block + end sentinel.
  // Run tables have one format version: this fixture is its write pin.
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

// ---- fleet wire -------------------------------------------------------------

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

/// The fleet recipe every fleet fixture was made from: node 1 after one
/// gossip hop from node 0, through the wire codec.
fleet::FleetNode fleet_fixture_hop(PolicyKind kind, double forgetting) {
  const fleet::FleetNode a = fleet_fixture_node(0, kind, forgetting);
  fleet::FleetNode b = fleet_fixture_node(1, kind, forgetting);
  b.apply_delta(io::load_fleet_delta(io::save_fleet_delta(a.make_delta(1))));
  return b;
}

/// θ of one wire entry's evidence, under the fleet fixtures' ridge.
linalg::Vector entry_theta(const io::FleetArmEntry& entry, double forgetting) {
  linalg::RecursiveLeastSquares rls(entry.stats.z.size() - 1, 1e-3, forgetting);
  rls.restore(entry.stats.r, entry.stats.z, entry.stats.n);
  return rls.theta();
}

/// Every version-1 origin block entry (packet `type`) as stored: origin
/// node, arm, count and θ, in wire order.
struct StoredEntry {
  std::uint32_t node = 0;
  std::uint32_t arm = 0;
  std::size_t n = 0;
  linalg::Vector theta;
};

std::vector<StoredEntry> stored_v1_entries(const std::string& bytes, int type,
                                           std::size_t dim) {
  const std::size_t entry_bytes = 12 + 8 * ((dim + 1) + (dim + 1) * (dim + 1));
  std::vector<StoredEntry> entries;
  for_each_packet(bytes, [&](int packet_type, const std::string& payload) {
    if (packet_type != type) return;
    const auto node = static_cast<std::uint32_t>(le_uint(payload, 0, 4));
    const std::size_t count = le_uint(payload, 8, 4);
    for (std::size_t e = 0; e < count; ++e) {
      const std::size_t at = 12 + e * entry_bytes;
      StoredEntry entry{node, static_cast<std::uint32_t>(le_uint(payload, at, 4)),
                        le_uint(payload, at + 4, 8), {}};
      for (std::size_t k = 0; k <= dim; ++k) {
        entry.theta.push_back(le_f64(payload, at + 12 + 8 * k));
      }
      entries.push_back(entry);
    }
  });
  return entries;
}

/// Load pin for v1 origin blocks: counts exact, θ within 1e-9 of the
/// stored θ — and of the θ this tree's recipe learns for the same entry.
void expect_blocks_hold_stored(const std::vector<io::FleetOriginBlock>& blocks,
                               const std::vector<StoredEntry>& stored,
                               const io::FleetDelta& recipe, double forgetting,
                               const std::string& what) {
  std::size_t next = 0;
  for (std::size_t o = 0; o < blocks.size(); ++o) {
    for (std::size_t e = 0; e < blocks[o].arms.size(); ++e, ++next) {
      ASSERT_LT(next, stored.size()) << what;
      const io::FleetArmEntry& entry = blocks[o].arms[e];
      const std::string at = what + " origin " + std::to_string(o) + " entry " +
                             std::to_string(e);
      EXPECT_EQ(blocks[o].origin.node, stored[next].node) << at;
      EXPECT_EQ(entry.arm, stored[next].arm) << at;
      EXPECT_EQ(entry.stats.n, stored[next].n) << at;
      const linalg::Vector theta = entry_theta(entry, forgetting);
      const linalg::Vector learned = entry_theta(recipe.origins[o].arms[e], forgetting);
      for (const FeatureVector& x : probes(theta.size() - 1)) {
        expect_theta_near(predict_theta(theta, x), stored[next].theta, x, at);
        expect_theta_near(predict_theta(learned, x), stored[next].theta, x,
                          at + " (recipe)");
      }
    }
  }
  EXPECT_EQ(next, stored.size()) << what;
}

TEST(SnapshotGolden, FleetDeltaV1FixturesLoad) {
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
    ASSERT_EQ(delta.origins.size(), 2u) << c.file;
    EXPECT_EQ(delta.version_vector.size(), 2u) << c.file;
    const io::FleetDelta recipe = fleet_fixture_hop(c.kind, c.forgetting).make_delta(2);
    EXPECT_TRUE(recipe.config == delta.config) << c.file;
    expect_blocks_hold_stored(delta.origins, stored_v1_entries(fixture, 0x31, 2), recipe,
                              c.forgetting, c.file);
    // The loaded entries stay live: a receiver built with the fixture
    // config accepts and folds every one.
    fleet::FleetNode receiver = fleet_fixture_node(9, c.kind, c.forgetting);
    const fleet::ApplyResult applied = receiver.apply_delta(delta);
    EXPECT_EQ(applied.applied, 6u) << c.file;  // 2 origins x 3 arms
    EXPECT_TRUE(applied.changed) << c.file;
  }
}

TEST(SnapshotGolden, FleetNodeV1FixtureRestores) {
  const std::string fixture = read_file(data_path("fleet_node_v1.bwf"));
  ASSERT_FALSE(fixture.empty());
  bool truncated = true;
  const io::FleetNodeState state = io::load_fleet_node(fixture, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(state.node, 1u);
  EXPECT_EQ(state.incarnation, 1u);
  EXPECT_EQ(state.config.policy, PolicyKind::kEpsilonGreedy);
  EXPECT_DOUBLE_EQ(state.config.ridge, 1e-3);
  ASSERT_EQ(state.origins.size(), 2u);
  const fleet::FleetNode hop = fleet_fixture_hop(PolicyKind::kEpsilonGreedy, 1.0);
  // The hop's delta to a fresh peer carries exactly the node's store.
  expect_blocks_hold_stored(state.origins, stored_v1_entries(fixture, 0x42, 2),
                            hop.make_delta(2), 1.0, "fleet node");
  // The embedded engine blob is a legacy binary server: a load pin too.
  // Its ridge came from the fleet envelope before snapshots carried one.
  const serve::BanditServer engine = load_server(state.server_blob);
  expect_server_holds_blobs(engine, binary_server_blobs(state.server_blob), true,
                            "fleet node engine");
  // The snapshot keeps restarting: next incarnation, both origin streams
  // intact (2 nodes x 8 observations).
  const fleet::FleetNode node = fleet::FleetNode::restore(fixture);
  EXPECT_EQ(node.node_id(), 1u);
  EXPECT_EQ(node.incarnation(), 2u);
  EXPECT_EQ(node.total_observations(), 16u);
  EXPECT_EQ(node.num_origins(), 3u);  // restored streams + the fresh self
  EXPECT_EQ(node.server().config().bandit.policy.fit.ridge, 1e-3);
}

// ---- write pins -------------------------------------------------------------

/// Bandit write-pin recipe: ε-greedy over the NDP catalog with the default
/// fit, 9 deterministic observations round-robining the arms.
BanditWare write_pin_bandit() {
  BanditWare bandit(hw::ndp_catalog(), {"num_tasks", "mem_gb"});
  for (int i = 0; i < 9; ++i) {
    const FeatureVector x = {20.0 + 5.0 * i, 4.0 + (3 * i * i) % 7};
    bandit.observe(static_cast<ArmIndex>(i % 3), x,
                   2.0 + (i % 3) + x[0] / 16.0 + 0.25 * x[1]);
  }
  return bandit;
}

/// Server write-pin recipe: Thompson (v = 1.25) with λ = 0.5 and ridge 1e-3,
/// 2 round-robin shards, sync_every 2 — the auto-sync at batch 2 fuses a
/// baseline and batch 3 leaves per-shard deltas on top.
serve::BanditServer write_pin_server() {
  serve::BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = serve::ShardingPolicy::kRoundRobin;
  config.sync_every = 2;
  config.seed = 7;
  config.bandit.policy_kind = PolicyKind::kThompson;
  config.bandit.posterior_scale = 1.25;
  config.bandit.policy.fit.forgetting = 0.5;
  config.bandit.policy.fit.ridge = 1e-3;
  serve::BanditServer server(hw::ndp_catalog(), {"num_tasks", "mem_gb"}, config);
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<serve::ServeObservation> observations;
    for (int i = 0; i < 6; ++i) {
      const int k = 6 * batch + i;
      const double tasks = 20.0 + 5.0 * k;
      const double mem = 4.0 + (3 * k * k) % 7;
      observations.push_back({static_cast<std::size_t>(k % 2),
                              static_cast<ArmIndex>(k % 3),
                              {tasks, mem},
                              2.0 + (k % 3) + tasks / 16.0 + 0.25 * mem});
    }
    server.observe_batch(observations);
  }
  return server;
}

/// One write pin: its file, the bytes this tree writes for its recipe, and
/// a load -> save of given bytes in the same format.
struct WritePin {
  const char* file;
  std::function<std::string()> write;
  std::function<std::string(const std::string&)> resave;
};

std::vector<WritePin> write_pins() {
  return {
      {"state_v5.bw", [] { return write_pin_bandit().save_state(); },
       [](const std::string& b) { return BanditWare::load_state(b).save_state(); }},
      {"server_state_v6.bw", [] { return write_pin_server().save_state(); },
       [](const std::string& b) {
         return serve::BanditServer::load_state(b).save_state();
       }},
      {"state_bin_evidence.bwb", [] { return save_binary(write_pin_bandit()); },
       [](const std::string& b) { return save_binary(load_bandit(b)); }},
      {"server_state_bin_evidence.bwb", [] { return save_binary(write_pin_server()); },
       [](const std::string& b) { return save_binary(load_server(b)); }},
      {"fleet_delta_v2.bwf",
       [] {
         return io::save_fleet_delta(
             fleet_fixture_hop(PolicyKind::kThompson, 0.5).make_delta(2));
       },
       [](const std::string& b) {
         return io::save_fleet_delta(io::load_fleet_delta(b));
       }},
      {"fleet_node_v2.bwf",
       [] { return fleet_fixture_hop(PolicyKind::kEpsilonGreedy, 1.0).save_snapshot(); },
       [](const std::string& b) { return io::save_fleet_node(io::load_fleet_node(b)); }},
  };
}

TEST(SnapshotGolden, WritePinsAreWhatThisTreeWrites) {
  for (const WritePin& pin : write_pins()) {
    const std::string fixture = read_file(data_path(pin.file));
    ASSERT_FALSE(fixture.empty()) << pin.file;
    EXPECT_EQ(pin.write(), fixture) << pin.file;
    EXPECT_EQ(pin.resave(fixture), fixture) << pin.file;
  }
}

TEST(SnapshotGolden, WritePinsCarryTheCurrentVersions) {
  const std::string bandit = read_file(data_path("state_v5.bw"));
  EXPECT_EQ(
      bandit.rfind("banditware-state v5\nlambda 1\nridge 0\npolicy epsilon-greedy\n", 0),
      0u);
  const std::string server = read_file(data_path("server_state_v6.bw"));
  EXPECT_EQ(server.rfind("banditserver-state v6\n", 0), 0u);
  EXPECT_NE(server.find(" lambda 0.5 ridge 0.001 policy thompson "), std::string::npos);
  // The binary pins hold the same models as the text pins.
  EXPECT_EQ(load_bandit(read_file(data_path("state_bin_evidence.bwb"))).save_state(),
            bandit);
  const std::string server_binary = read_file(data_path("server_state_bin_evidence.bwb"));
  EXPECT_EQ(load_server(server_binary).save_state(), server);
  // The node pin restarts with its ridge and both origin streams.
  const fleet::FleetNode node =
      fleet::FleetNode::restore(read_file(data_path("fleet_node_v2.bwf")));
  EXPECT_EQ(node.total_observations(), 16u);
  EXPECT_EQ(node.server().config().bandit.policy.fit.ridge, 1e-3);
  // The restored engine's sync baseline still fuses exactly.
  serve::BanditServer restored = load_server(server_binary);
  const std::size_t before = restored.num_observations();
  restored.sync_shards();
  EXPECT_EQ(restored.num_observations(), before);
}

TEST(SnapshotGolden, DISABLED_RegenerateWritePins) {
  for (const WritePin& pin : write_pins()) {
    const std::string bytes = pin.write();
    std::ofstream out(data_path(pin.file), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << pin.file;
  }
}

}  // namespace
}  // namespace bw::core
