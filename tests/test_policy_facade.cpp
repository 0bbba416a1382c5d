// The policy-pluggable facade: BanditWareConfig::policy_kind must route
// next()/recommend()/observe() through the selected policy while
// the substrate (arm models, merge, sufficient statistics, snapshots,
// serving) behaves identically across kinds. Pins the facade-vs-standalone
// equivalence (the facade runs the *same* LinUCB/Thompson the evaluator
// benchmarks), the v2/v3 snapshot format split, the v4 server format, and
// the acceptance bar: per policy, N-shard synced serving == single-stream
// training at 1e-9 with byte-identical snapshot round trips.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/banditware.hpp"
#include "fleet/fleet_node.hpp"
#include "hardware/catalog.hpp"
#include "serve/bandit_server.hpp"

namespace bw {
namespace {

constexpr core::PolicyKind kAllKinds[] = {core::PolicyKind::kEpsilonGreedy,
                                          core::PolicyKind::kLinUcb,
                                          core::PolicyKind::kThompson};

core::BanditWareConfig config_for(core::PolicyKind kind) {
  core::BanditWareConfig config;
  config.policy_kind = kind;
  config.policy.fit.ridge = 1e-3;
  config.alpha = 1.5;
  config.posterior_scale = 1.25;
  return config;
}

/// Deterministic training stream spread over all arms.
void train(core::BanditWare& bandit, int n = 30) {
  for (int i = 0; i < n; ++i) {
    const core::FeatureVector x = {40.0 + 11.0 * (i % 13), 2.0 + (i % 4)};
    bandit.observe(static_cast<core::ArmIndex>(i % bandit.num_arms()), x,
                   8.0 + 0.4 * i);
  }
}

TEST(PolicyFacade, LinUcbFacadeMatchesStandalonePolicy) {
  // The facade must run the same LinUCB the evaluator studies — identical
  // arm bank (same ridge), identical LCB selections, identical predictions.
  const auto config = config_for(core::PolicyKind::kLinUcb);
  core::BanditWare facade(hw::ndp_catalog(), {"num_tasks", "mem"}, config);
  core::LinUcbConfig standalone_config;
  standalone_config.alpha = config.alpha;
  standalone_config.ridge = config.policy.fit.ridge;
  core::LinUcb standalone(hw::ndp_catalog(), 2, standalone_config);

  Rng facade_rng(5);
  Rng standalone_rng(5);
  for (int i = 0; i < 60; ++i) {
    const core::FeatureVector x = {30.0 + 7.0 * (i % 11), 1.0 + (i % 3)};
    const auto decision = facade.next(x, facade_rng);
    const core::ArmIndex want = standalone.select(x, standalone_rng);
    ASSERT_EQ(decision.arm, want) << "i=" << i;
    EXPECT_EQ(decision.predicted_runtime_s, standalone.predict(want, x));
    const double runtime = 6.0 + x[0] / (1.0 + decision.arm);
    facade.observe(decision.arm, x, runtime);
    standalone.observe(want, x, runtime);
  }
  EXPECT_EQ(facade.recommend_index({100.0, 2.0}), standalone.recommend({100.0, 2.0}));
}

TEST(PolicyFacade, ThompsonFacadeMatchesStandalonePolicy) {
  // Same bar for Thompson: the posterior draws consume the caller's RNG, so
  // equal seeds must yield the identical decision sequence.
  const auto config = config_for(core::PolicyKind::kThompson);
  core::BanditWare facade(hw::ndp_catalog(), {"num_tasks"}, config);
  core::ThompsonConfig standalone_config;
  standalone_config.posterior_scale = config.posterior_scale;
  standalone_config.ridge = config.policy.fit.ridge;
  core::LinearThompson standalone(hw::ndp_catalog(), 1, standalone_config);

  Rng facade_rng(9);
  Rng standalone_rng(9);
  for (int i = 0; i < 60; ++i) {
    const core::FeatureVector x = {25.0 + 13.0 * (i % 9)};
    const auto decision = facade.next(x, facade_rng);
    const core::ArmIndex want = standalone.select(x, standalone_rng);
    ASSERT_EQ(decision.arm, want) << "i=" << i;
    const double runtime = 4.0 + x[0] / (2.0 + decision.arm);
    facade.observe(decision.arm, x, runtime);
    standalone.observe(want, x, runtime);
  }
}

TEST(PolicyFacade, EpsilonAccessorsAreEpsilonGreedyOnly) {
  core::BanditWare eps(hw::ndp_catalog(), {"f"}, config_for(kAllKinds[0]));
  EXPECT_EQ(eps.epsilon(), 1.0);
  EXPECT_NO_THROW(eps.policy());

  for (const core::PolicyKind kind :
       {core::PolicyKind::kLinUcb, core::PolicyKind::kThompson}) {
    core::BanditWare bandit(hw::ndp_catalog(), {"f"}, config_for(kind));
    EXPECT_EQ(bandit.epsilon(), 0.0) << core::to_string(kind);
    EXPECT_THROW(bandit.policy(), InvalidArgument) << core::to_string(kind);
    // The policy-agnostic accessor works for every kind.
    EXPECT_EQ(bandit.arm_model(0).n_observations(), 0u);
    bandit.observe(0, {1.0}, 5.0);
    EXPECT_EQ(bandit.arm_model(0).n_observations(), 1u);
    // Non-ε kinds never decay anything on observe.
    EXPECT_EQ(bandit.epsilon(), 0.0);
  }
}

/// `build` must throw InvalidArgument, and the message must name the
/// intercept so the user can tell which option to fix.
template <typename Build>
void expect_intercept_rejection(Build&& build, const std::string& what) {
  try {
    build();
    ADD_FAILURE() << what << ": built an intercept-free learner";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("intercept"), std::string::npos)
        << what << ": " << error.what();
  }
}

TEST(PolicyFacade, InterceptFreeConfigsFailAtConstruction) {
  // The recursive arm always fits the intercept, so fit.intercept = false
  // is one construction-time InvalidArgument at every layer that builds
  // arms, for every policy kind and sync mode.
  linalg::FitOptions no_intercept;
  no_intercept.intercept = false;
  expect_intercept_rejection(
      [&] { (void)core::ArmBank(hw::ndp_catalog(), 1, no_intercept, {}, {}); },
      "ArmBank");
  for (const core::PolicyKind kind : kAllKinds) {
    auto config = config_for(kind);
    config.policy.fit.intercept = false;
    expect_intercept_rejection(
        [&] { (void)core::BanditWare(hw::ndp_catalog(), {"f"}, config); },
        "BanditWare " + core::to_string(kind));
  }
  serve::BanditServerConfig server_config;
  server_config.num_shards = 2;
  server_config.bandit.policy.fit.intercept = false;
  for (const serve::SyncMode mode : {serve::SyncMode::kInline, serve::SyncMode::kAsync}) {
    server_config.sync_mode = mode;
    expect_intercept_rejection(
        [&] { (void)serve::BanditServer(hw::ndp_catalog(), {"f"}, server_config); },
        "BanditServer " + serve::to_string(mode));
  }
  fleet::FleetNodeConfig node_config;
  node_config.server = server_config;
  expect_intercept_rejection(
      [&] { (void)fleet::FleetNode(hw::ndp_catalog(), {"f"}, node_config); },
      "FleetNode");
}

TEST(PolicyFacade, SnapshotFormatIsOneVersionForEveryPolicyKind) {
  // Every kind writes v5: the lambda, ridge (the configured 1e-3) and
  // policy lines always present, the policy line carrying the kind's
  // scalar.
  core::BanditWare eps(hw::ndp_catalog(), {"f0", "f1"}, config_for(kAllKinds[0]));
  train(eps);
  EXPECT_EQ(eps.save_state().rfind(
                "banditware-state v5\nlambda 1\nridge 0.001\npolicy epsilon-greedy\n", 0),
            0u);

  core::BanditWare ucb(hw::ndp_catalog(), {"f0", "f1"},
                       config_for(core::PolicyKind::kLinUcb));
  train(ucb);
  EXPECT_EQ(ucb.save_state().rfind("banditware-state v5\nlambda 1\nridge 0.001\npolicy "
                                   "linucb alpha 1.5\n",
                                   0),
            0u);

  core::BanditWare th(hw::ndp_catalog(), {"f0", "f1"},
                      config_for(core::PolicyKind::kThompson));
  train(th);
  EXPECT_EQ(th.save_state().rfind("banditware-state v5\nlambda 1\nridge 0.001\npolicy "
                                  "thompson posterior_scale 1.25\n",
                                  0),
            0u);
}

TEST(PolicyFacade, SnapshotRoundTripsByteIdenticalPerPolicy) {
  for (const core::PolicyKind kind : kAllKinds) {
    core::BanditWare bandit(hw::ndp_catalog(), {"f0", "f1"}, config_for(kind));
    train(bandit);
    const std::string saved = bandit.save_state();
    const core::BanditWare restored = core::BanditWare::load_state(saved);
    EXPECT_EQ(restored.save_state(), saved) << core::to_string(kind);
    EXPECT_EQ(restored.policy_kind(), kind);
    // Only the active kind's scalar is serialized; the others restore to
    // their defaults.
    if (kind == core::PolicyKind::kLinUcb) {
      EXPECT_EQ(restored.config().alpha, bandit.config().alpha);
    }
    if (kind == core::PolicyKind::kThompson) {
      EXPECT_EQ(restored.config().posterior_scale, bandit.config().posterior_scale);
    }
    const core::FeatureVector x = {123.0, 3.0};
    EXPECT_EQ(restored.predictions(x), bandit.predictions(x)) << core::to_string(kind);
  }
}

TEST(PolicyFacade, StatsExportRoundTripsPerPolicy) {
  // export_stats/from_stats is the async sync staging path; it must be an
  // exact inverse for every kind.
  for (const core::PolicyKind kind : kAllKinds) {
    const auto config = config_for(kind);
    core::BanditWare bandit(hw::ndp_catalog(), {"f0", "f1"}, config);
    train(bandit);
    const auto stats = bandit.export_stats();
    const core::BanditWare restored = core::BanditWare::from_stats(
        hw::ndp_catalog(), {"f0", "f1"}, config, stats);
    EXPECT_EQ(restored.epsilon(), bandit.epsilon()) << core::to_string(kind);
    const core::FeatureVector x = {77.0, 1.0};
    EXPECT_EQ(restored.predictions(x), bandit.predictions(x)) << core::to_string(kind);
    EXPECT_EQ(restored.save_state(), bandit.save_state()) << core::to_string(kind);
  }
}

TEST(PolicyFacade, SyncedServingMatchesSingleStreamPerPolicy) {
  // The acceptance bar: for each policy, an N-shard round-robin fleet with
  // inline sync equals single-stream training to 1e-9, and the server
  // snapshot round-trips byte-identically (v3 for ε-greedy, v4 otherwise).
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (const core::PolicyKind kind : kAllKinds) {
    serve::BanditServerConfig config;
    config.num_shards = 3;
    config.sharding = serve::ShardingPolicy::kRoundRobin;
    config.bandit = config_for(kind);
    serve::BanditServer server(catalog, {"num_tasks"}, config);
    core::BanditWare reference(catalog, {"num_tasks"}, config.bandit);

    for (int i = 0; i < 90; ++i) {
      const core::FeatureVector x = {20.0 + 9.0 * (i % 31)};
      const auto arm = static_cast<core::ArmIndex>(i % catalog.size());
      const double runtime = 5.0 + x[0] / catalog[arm].cpus;
      server.observe_one({static_cast<std::size_t>(i % 3), arm, x, runtime});
      reference.observe(arm, x, runtime);
      if (i % 10 == 9) server.sync_shards();
    }
    server.sync_shards();

    EXPECT_EQ(server.num_observations(), 90u) << core::to_string(kind);
    for (double tasks : {40.0, 150.0, 260.0}) {
      const core::FeatureVector x = {tasks};
      const auto want = reference.predictions(x);
      for (std::size_t s = 0; s < server.num_shards(); ++s) {
        const auto got = server.predictions(s, x);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t arm = 0; arm < want.size(); ++arm) {
          EXPECT_NEAR(got[arm], want[arm], 1e-9)
              << core::to_string(kind) << " shard=" << s << " arm=" << arm;
        }
      }
    }

    const std::string saved = server.save_state();
    EXPECT_EQ(saved.rfind("banditserver-state v6\n", 0), 0u) << core::to_string(kind);
    serve::BanditServer restored = serve::BanditServer::load_state(saved);
    EXPECT_EQ(restored.save_state(), saved) << core::to_string(kind);
    EXPECT_EQ(restored.config().bandit.policy_kind, kind);
  }
}

/// `text` (a banditserver-state snapshot) with the blob of `record`
/// ("shard 1", "base") replaced by `blob`.
std::string with_blob(std::string text, const std::string& record,
                      const std::string& blob) {
  const std::size_t at = text.find("\n" + record + " bytes ") + 1;
  const std::size_t size_at = at + record.size() + std::string(" bytes ").size();
  const std::size_t eol = text.find('\n', size_at);
  const std::size_t old_size = std::stoul(text.substr(size_at, eol - size_at));
  text.replace(at, eol + 1 + old_size - at,
               record + " bytes " + std::to_string(blob.size()) + "\n" + blob);
  return text;
}

TEST(PolicyFacade, StitchedServerPolicyHeaderIsRejected) {
  // A v4 header whose policy token contradicts the shard blobs means the
  // snapshot was assembled by hand; the loader must refuse it rather than
  // trust either side.
  serve::BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = serve::ShardingPolicy::kRoundRobin;
  config.bandit = config_for(core::PolicyKind::kLinUcb);
  serve::BanditServer server(hw::synthetic_cycles_catalog(), {"num_tasks"}, config);
  server.observe_one({0, 0, {50.0}, 9.0});
  const std::string saved = server.save_state();
  std::string text = saved;
  const std::string from = "policy linucb";
  text.replace(text.find(from), from.size(), "policy thompson");
  EXPECT_THROW(serve::BanditServer::load_state(text), ParseError);

  // Blobs that disagree with the first shard (4 arms over num_tasks):
  // shard 1 on a 3-arm catalog, a baseline on a foreign catalog, a
  // baseline over other features. Each must fail at load, not at the
  // first read or sync.
  const auto foreign = [&config](hw::HardwareCatalog catalog,
                                 std::vector<std::string> features) {
    return core::BanditWare(std::move(catalog), std::move(features), config.bandit)
        .save_state();
  };
  const std::string three_arms = foreign(hw::ndp_catalog(), {"num_tasks"});
  EXPECT_THROW(serve::BanditServer::load_state(with_blob(saved, "shard 1", three_arms)),
               ParseError);
  EXPECT_THROW(serve::BanditServer::load_state(with_blob(saved, "base", three_arms)),
               ParseError);
  EXPECT_THROW(serve::BanditServer::load_state(with_blob(
                   saved, "base", foreign(hw::synthetic_cycles_catalog(), {"mem_gb"}))),
               ParseError);
  // A shard trained under another ridge prior: fusing it with the others
  // would be silently inexact.
  core::BanditWareConfig other_ridge = config.bandit;
  other_ridge.policy.fit.ridge = 1e-6;
  EXPECT_THROW(serve::BanditServer::load_state(with_blob(
                   saved, "shard 1",
                   core::BanditWare(hw::synthetic_cycles_catalog(), {"num_tasks"},
                                    other_ridge)
                       .save_state())),
               ParseError);
  // The splice itself is sound: a blob of the engine's own shape loads.
  EXPECT_NO_THROW(serve::BanditServer::load_state(
      with_blob(saved, "base", foreign(hw::synthetic_cycles_catalog(), {"num_tasks"}))));
}

TEST(PolicyFacade, LegacySnapshotsLoadAsEpsilonGreedy) {
  // v1/v2 banditware and v1-v3 banditserver predate the policy axis and
  // must keep restoring as ε-greedy (the kind token simply absent).
  core::BanditWare eps(hw::ndp_catalog(), {"f0", "f1"},
                       config_for(core::PolicyKind::kEpsilonGreedy));
  train(eps);
  const core::BanditWare restored = core::BanditWare::load_state(eps.save_state());
  EXPECT_EQ(restored.policy_kind(), core::PolicyKind::kEpsilonGreedy);

  serve::BanditServerConfig config;
  config.num_shards = 2;
  serve::BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
  serve::BanditServer srestored = serve::BanditServer::load_state(server.save_state());
  EXPECT_EQ(srestored.config().bandit.policy_kind, core::PolicyKind::kEpsilonGreedy);
}

}  // namespace
}  // namespace bw
