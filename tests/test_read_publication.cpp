// The lock-free read path: every shard publishes its greedy serving surface
// as an immutable FrozenModel, each reader thread caches a reference per
// shard revalidated by one load of the shard's publication epoch, and
// pure-exploitation recommends are that load + a predict. These tests pin
// the contract from both ends:
//
//   * equivalence — a frozen decision is byte-identical to the decision the
//     live locked model makes (per policy kind, before and after training);
//   * freshness — every writer (observe_one, observe_batch, inline sync)
//     republishes before releasing the shard lock, so the snapshot never
//     lags the live model at a quiescent point;
//   * publication shape — an observe republishes at epoch + 1, changes
//     only the observed arm's plane column, and shares the resource-cost
//     table by pointer; the FrozenModel constructor rejects a misshapen
//     plane, cost table or dimension;
//   * the thread cache — it never serves another server instance (even
//     one built at the same address with epochs that coincide), holds a
//     replaced snapshot only until the thread's next read of that shard or
//     of another server (or its exit), and gives one thread one monotone
//     snapshot sequence per shard across all four read entry points;
//   * concurrency — real reader/writer/syncer threads race freely (the TSan
//     CI job runs this file); readers assert per-shard epoch monotonicity.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/banditware.hpp"
#include "core/frozen_model.hpp"
#include "core/tolerant.hpp"
#include "hardware/catalog.hpp"
#include "serve/bandit_server.hpp"

namespace bw::serve {
namespace {

core::FeatureVector features_for(double num_tasks) { return {num_tasks}; }

double synthetic_runtime(const hw::HardwareSpec& spec, double num_tasks) {
  return 5.0 + num_tasks / spec.cpus;
}

BanditServerConfig serving_config(
    std::size_t shards, core::PolicyKind kind = core::PolicyKind::kEpsilonGreedy) {
  BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = ShardingPolicy::kFeatureHash;
  config.seed = 42;
  config.explore = false;
  config.bandit.policy_kind = kind;
  return config;
}

/// Trains `n` deterministic observations through every shard.
void train(BanditServer& server, const hw::HardwareCatalog& catalog, int n,
           double offset = 0.0) {
  for (int i = 0; i < n; ++i) {
    const double tasks = 25.0 + 13.0 * i + offset;
    const auto x = features_for(tasks);
    const auto arm = static_cast<core::ArmIndex>(i % catalog.size());
    server.observe_one({server.shard_of(x), arm, x,
                        synthetic_runtime(catalog[arm], tasks)});
  }
}

/// The reference decision: tolerant-greedy recomputed from the live locked
/// model's predictions — what a shared-lock recommend would have returned.
core::TolerantChoice live_choice(const BanditServer& server,
                                 const hw::HardwareCatalog& catalog,
                                 const BanditServerConfig& config, std::size_t shard,
                                 const core::FeatureVector& x) {
  return core::tolerant_select(
      server.predictions(shard, x),
      catalog.resource_costs(config.bandit.policy.resource_weights),
      config.bandit.policy.tolerance);
}

TEST(ReadPublication, FrozenDecisionMatchesLiveModelBitForBit) {
  // Across policy kinds and training depths, recommend_greedy (the frozen
  // path) must agree with the live locked model exactly — same arm, same
  // predicted runtime double.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (const core::PolicyKind kind :
       {core::PolicyKind::kEpsilonGreedy, core::PolicyKind::kLinUcb,
        core::PolicyKind::kThompson}) {
    const BanditServerConfig config = serving_config(3, kind);
    BanditServer server(catalog, {"num_tasks"}, config);
    for (const int rounds : {0, 5, 40}) {
      train(server, catalog, rounds, 0.25 * rounds);
      for (double tasks = 20.0; tasks <= 500.0; tasks += 31.0) {
        const auto x = features_for(tasks);
        const ServeDecision decision = server.recommend_greedy(x);
        const core::TolerantChoice expected =
            live_choice(server, catalog, config, decision.shard, x);
        EXPECT_EQ(decision.arm, expected.arm) << "tasks=" << tasks;
        EXPECT_EQ(decision.predicted_runtime_s, expected.predicted_runtime)
            << "tasks=" << tasks;
        EXPECT_FALSE(decision.explored);
        ASSERT_NE(decision.spec, nullptr);
        EXPECT_EQ(decision.spec->name, catalog[decision.arm].name);
      }
    }
  }
}

TEST(ReadPublication, RecommendOneAndBatchUseThePublishedPath) {
  // With explore off, recommend_one and recommend_batch must route through
  // the same snapshot recommend_greedy reads: all three agree per input.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  BanditServer server(catalog, {"num_tasks"}, serving_config(4));
  train(server, catalog, 60);
  std::vector<core::FeatureVector> xs;
  for (double tasks = 20.0; tasks <= 500.0; tasks += 17.0) {
    xs.push_back(features_for(tasks));
  }
  const auto batch = server.recommend_batch(xs);
  ASSERT_EQ(batch.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const ServeDecision greedy = server.recommend_greedy(xs[i]);
    const ServeDecision one = server.recommend_one(xs[i]);
    EXPECT_EQ(batch[i].arm, greedy.arm);
    EXPECT_EQ(batch[i].predicted_runtime_s, greedy.predicted_runtime_s);
    EXPECT_EQ(batch[i].shard, greedy.shard);
    EXPECT_EQ(one.arm, greedy.arm);
    EXPECT_EQ(one.predicted_runtime_s, greedy.predicted_runtime_s);
  }
}

TEST(ReadPublication, EveryWriterRepublishesBeforeReleasingTheLock) {
  // observe_one, observe_batch, and sync_shards each leave the published
  // snapshot agreeing with the live model and bump the shard's epoch.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  const BanditServerConfig config = serving_config(2);
  BanditServer server(catalog, {"num_tasks"}, config);
  const auto x = features_for(120.0);
  const std::size_t shard = server.shard_of(x);
  std::uint64_t epoch = server.published_epoch(shard);

  server.observe_one({shard, 0, x, synthetic_runtime(catalog[0], 120.0)});
  EXPECT_GT(server.published_epoch(shard), epoch);
  epoch = server.published_epoch(shard);
  {
    const ServeDecision decision = server.recommend_greedy(x);
    const auto expected = live_choice(server, catalog, config, shard, x);
    EXPECT_EQ(decision.arm, expected.arm);
    EXPECT_EQ(decision.predicted_runtime_s, expected.predicted_runtime);
  }

  std::vector<ServeObservation> batch;
  for (int i = 0; i < 12; ++i) {
    const double tasks = 40.0 + 9.0 * i;
    const auto bx = features_for(tasks);
    const auto arm = static_cast<core::ArmIndex>(i % catalog.size());
    batch.push_back({server.shard_of(bx), arm, bx,
                     synthetic_runtime(catalog[arm], tasks)});
  }
  server.observe_batch(batch);
  EXPECT_GT(server.published_epoch(shard), epoch);
  epoch = server.published_epoch(shard);
  {
    const ServeDecision decision = server.recommend_greedy(x);
    const auto expected = live_choice(server, catalog, config, shard, x);
    EXPECT_EQ(decision.arm, expected.arm);
    EXPECT_EQ(decision.predicted_runtime_s, expected.predicted_runtime);
  }

  server.sync_shards();
  EXPECT_GT(server.published_epoch(shard), epoch);
  // After a sync every shard serves the fused model: published snapshots
  // agree with the (identical) live models on both shards.
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    const auto model = server.published_model(s);
    const auto expected = live_choice(server, catalog, config, s, x);
    const auto frozen = model->recommend_choice(x);
    EXPECT_EQ(frozen.arm, expected.arm) << "shard=" << s;
    EXPECT_EQ(frozen.predicted_runtime, expected.predicted_runtime) << "shard=" << s;
  }
}

TEST(ReadPublication, ObserveRepublishesOnlyTheObservedColumn) {
  // An observe on one arm republishes at the next epoch, sharing the
  // resource-cost table by pointer; only that arm's plane column changes,
  // and the new snapshot decides like the live model.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  const BanditServerConfig config = serving_config(1);
  BanditServer server(catalog, {"num_tasks"}, config);
  train(server, catalog, 30);
  const auto before = server.published_model(0);

  const auto x = features_for(77.0);
  const core::ArmIndex observed = 1;
  server.observe_one({0, observed, x, synthetic_runtime(catalog[observed], 77.0)});
  const auto after = server.published_model(0);

  ASSERT_NE(before, after);
  EXPECT_EQ(after->epoch(), before->epoch() + 1);
  EXPECT_EQ(after->shared_resource_costs(), before->shared_resource_costs());
  for (core::ArmIndex arm = 0; arm < before->num_arms(); ++arm) {
    if (arm == observed) {
      EXPECT_NE(after->weight_row(arm), before->weight_row(arm));
    } else {
      EXPECT_EQ(after->weight_row(arm), before->weight_row(arm)) << "arm=" << arm;
    }
  }
  for (double tasks = 20.0; tasks <= 500.0; tasks += 31.0) {
    const auto probe = features_for(tasks);
    const core::TolerantChoice frozen = after->recommend_choice(probe);
    const core::TolerantChoice expected = live_choice(server, catalog, config, 0, probe);
    EXPECT_EQ(frozen.arm, expected.arm) << "tasks=" << tasks;
    EXPECT_EQ(frozen.predicted_runtime, expected.predicted_runtime) << "tasks=" << tasks;
  }
}

TEST(ReadPublication, SnapshotIsImmutableAfterSwap) {
  // A reader holding the old snapshot keeps deciding from it unchanged
  // while writers republish underneath — the RCU guarantee.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  BanditServer server(catalog, {"num_tasks"}, serving_config(1));
  train(server, catalog, 30);
  const auto held = server.published_model(0);
  const auto x = features_for(200.0);
  const auto before = held->recommend_choice(x);
  train(server, catalog, 50, 3.0);  // heavy churn republishes many times
  const auto after = held->recommend_choice(x);
  EXPECT_EQ(before.arm, after.arm);
  EXPECT_EQ(before.predicted_runtime, after.predicted_runtime);
  EXPECT_GT(server.published_epoch(0), held->epoch());
}

TEST(ReadPublication, FrozenModelRejectsMisshapenInput) {
  // d = 1 and 3 arms: a valid plane holds (1 + 1) x 3 doubles.
  const auto costs = std::make_shared<const std::vector<double>>(
      std::vector<double>{1.0, 2.0, 3.0});
  const auto no_costs = std::make_shared<const std::vector<double>>();
  const core::ToleranceParams tolerance;
  EXPECT_NO_THROW(core::FrozenModel(std::vector<double>(6), costs, tolerance, 1, 1));
  EXPECT_THROW(core::FrozenModel(std::vector<double>(5), costs, tolerance, 1, 1),
               bw::InvalidArgument);
  EXPECT_THROW(core::FrozenModel(std::vector<double>(9), costs, tolerance, 1, 1),
               bw::InvalidArgument);
  EXPECT_THROW(core::FrozenModel(std::vector<double>(6), nullptr, tolerance, 1, 1),
               bw::InvalidArgument);
  EXPECT_THROW(core::FrozenModel(std::vector<double>{}, no_costs, tolerance, 1, 1),
               bw::InvalidArgument);
  // (0 + 1) x 3 doubles would fit a d = 0 plane; d = 0 is still rejected.
  EXPECT_THROW(core::FrozenModel(std::vector<double>(3), costs, tolerance, 0, 1),
               bw::InvalidArgument);
}

TEST(ReadPublication, ThreadCacheNeverServesAServerRebuiltAtTheSameAddress) {
  // The cache is keyed by the server's process-unique tag, not its address
  // or its epochs. Server B is built where A lived and trained on the same
  // contexts, so every shard reaches the epoch this thread cached for A —
  // only its runtimes differ (the cpu axis inverted). A cache keyed on
  // anything weaker would keep serving A's snapshots.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  const BanditServerConfig config = serving_config(3);
  const std::vector<std::string> features{"num_tasks"};
  auto train_on = [&](BanditServer& server, bool inverted) {
    for (int i = 0; i < 60; ++i) {
      const double tasks = 25.0 + 13.0 * i;
      const auto x = features_for(tasks);
      const auto arm = static_cast<core::ArmIndex>(i % catalog.size());
      const double cpus = catalog[arm].cpus;
      const double runtime = inverted ? 5.0 + tasks * cpus / 64.0 : 5.0 + tasks / cpus;
      server.observe_one({server.shard_of(x), arm, x, runtime});
    }
  };
  std::vector<core::FeatureVector> xs;
  for (double tasks = 20.0; tasks <= 500.0; tasks += 23.0) {
    xs.push_back(features_for(tasks));
  }

  std::optional<BanditServer> server;
  server.emplace(catalog, features, config);
  train_on(*server, false);
  std::vector<ServeDecision> first;
  for (const auto& x : xs) first.push_back(server->recommend_greedy(x));
  std::vector<std::uint64_t> epochs;
  for (std::size_t s = 0; s < server->num_shards(); ++s) {
    epochs.push_back(server->published_epoch(s));
  }

  server.reset();
  server.emplace(catalog, features, config);
  train_on(*server, true);
  int changed = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const ServeDecision decision = server->recommend_greedy(xs[i]);
    const core::TolerantChoice expected =
        live_choice(*server, catalog, config, decision.shard, xs[i]);
    EXPECT_EQ(decision.arm, expected.arm) << "i=" << i;
    EXPECT_EQ(decision.predicted_runtime_s, expected.predicted_runtime) << "i=" << i;
    if (decision.arm != first[i].arm) ++changed;
  }
  for (std::size_t s = 0; s < server->num_shards(); ++s) {
    EXPECT_EQ(server->published_epoch(s), epochs[s]) << "shard=" << s;
  }
  EXPECT_GT(changed, 0);  // the two servers really decide differently
}

TEST(ReadPublication, CachedSnapshotLifetimeIsBoundedByTheThreadsNextRead) {
  // The documented bound: a thread's cache keeps a replaced snapshot alive
  // only until its next read of that shard, its first read of another
  // server, or its exit.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  BanditServer server(catalog, {"num_tasks"}, serving_config(1));
  BanditServer other(catalog, {"num_tasks"}, serving_config(1));
  train(server, catalog, 10);
  const auto x = features_for(90.0);

  // Next read of the shard after a publish.
  std::weak_ptr<const core::FrozenModel> cached = server.published_model(0);
  EXPECT_FALSE(cached.expired());
  train(server, catalog, 1, 3.0);  // republish: only this thread's cache holds it
  EXPECT_FALSE(cached.expired());
  (void)server.recommend_greedy(x);
  EXPECT_TRUE(cached.expired());

  // First read of another server.
  cached = server.published_model(0);
  train(server, catalog, 1, 5.0);
  EXPECT_FALSE(cached.expired());
  (void)other.recommend_greedy(x);
  EXPECT_TRUE(cached.expired());

  // Thread exit.
  std::thread reader([&] {
    cached = server.published_model(0);
    train(server, catalog, 1, 7.0);
    EXPECT_FALSE(cached.expired());
  });
  reader.join();
  EXPECT_TRUE(cached.expired());
}

TEST(ReadPublication, MixedEntryPointReadersSeeOneMonotoneSequencePerShard) {
  // Real-thread readers cycle through all four read entry points while
  // observe writers and a syncer republish. Every epoch a reader sees, from
  // whichever entry point, must be monotone per shard; and a greedy read
  // bracketed by two published_model calls that return the same snapshot
  // must decide exactly like that snapshot (the bracketed-read check a
  // monitoring client relies on).
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  const BanditServerConfig config = serving_config(3);
  BanditServer server(catalog, {"num_tasks"}, config);
  train(server, catalog, 20);

  constexpr int kReaders = 3;
  constexpr int kMinReadsPerReader = 1200;
  constexpr int kWritesPerWriter = 300;
  constexpr int kWriters = 3;  // observe_one, observe_batch, sync_shards
  std::atomic<bool> start{false};
  std::atomic<int> writers_done{0};
  std::atomic<int> epoch_regressions{0};
  std::atomic<int> bracket_mismatches{0};
  std::atomic<int> bracketed_reads{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load(std::memory_order_acquire)) {
      }
      std::vector<std::uint64_t> last(server.num_shards(), 0);
      auto see = [&](std::size_t shard, std::uint64_t epoch) {
        if (epoch < last[shard]) ++epoch_regressions;
        last[shard] = std::max(last[shard], epoch);
      };
      // Keep reading until every writer is done, so reads span the races.
      for (int i = 0; i < kMinReadsPerReader || writers_done.load() < kWriters; ++i) {
        const auto x = features_for(20.0 + ((r * 131 + i * 17) % 480));
        const std::size_t shard = server.shard_of(x);
        switch (i % 4) {
          case 0: {
            const auto before = server.published_model(shard);
            see(shard, before->epoch());
            const ServeDecision decision = server.recommend_greedy(x);
            const auto after = server.published_model(shard);
            see(shard, after->epoch());
            if (before == after) {
              ++bracketed_reads;
              const core::TolerantChoice ref = before->recommend_choice_scalar(x);
              if (ref.arm != decision.arm ||
                  ref.predicted_runtime != decision.predicted_runtime_s) {
                ++bracket_mismatches;
              }
            }
            break;
          }
          case 1: {
            std::vector<core::FeatureVector> xs;
            for (int j = 0; j < 5; ++j) xs.push_back(features_for(30.0 + 41.0 * j + i));
            for (const ServeDecision& decision : server.recommend_greedy_batch(xs)) {
              see(decision.shard, server.published_epoch(decision.shard));
            }
            break;
          }
          case 2:
            see(shard, server.published_model(shard)->epoch());
            break;
          default:
            see(shard, server.published_epoch(shard));
            break;
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < kWritesPerWriter; ++i) {
      const double tasks = 30.0 + ((i * 7) % 450);
      const auto x = features_for(tasks);
      const auto arm = static_cast<core::ArmIndex>(i % catalog.size());
      server.observe_one({server.shard_of(x), arm, x,
                          synthetic_runtime(catalog[arm], tasks)});
    }
    ++writers_done;
  });
  threads.emplace_back([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < kWritesPerWriter / 4; ++i) {
      std::vector<ServeObservation> batch;
      for (int j = 0; j < 4; ++j) {
        const double tasks = 35.0 + ((i * 29 + j * 97) % 440);
        const auto x = features_for(tasks);
        const auto arm = static_cast<core::ArmIndex>((i + j) % catalog.size());
        batch.push_back({server.shard_of(x), arm, x,
                         synthetic_runtime(catalog[arm], tasks)});
      }
      server.observe_batch(batch);
    }
    ++writers_done;
  });
  threads.emplace_back([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 25; ++i) server.sync_shards();
    ++writers_done;
  });

  start.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(epoch_regressions.load(), 0);
  EXPECT_EQ(bracket_mismatches.load(), 0);
  EXPECT_GT(bracketed_reads.load(), 0);
}

TEST(ReadPublication, ConcurrentReadersNeverSeeEpochsMoveBackwards) {
  // Real threads, real races: readers hammer the lock-free path while
  // writers observe and a syncer forces full republishes. Run under TSan in
  // CI. Each reader asserts per-shard epoch monotonicity — the one ordering
  // guarantee the protocol makes to a lock-free reader.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  const BanditServerConfig config = serving_config(2);
  BanditServer server(catalog, {"num_tasks"}, config);
  train(server, catalog, 20);

  constexpr int kReaders = 3;
  constexpr int kWriters = 2;
  constexpr int kReadsPerReader = 2000;
  constexpr int kWritesPerWriter = 400;
  std::atomic<bool> start{false};
  std::atomic<int> epoch_regressions{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (!start.load(std::memory_order_acquire)) {
      }
      std::vector<std::uint64_t> last(server.num_shards(), 0);
      for (int i = 0; i < kReadsPerReader; ++i) {
        const auto x = features_for(20.0 + ((r * 131 + i * 17) % 480));
        const ServeDecision decision = server.recommend_greedy(x);
        const auto model = server.published_model(decision.shard);
        if (model->epoch() < last[decision.shard]) ++epoch_regressions;
        if (model->epoch() > last[decision.shard]) {
          last[decision.shard] = model->epoch();
        }
        if (decision.spec == nullptr) ++epoch_regressions;  // torn decision
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kWritesPerWriter; ++i) {
        const double tasks = 30.0 + ((w * 241 + i * 7) % 450);
        const auto x = features_for(tasks);
        const auto arm = static_cast<core::ArmIndex>(i % catalog.size());
        server.observe_one({server.shard_of(x), arm, x,
                            synthetic_runtime(catalog[arm], tasks)});
      }
    });
  }
  threads.emplace_back([&] {
    while (!start.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < 25; ++i) server.sync_shards();
  });

  start.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(epoch_regressions.load(), 0);
  // Quiescent: the final published snapshots agree with the live models.
  const auto x = features_for(123.0);
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    const auto frozen = server.published_model(s)->recommend_choice(x);
    const auto expected = live_choice(server, catalog, config, s, x);
    EXPECT_EQ(frozen.arm, expected.arm) << "shard=" << s;
    EXPECT_EQ(frozen.predicted_runtime, expected.predicted_runtime) << "shard=" << s;
  }
  EXPECT_EQ(server.num_observations(),
            20u + static_cast<std::size_t>(kWriters) * kWritesPerWriter);
}

}  // namespace
}  // namespace bw::serve
