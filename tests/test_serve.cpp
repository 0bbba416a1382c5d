// Tests for the sharded serving engine (serve/bandit_server): routing
// determinism, batch ordering, snapshot round-trips, a concurrent
// observe-vs-recommend stress run, cross-shard sync (fusion correctness,
// sync-under-load, cadence determinism), and feedback validation.

#include "serve/bandit_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "hardware/catalog.hpp"

namespace bw::serve {
namespace {

core::FeatureVector features_for(double num_tasks) { return {num_tasks}; }

/// Deterministic synthetic runtime: bigger workflows and fewer CPUs -> slower.
double synthetic_runtime(const hw::HardwareSpec& spec, double num_tasks) {
  return 5.0 + num_tasks / spec.cpus;
}

BanditServer make_server(std::size_t shards, ShardingPolicy sharding,
                         bool explore = true) {
  BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = sharding;
  config.explore = explore;
  config.seed = 7;
  return BanditServer(hw::ndp_catalog(), {"num_tasks"}, config);
}

TEST(BanditServer, FeatureHashRoutingIsStable) {
  BanditServer server = make_server(4, ShardingPolicy::kFeatureHash);
  for (double tasks : {10.0, 55.0, 320.0, 499.0}) {
    const auto x = features_for(tasks);
    const std::size_t expected = server.shard_of(x);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(server.shard_of(x), expected);
      EXPECT_EQ(server.recommend_one(x).shard, expected);
    }
  }
}

TEST(BanditServer, RoundRobinSpreadsBatchEvenly) {
  BanditServer server = make_server(4, ShardingPolicy::kRoundRobin);
  const std::vector<core::FeatureVector> xs(16, features_for(100.0));
  const auto decisions = server.recommend_batch(xs);
  ASSERT_EQ(decisions.size(), 16u);
  std::vector<int> served(4, 0);
  for (const auto& decision : decisions) {
    ASSERT_LT(decision.shard, 4u);
    ++served[decision.shard];
  }
  for (int count : served) EXPECT_EQ(count, 4);
}

TEST(BanditServer, RoundRobinSingleThreadSequenceIsExactlyHistorical) {
  // Tickets are claimed in per-thread blocks (one fetch_add per 16
  // requests), but a single-threaded caller consumes each block in counter
  // order — the visible rotation must stay the exact historical 0,1,2,…
  // sequence, request by request.
  BanditServer server = make_server(4, ShardingPolicy::kRoundRobin);
  for (int i = 0; i < 40; ++i) {
    const auto decision = server.recommend_one(features_for(50.0));
    EXPECT_EQ(decision.shard, static_cast<std::size_t>(i) % 4) << "request " << i;
  }
}

TEST(BanditServer, RoundRobinConcurrentSpreadStaysFair) {
  // Fairness regression for the block-claiming allocator: with T threads
  // the spread can skew by at most one partially-consumed block (16
  // tickets) per thread, never more — a stuck or leaked cursor would show
  // up as a shard starved far beyond that bound.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 400;
  constexpr std::size_t kShards = 4;
  BanditServer server = make_server(kShards, ShardingPolicy::kRoundRobin);
  std::vector<std::atomic<std::size_t>> served(kShards);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&server, &served] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const auto decision = server.recommend_one(features_for(50.0));
        served[decision.shard].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  std::size_t total = 0;
  for (const auto& count : served) total += count.load();
  ASSERT_EQ(total, kThreads * kPerThread);
  const std::size_t expected = total / kShards;
  const std::size_t slack = kThreads * 16;  // one in-flight block per thread
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const std::size_t count = served[shard].load();
    EXPECT_GE(count + slack, expected) << "shard " << shard << " starved";
    EXPECT_LE(count, expected + slack) << "shard " << shard << " hogged";
  }
}

TEST(BanditServer, BatchResultsMatchRequestOrder) {
  BanditServer server = make_server(3, ShardingPolicy::kFeatureHash);
  std::vector<core::FeatureVector> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(features_for(10.0 * (i + 1)));
  const auto decisions = server.recommend_batch(xs);
  ASSERT_EQ(decisions.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(decisions[i].shard, server.shard_of(xs[i]));
    ASSERT_NE(decisions[i].spec, nullptr);
    EXPECT_LT(decisions[i].arm, 3u);
  }
}

TEST(BanditServer, IdenticallySeededServersDecideIdentically) {
  BanditServer a = make_server(4, ShardingPolicy::kFeatureHash);
  BanditServer b = make_server(4, ShardingPolicy::kFeatureHash);
  std::vector<core::FeatureVector> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(features_for(25.0 * (i % 13) + 40.0));
  const auto da = a.recommend_batch(xs);
  const auto db = b.recommend_batch(xs);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].shard, db[i].shard);
    EXPECT_EQ(da[i].arm, db[i].arm);
    EXPECT_EQ(da[i].explored, db[i].explored);
  }
}

TEST(BanditServer, ObservationsTrainTheServingShard) {
  BanditServer server = make_server(2, ShardingPolicy::kFeatureHash, /*explore=*/false);
  // Teach both shards that the 4-CPU arm is fastest for every size.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  std::vector<ServeObservation> observations;
  for (int round = 0; round < 30; ++round) {
    const double tasks = 50.0 + 17.0 * round;
    const auto x = features_for(tasks);
    const std::size_t shard = server.shard_of(x);
    for (core::ArmIndex arm = 0; arm < 3; ++arm) {
      observations.push_back({shard, arm, x, synthetic_runtime(catalog[arm], tasks)});
    }
  }
  server.observe_batch(observations);
  EXPECT_EQ(server.num_observations(), observations.size());

  const auto x = features_for(400.0);
  const auto predictions = server.predictions(server.shard_of(x), x);
  ASSERT_EQ(predictions.size(), 3u);
  // H2 = (4, 16) dominates on runtime; the trained models must reflect it.
  EXPECT_LT(predictions[2], predictions[0]);
}

TEST(BanditServer, SnapshotRoundTripIsByteIdentical) {
  BanditServer server = make_server(3, ShardingPolicy::kRoundRobin);
  std::vector<core::FeatureVector> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(features_for(30.0 + 11.0 * i));
  const auto decisions = server.recommend_batch(xs);
  std::vector<ServeObservation> observations;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    observations.push_back({decisions[i].shard, decisions[i].arm, xs[i],
                            synthetic_runtime(*decisions[i].spec, xs[i][0])});
  }
  server.observe_batch(observations);

  const std::string saved = server.save_state();
  BanditServer restored = BanditServer::load_state(saved);
  EXPECT_EQ(restored.save_state(), saved);

  EXPECT_EQ(restored.num_shards(), server.num_shards());
  EXPECT_EQ(restored.num_observations(), server.num_observations());
  EXPECT_EQ(restored.shard_observation_counts(), server.shard_observation_counts());
  const auto x = features_for(222.0);
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    EXPECT_EQ(restored.predictions(s, x), server.predictions(s, x));
  }
}

TEST(BanditServer, LoadStateRejectsMalformedText) {
  EXPECT_THROW(BanditServer::load_state("not a snapshot"), ParseError);
  EXPECT_THROW(BanditServer::load_state("banditserver-state v1\nshards 0\n"),
               ParseError);
}

TEST(BanditServer, ConcurrentObserveAndRecommendStress) {
  BanditServer server = make_server(4, ShardingPolicy::kFeatureHash);
  constexpr int kThreads = 6;
  constexpr int kRoundsPerThread = 200;
  std::atomic<std::size_t> decisions_served{0};
  std::atomic<std::size_t> observations_fed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &decisions_served, &observations_fed, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const double tasks = 20.0 + 7.0 * ((t * kRoundsPerThread + round) % 91);
        const auto x = features_for(tasks);
        if ((t + round) % 3 == 0) {
          // Batched path: recommend four workflows, feed all four back.
          const std::vector<core::FeatureVector> xs(4, x);
          const auto batch = server.recommend_batch(xs);
          std::vector<ServeObservation> observations;
          for (const auto& decision : batch) {
            observations.push_back({decision.shard, decision.arm, x,
                                    synthetic_runtime(*decision.spec, tasks)});
          }
          server.observe_batch(observations);
          decisions_served += batch.size();
          observations_fed += observations.size();
        } else {
          const auto decision = server.recommend_one(x);
          server.observe_one({decision.shard, decision.arm, x,
                              synthetic_runtime(*decision.spec, tasks)});
          ++decisions_served;
          ++observations_fed;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(decisions_served.load(), observations_fed.load());
  EXPECT_EQ(server.num_observations(), observations_fed.load());
}

TEST(BanditServer, ConcurrentSharedReadsAreConsistent) {
  // Pure-exploitation serving takes the per-shard lock shared: many reader
  // threads hammering the SAME shard must all see the same trained model
  // (no serialization requirement, no torn reads). A single shard forces
  // maximal reader contention.
  BanditServer server = make_server(1, ShardingPolicy::kFeatureHash, /*explore=*/false);
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  std::vector<ServeObservation> training;
  for (int round = 0; round < 20; ++round) {
    const auto x = features_for(40.0 + 13.0 * round);
    for (core::ArmIndex arm = 0; arm < 3; ++arm) {
      training.push_back({0, arm, x, synthetic_runtime(catalog[arm], x[0])});
    }
  }
  server.observe_batch(training);

  const auto probe = features_for(123.0);
  const auto expected = server.recommend_one(probe);

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 300;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&server, &probe, &expected, &mismatches] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        const auto decision = server.recommend_one(probe);
        if (decision.arm != expected.arm ||
            decision.predicted_runtime_s != expected.predicted_runtime_s) {
          ++mismatches;
        }
        // Batched reads share the lock too.
        const auto batch = server.recommend_batch({probe, probe});
        if (batch[0].arm != expected.arm || batch[1].arm != expected.arm) {
          ++mismatches;
        }
      }
    });
  }
  // A snapshot (shared locks across every shard) must coexist with readers.
  for (int i = 0; i < 5; ++i) {
    BanditServer restored = BanditServer::load_state(server.save_state());
    EXPECT_EQ(restored.num_observations(), server.num_observations());
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BanditServer, SyncShardsMatchesSingleStreamLearner) {
  // Spread one observation stream round-robin over 4 replicas, sync, and
  // every replica must predict exactly (1e-9) like a single facade that saw
  // the whole stream — the merge is algebraic, not approximate.
  BanditServerConfig config;
  config.num_shards = 4;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.seed = 7;
  config.bandit.policy.fit.ridge = 1e-6;
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);

  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  core::BanditWare reference(catalog, {"num_tasks"}, config.bandit);
  std::vector<ServeObservation> observations;
  for (int i = 0; i < 120; ++i) {
    const double tasks = 20.0 + 9.0 * (i % 41);
    const auto x = features_for(tasks);
    const auto arm = static_cast<core::ArmIndex>(i % 3);
    const double runtime = synthetic_runtime(catalog[arm], tasks);
    observations.push_back({static_cast<std::size_t>(i % 4), arm, x, runtime});
    reference.observe(arm, x, runtime);
  }
  server.observe_batch(observations);
  EXPECT_EQ(server.num_observations(), observations.size());

  server.sync_shards();
  EXPECT_EQ(server.sync_count(), 1u);
  // The fused total must not double-count: still one stream's worth.
  EXPECT_EQ(server.num_observations(), observations.size());

  for (double tasks : {33.0, 150.0, 371.0}) {
    const auto x = features_for(tasks);
    const auto want = reference.predictions(x);
    for (std::size_t s = 0; s < server.num_shards(); ++s) {
      const auto got = server.predictions(s, x);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t arm = 0; arm < want.size(); ++arm) {
        EXPECT_NEAR(got[arm], want[arm], 1e-9) << "shard=" << s << " arm=" << arm;
      }
    }
  }

  // A second sync with no new evidence must change nothing.
  const std::string before = server.save_state();
  server.sync_shards();
  EXPECT_EQ(server.save_state(), before);
}

TEST(BanditServer, AutoSyncRunsEveryKObserveBatches) {
  BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.sync_every = 3;
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);

  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (int batch = 0; batch < 7; ++batch) {
    std::vector<ServeObservation> observations;
    for (int i = 0; i < 4; ++i) {
      const double tasks = 30.0 + 5.0 * (batch * 4 + i);
      observations.push_back({static_cast<std::size_t>(i % 2),
                              static_cast<core::ArmIndex>(i % 3), features_for(tasks),
                              synthetic_runtime(catalog[i % 3], tasks)});
    }
    server.observe_batch(observations);
  }
  EXPECT_EQ(server.sync_count(), 2u);  // after batches 3 and 6
  server.observe_batch({});            // empty batches do not advance the cadence
  EXPECT_EQ(server.sync_count(), 2u);
}

TEST(BanditServer, SyncUnderConcurrentLoadKeepsInvariants) {
  // Recommend/observe batches race sync_shards() from a dedicated thread.
  // Locking must stay clean (TSan-friendly: shard locks + atomics only) and
  // no observation may be lost or double-counted by the fusion.
  BanditServerConfig config;
  config.num_shards = 4;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.seed = 13;
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 60;
  constexpr int kBatch = 8;
  std::atomic<std::size_t> observations_fed{0};
  std::atomic<bool> stop{false};

  std::thread syncer([&server, &stop] {
    while (!stop.load()) server.sync_shards();
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&server, &observations_fed, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        std::vector<core::FeatureVector> xs;
        for (int i = 0; i < kBatch; ++i) {
          xs.push_back(features_for(25.0 + 3.0 * ((t * 100 + round + i) % 83)));
        }
        const auto decisions = server.recommend_batch(xs);
        std::vector<ServeObservation> observations;
        for (std::size_t i = 0; i < xs.size(); ++i) {
          observations.push_back({decisions[i].shard, decisions[i].arm, xs[i],
                                  synthetic_runtime(*decisions[i].spec, xs[i][0])});
        }
        server.observe_batch(observations);
        observations_fed += observations.size();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  stop.store(true);
  syncer.join();

  server.sync_shards();  // quiesce: fold any remaining per-shard deltas
  EXPECT_EQ(server.num_observations(), observations_fed.load());
  // After the final sync every replica serves the same fused model.
  const auto x = features_for(99.0);
  const auto want = server.predictions(0, x);
  for (std::size_t s = 1; s < server.num_shards(); ++s) {
    EXPECT_EQ(server.predictions(s, x), want);
  }
}

TEST(BanditServer, SyncAtFixedCadenceIsDeterministic) {
  // Two identically-seeded servers fed the same stream with the same
  // sync_every must make the same decisions and end byte-identical.
  auto run = [] {
    BanditServerConfig config;
    config.num_shards = 3;
    config.sharding = ShardingPolicy::kRoundRobin;
    config.seed = 31;
    config.sync_every = 2;
    BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
    std::vector<core::ArmIndex> arms;
    for (int round = 0; round < 10; ++round) {
      std::vector<core::FeatureVector> xs;
      for (int i = 0; i < 6; ++i) {
        xs.push_back(features_for(40.0 + 7.0 * (round * 6 + i)));
      }
      const auto decisions = server.recommend_batch(xs);
      std::vector<ServeObservation> observations;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        arms.push_back(decisions[i].arm);
        observations.push_back({decisions[i].shard, decisions[i].arm, xs[i],
                                synthetic_runtime(*decisions[i].spec, xs[i][0])});
      }
      server.observe_batch(observations);
    }
    return std::make_pair(std::move(arms), server.save_state());
  };
  const auto [arms_a, state_a] = run();
  const auto [arms_b, state_b] = run();
  EXPECT_EQ(arms_a, arms_b);
  EXPECT_EQ(state_a, state_b);
}

TEST(BanditServer, ObserveRejectsStaleOrMalformedFeedback) {
  // Regression: a stale shard id (from a decision served under a different
  // shard count) or a bogus arm/feature payload must fail loudly instead of
  // silently training the wrong replica.
  BanditServer rr = make_server(3, ShardingPolicy::kRoundRobin);
  const auto x = features_for(50.0);

  EXPECT_THROW(rr.observe_one({3, 0, x, 10.0}), InvalidArgument);   // shard range
  EXPECT_THROW(rr.observe_one({99, 0, x, 10.0}), InvalidArgument);  // way stale
  EXPECT_THROW(rr.observe_one({0, 7, x, 10.0}), InvalidArgument);   // unknown arm
  EXPECT_THROW(rr.observe_one({0, 0, {1.0, 2.0}, 10.0}), InvalidArgument);  // features

  // Batch validation is all-or-nothing: one bad record, nothing applied.
  std::vector<ServeObservation> batch = {{0, 0, x, 10.0}, {3, 0, x, 10.0}};
  EXPECT_THROW(rr.observe_batch(batch), InvalidArgument);
  EXPECT_EQ(rr.num_observations(), 0u);

  // Feature-hash routing is recomputable, so a mis-echoed shard id is
  // detected even when it is in range.
  BanditServer fh = make_server(4, ShardingPolicy::kFeatureHash);
  const std::size_t right = fh.shard_of(x);
  const std::size_t wrong = (right + 1) % fh.num_shards();
  EXPECT_THROW(fh.observe_one({wrong, 0, x, 10.0}), InvalidArgument);
  fh.observe_one({right, 0, x, 10.0});
  EXPECT_EQ(fh.num_observations(), 1u);
}

TEST(BanditServer, NonFiniteFeedbackRejectsTheWholeBatch) {
  // Regression: finiteness used to be checked only by the arm model inside
  // the shard task — after the batch's earlier observations had trained
  // the shard, and with the shard left unpublished, so greedy readers kept
  // serving the pre-batch model while the live one had moved on.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const core::FeatureVector probe = features_for(100.0);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    BanditServer server = make_server(shards, ShardingPolicy::kFeatureHash);
    auto feedback = [&server](double tasks, core::ArmIndex arm,
                              double runtime) -> ServeObservation {
      const core::FeatureVector x = features_for(tasks);
      return {server.shard_of(x), arm, x, runtime};
    };
    server.observe_batch({feedback(10.0, 0, 12.0), feedback(20.0, 1, 9.0)});

    const std::vector<ServeObservation> bad_runtime = {
        feedback(30.0, 0, 14.0), feedback(40.0, 1, 11.0), feedback(50.0, 2, nan)};
    const std::vector<ServeObservation> bad_feature = {
        feedback(30.0, 0, 14.0), feedback(40.0, 1, 11.0), feedback(inf, 2, 7.0)};
    for (const auto* batch : {&bad_runtime, &bad_feature}) {
      const std::size_t count = server.num_observations();
      const std::vector<std::size_t> shard_counts = server.shard_observation_counts();
      std::vector<std::uint64_t> epochs;
      std::vector<std::vector<double>> predictions;
      for (std::size_t s = 0; s < shards; ++s) {
        epochs.push_back(server.published_epoch(s));
        predictions.push_back(server.predictions(s, probe));
      }
      EXPECT_THROW(server.observe_batch(*batch), InvalidArgument);
      EXPECT_EQ(server.num_observations(), count);
      EXPECT_EQ(server.shard_observation_counts(), shard_counts);
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(server.published_epoch(s), epochs[s]) << "shard " << s;
        EXPECT_EQ(server.predictions(s, probe), predictions[s]) << "shard " << s;
      }
    }
  }
}

TEST(BanditServer, SingleShardAutoSyncIsANoOp) {
  // sync_every > 0 with one shard has nothing to fuse: the cadence must be
  // skipped entirely — no fusion cost, no sync_count noise — in both modes.
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (const SyncMode mode : {SyncMode::kInline, SyncMode::kAsync}) {
    BanditServerConfig config;
    config.num_shards = 1;
    config.sync_every = 1;
    config.sync_mode = mode;
    BanditServer server(catalog, {"num_tasks"}, config);
    for (int batch = 0; batch < 5; ++batch) {
      std::vector<ServeObservation> observations;
      for (int i = 0; i < 4; ++i) {
        const double tasks = 30.0 + 5.0 * (batch * 4 + i);
        observations.push_back({0, static_cast<core::ArmIndex>(i % 3),
                                features_for(tasks),
                                synthetic_runtime(catalog[i % 3], tasks)});
      }
      server.observe_batch(observations);
    }
    server.drain_sync();
    EXPECT_EQ(server.sync_count(), 0u) << to_string(mode);
    EXPECT_EQ(server.num_observations(), 20u) << to_string(mode);
    // Manual sync_shards() on one shard stays a harmless (counted) no-op.
    const std::string before = server.save_state();
    server.sync_shards();
    EXPECT_EQ(server.sync_count(), 1u) << to_string(mode);
    EXPECT_EQ(server.save_state(), before) << to_string(mode);
  }
}

TEST(BanditServer, SyncEveryZeroNeverAutoSyncs) {
  // Pinned semantics: sync_every = 0 means "never sync automatically",
  // regardless of mode or batch count; manual syncs still work.
  BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.sync_every = 0;
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<ServeObservation> observations;
    for (int i = 0; i < 4; ++i) {
      const double tasks = 25.0 + 3.0 * (batch * 4 + i);
      observations.push_back({static_cast<std::size_t>(i % 2),
                              static_cast<core::ArmIndex>(i % 3), features_for(tasks),
                              synthetic_runtime(catalog[i % 3], tasks)});
    }
    server.observe_batch(observations);
  }
  EXPECT_EQ(server.sync_count(), 0u);
  server.sync_shards();
  EXPECT_EQ(server.sync_count(), 1u);
}

TEST(BanditServer, AsyncAutoSyncConvergesUnderConcurrentLoad) {
  // The real background fuser under real threads: recommend/observe
  // batches race the fuser's stage/fuse/publish. No observation may be
  // lost or double-counted, and after drain + a final quiescing sync every
  // replica serves the same fused model. (The deterministic interleaving
  // coverage lives in test_async_sync.cpp; this is the TSan workhorse.)
  BanditServerConfig config;
  config.num_shards = 4;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.seed = 13;
  config.sync_every = 1;
  config.sync_mode = SyncMode::kAsync;
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 40;
  constexpr int kBatch = 8;
  std::atomic<std::size_t> observations_fed{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&server, &observations_fed, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        std::vector<core::FeatureVector> xs;
        for (int i = 0; i < kBatch; ++i) {
          xs.push_back(features_for(25.0 + 3.0 * ((t * 100 + round + i) % 83)));
        }
        const auto decisions = server.recommend_batch(xs);
        std::vector<ServeObservation> observations;
        for (std::size_t i = 0; i < xs.size(); ++i) {
          observations.push_back({decisions[i].shard, decisions[i].arm, xs[i],
                                  synthetic_runtime(*decisions[i].spec, xs[i][0])});
        }
        server.observe_batch(observations);
        observations_fed += observations.size();
        // Snapshots must stay consistent cuts while the fuser publishes.
        if (round % 16 == 0) {
          const std::string saved = server.save_state();
          BanditServer restored = BanditServer::load_state(saved);
          EXPECT_EQ(restored.save_state(), saved);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  server.drain_sync();
  EXPECT_GE(server.sync_count(), 1u);  // the fuser actually ran
  server.sync_shards();  // quiesce: fold any remaining per-shard deltas
  EXPECT_EQ(server.num_observations(), observations_fed.load());
  const auto x = features_for(99.0);
  const auto want = server.predictions(0, x);
  for (std::size_t s = 1; s < server.num_shards(); ++s) {
    EXPECT_EQ(server.predictions(s, x), want);
  }
}

TEST(BanditServer, SnapshotRoundTripCarriesSyncMode) {
  BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.sync_every = 3;
  config.sync_mode = SyncMode::kAsync;
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
  const std::string saved = server.save_state();
  EXPECT_EQ(saved.rfind("banditserver-state v6\n", 0), 0u);
  BanditServer restored = BanditServer::load_state(saved);
  EXPECT_EQ(restored.config().sync_mode, SyncMode::kAsync);
  EXPECT_EQ(restored.config().sync_every, 3u);
  EXPECT_EQ(restored.save_state(), saved);
}

TEST(BanditServer, LoadsLegacyV2ServerSnapshotsAsInlineMode) {
  // v2 snapshots predate SyncMode: they must keep loading (sync_mode
  // defaults to inline) and re-save in the current format.
  core::BanditWare replica(hw::ndp_catalog(), {"num_tasks"}, {});
  replica.observe(0, features_for(100.0), 55.0);
  const std::string blob = replica.save_state();

  std::string legacy = "banditserver-state v2\n";
  legacy +=
      "shards 1 sharding feature-hash seed 42 threads 0 explore 1 sync_every 2 "
      "observe_batches 5 rr_counter 0\n";
  legacy += "shard 0 bytes " + std::to_string(blob.size()) + "\n" + blob;
  legacy += "base bytes " + std::to_string(blob.size()) + "\n" + blob;

  BanditServer restored = BanditServer::load_state(legacy);
  EXPECT_EQ(restored.config().sync_mode, SyncMode::kInline);
  EXPECT_EQ(restored.config().sync_every, 2u);
  const std::string resaved = restored.save_state();
  EXPECT_EQ(resaved.rfind("banditserver-state v6\n", 0), 0u);
  EXPECT_EQ(BanditServer::load_state(resaved).save_state(), resaved);
}

TEST(BanditServer, LoadsLegacyV1SnapshotsWithPriorSyncBaseline) {
  // v1 snapshots predate cross-shard sync: no sync_every, no baseline blob.
  // They must still load (baseline = untrained prior) and re-save as v6.
  core::BanditWare replica(hw::ndp_catalog(), {"num_tasks"}, {});
  replica.observe(0, features_for(100.0), 55.0);
  replica.observe(2, features_for(200.0), 30.0);
  const std::string blob = replica.save_state();

  std::string legacy = "banditserver-state v1\n";
  legacy += "shards 1 sharding feature-hash seed 42 threads 0 explore 1 rr_counter 5\n";
  legacy += "shard 0 bytes " + std::to_string(blob.size()) + "\n" + blob;

  BanditServer restored = BanditServer::load_state(legacy);
  EXPECT_EQ(restored.num_shards(), 1u);
  EXPECT_EQ(restored.config().sync_every, 0u);
  EXPECT_EQ(restored.num_observations(), 2u);
  const auto x = features_for(150.0);
  EXPECT_EQ(restored.predictions(0, x), replica.predictions(x));
  // Re-saves in the current format, round-trippable as usual.
  const std::string resaved = restored.save_state();
  EXPECT_EQ(resaved.rfind("banditserver-state v6\n", 0), 0u);
  EXPECT_EQ(BanditServer::load_state(resaved).save_state(), resaved);
}

TEST(BanditServer, SyncStateSurvivesSnapshotRoundTrip) {
  // A synced engine must serialize its baseline so a restored server keeps
  // merging without double-counting.
  BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.sync_every = 2;
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  auto make_batch = [&catalog](double base_tasks) {
    std::vector<ServeObservation> observations;
    for (int i = 0; i < 6; ++i) {
      const double tasks = base_tasks + 11.0 * i;
      observations.push_back({static_cast<std::size_t>(i % 2),
                              static_cast<core::ArmIndex>(i % 3), features_for(tasks),
                              synthetic_runtime(catalog[i % 3], tasks)});
    }
    return observations;
  };
  server.observe_batch(make_batch(60.0));  // batch 1
  server.observe_batch(make_batch(90.0));  // batch 2 -> auto-sync
  server.observe_batch(make_batch(35.0));  // batch 3: mid-cadence
  EXPECT_EQ(server.sync_count(), 1u);
  EXPECT_EQ(server.num_observations(), 18u);

  const std::string saved = server.save_state();
  BanditServer restored = BanditServer::load_state(saved);
  EXPECT_EQ(restored.save_state(), saved);
  EXPECT_EQ(restored.config().sync_every, 2u);
  EXPECT_EQ(restored.num_observations(), server.num_observations());

  // Feeding the same next batch to both must sync both (the cadence phase
  // rode along in the snapshot) and land them byte-identical — the fused
  // baseline carried across too, so no evidence is double-counted.
  const auto more = make_batch(44.0);
  server.observe_batch(more);  // batch 4 -> auto-sync on both sides
  restored.observe_batch(more);
  EXPECT_EQ(restored.save_state(), server.save_state());
  EXPECT_EQ(restored.num_observations(), 24u);
}

TEST(BanditServer, SnapshotRoundTripKeepsTheRidgePrior) {
  // The ridge prior is part of what the engine fuses with: a restored
  // engine that fell back to the default prior would reject its own
  // replicas' merges (or, fused across a fleet, be silently inexact).
  BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.sync_every = 1;
  config.bandit.policy.fit.ridge = 1e-3;
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  auto make_batch = [&catalog](double base_tasks) {
    std::vector<ServeObservation> observations;
    for (int i = 0; i < 6; ++i) {
      const double tasks = base_tasks + 7.0 * i;
      observations.push_back({static_cast<std::size_t>(i % 2),
                              static_cast<core::ArmIndex>(i % 3), features_for(tasks),
                              synthetic_runtime(catalog[i % 3], tasks)});
    }
    return observations;
  };
  server.observe_batch(make_batch(40.0));
  const std::string saved = server.save_state();
  BanditServer restored = BanditServer::load_state(saved);
  EXPECT_EQ(restored.config().bandit.policy.fit.ridge, 1e-3);
  EXPECT_EQ(restored.save_state(), saved);
  // Both keep syncing, to the same bytes.
  const auto more = make_batch(75.0);
  server.observe_batch(more);
  restored.observe_batch(more);
  EXPECT_EQ(restored.sync_count(), 1u);
  EXPECT_EQ(restored.save_state(), server.save_state());
}

TEST(BanditServer, SaveStateIsAtomicUnderConcurrentWrites) {
  BanditServer server = make_server(4, ShardingPolicy::kFeatureHash);
  // The writer is bounded (not free-running) so the snapshot loop below
  // cannot chase an ever-growing history: load_state replays every stored
  // observation, which is quadratic if the stream never stops.
  std::atomic<bool> stop{false};
  std::thread writer([&server, &stop] {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      const auto x = features_for(15.0 + (i % 37));
      const auto decision = server.recommend_one(x);
      server.observe_one({decision.shard, decision.arm, x,
                          synthetic_runtime(*decision.spec, x[0])});
    }
  });
  for (int i = 0; i < 10; ++i) {
    const std::string saved = server.save_state();
    // Every snapshot taken mid-stream must itself be loadable and stable.
    BanditServer restored = BanditServer::load_state(saved);
    EXPECT_EQ(restored.save_state(), saved);
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace bw::serve
