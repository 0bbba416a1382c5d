// Deterministic tests for the async cross-shard sync pipeline: the
// schedule harness (sched_harness.hpp) replays seeded interleavings of
// recommend/observe/sync-phase/snapshot ops on a virtual clock, so every
// assertion here is reproducible bit-for-bit from the seed — no real
// threads, no timing dependence. Directed tests cover the generation
// algebra: late-arriving observations re-folded at publish, stale rounds
// abandoned after an inline sync wins the race, snapshots capturing a
// consistent generation mid-round.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "hardware/catalog.hpp"
#include "sched_harness.hpp"
#include "serve/bandit_server.hpp"

namespace bw::serve {
namespace {

using testing::ScheduleDriver;
using testing::ScheduleResult;
using testing::ScheduleWeights;

core::FeatureVector features_for(double num_tasks) { return {num_tasks}; }

BanditServerConfig async_config(std::size_t shards, std::uint64_t seed = 7) {
  BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = ShardingPolicy::kRoundRobin;
  config.sync_mode = SyncMode::kAsync;
  config.seed = seed;
  return config;
}

BanditServerConfig async_policy_config(std::size_t shards, core::PolicyKind kind) {
  BanditServerConfig config = async_config(shards);
  config.bandit.policy_kind = kind;
  return config;
}

ScheduleDriver make_driver(std::size_t shards, ScheduleWeights weights,
                           std::size_t ticks = 400, std::size_t batch = 8) {
  return ScheduleDriver(async_config(shards), hw::ndp_catalog(), batch, ticks,
                        weights);
}

constexpr std::uint64_t kSeeds[] = {11, 23, 47};  // >= 3 distinct seeds (CI)

TEST(AsyncSyncSchedule, SameSeedAndScheduleIsByteIdentical) {
  // The acceptance bar: same seed + schedule => identical decision trace
  // and byte-identical final server snapshot, across >= 3 distinct seeds.
  const ScheduleDriver driver = make_driver(4, ScheduleWeights{8, 4, 1, 1});
  for (const std::uint64_t seed : kSeeds) {
    const ScheduleResult a = driver.run(seed);
    const ScheduleResult b = driver.run(seed);
    EXPECT_EQ(a.decisions, b.decisions) << "seed=" << seed;
    EXPECT_EQ(a.final_state, b.final_state) << "seed=" << seed;
    EXPECT_EQ(a.syncs, b.syncs) << "seed=" << seed;
    EXPECT_EQ(a.abandoned_rounds, b.abandoned_rounds) << "seed=" << seed;
    EXPECT_GT(a.decisions.size(), 0u);
  }
}

TEST(AsyncSyncSchedule, LinUcbScheduleIsDeterministicAndBalanced) {
  // The policy axis must not disturb the harness's reproducibility bar:
  // a LinUCB-driven fleet (deterministic optimism instead of the ε-coin)
  // replays byte-identically from the seed, and whatever the interleaving
  // the books balance after quiesce.
  const ScheduleDriver driver(async_policy_config(4, core::PolicyKind::kLinUcb),
                              hw::ndp_catalog(), 8, 400, ScheduleWeights{8, 4, 1, 1});
  for (const std::uint64_t seed : kSeeds) {
    const ScheduleResult a = driver.run(seed);
    const ScheduleResult b = driver.run(seed);
    EXPECT_EQ(a.decisions, b.decisions) << "seed=" << seed;
    EXPECT_EQ(a.final_state, b.final_state) << "seed=" << seed;
    EXPECT_EQ(a.observations, a.observations_fed) << "seed=" << seed;
    EXPECT_EQ(a.inconsistent_snapshots, 0u) << "seed=" << seed;
    EXPECT_GT(a.decisions.size(), 0u);
    // The snapshot must carry the policy token end-to-end.
    EXPECT_EQ(a.final_state.rfind("banditserver-state v6\n", 0), 0u);
    EXPECT_NE(a.final_state.find("policy linucb"), std::string::npos);
  }
}

TEST(AsyncSyncSchedule, ThompsonScheduleIsDeterministicAndBalanced) {
  // Same bar for Thompson: its exploration consumes the per-shard RNG
  // (posterior draws), which the virtual-clock schedule serializes — same
  // seed + schedule must still replay bit-for-bit.
  const ScheduleDriver driver(async_policy_config(4, core::PolicyKind::kThompson),
                              hw::ndp_catalog(), 8, 400, ScheduleWeights{8, 4, 1, 1});
  for (const std::uint64_t seed : kSeeds) {
    const ScheduleResult a = driver.run(seed);
    const ScheduleResult b = driver.run(seed);
    EXPECT_EQ(a.decisions, b.decisions) << "seed=" << seed;
    EXPECT_EQ(a.final_state, b.final_state) << "seed=" << seed;
    EXPECT_EQ(a.observations, a.observations_fed) << "seed=" << seed;
    EXPECT_EQ(a.inconsistent_snapshots, 0u) << "seed=" << seed;
    EXPECT_GT(a.decisions.size(), 0u);
    EXPECT_EQ(a.final_state.rfind("banditserver-state v6\n", 0), 0u);
    EXPECT_NE(a.final_state.find("policy thompson"), std::string::npos);
  }
}

TEST(AsyncSyncSchedule, DiscountedScheduleIsDeterministicAndBalanced) {
  // λ < 1 through the full async machinery — staged rounds, late refolds,
  // inline-sync races — must keep the harness's bars: byte-identical replay
  // from the seed, every observation accounted for, no inconsistent cuts.
  BanditServerConfig config = async_config(4);
  config.bandit.policy.fit.forgetting = 0.97;
  const ScheduleDriver driver(config, hw::ndp_catalog(), 8, 400,
                              ScheduleWeights{8, 4, 1, 1});
  for (const std::uint64_t seed : kSeeds) {
    const ScheduleResult a = driver.run(seed);
    const ScheduleResult b = driver.run(seed);
    EXPECT_EQ(a.decisions, b.decisions) << "seed=" << seed;
    EXPECT_EQ(a.final_state, b.final_state) << "seed=" << seed;
    EXPECT_EQ(a.observations, a.observations_fed) << "seed=" << seed;
    EXPECT_EQ(a.inconsistent_snapshots, 0u) << "seed=" << seed;
    EXPECT_GT(a.decisions.size(), 0u);
    // Discounted state rides the v5 header with its lambda token.
    EXPECT_EQ(a.final_state.rfind("banditserver-state v6\n", 0), 0u);
    EXPECT_NE(a.final_state.find(" lambda 0.9"), std::string::npos);
  }
}

TEST(AsyncSyncSchedule, DifferentSeedsExploreDifferentInterleavings) {
  // Sanity check that the harness actually varies the schedule: distinct
  // seeds must not all collapse onto one trace.
  const ScheduleDriver driver = make_driver(4, ScheduleWeights{8, 4, 1, 1});
  const ScheduleResult a = driver.run(kSeeds[0]);
  const ScheduleResult b = driver.run(kSeeds[1]);
  EXPECT_NE(a.final_state, b.final_state);
}

TEST(AsyncSyncSchedule, NoObservationLostOrDoubleCountedAcrossGenerations) {
  // Whatever the interleaving — rounds publishing mid-stream, rounds
  // abandoned by inline syncs, snapshots cutting between phases — after
  // quiesce the engine must account for exactly the observations fed in.
  for (const std::uint64_t seed : kSeeds) {
    for (const auto& weights :
         {ScheduleWeights{8, 4, 0, 1}, ScheduleWeights{8, 4, 2, 1},
          ScheduleWeights{4, 8, 1, 0}}) {
      const ScheduleResult result = make_driver(4, weights).run(seed);
      EXPECT_EQ(result.observations, result.observations_fed)
          << "seed=" << seed << " serve=" << weights.serve
          << " fuser=" << weights.fuser_step << " inline=" << weights.inline_sync;
      EXPECT_EQ(result.inconsistent_snapshots, 0u);
    }
  }
}

TEST(AsyncSyncSchedule, InlineSyncRacesAbandonStaleRoundsSafely) {
  // With an aggressive inline-sync antagonist the generation check must
  // abandon staged rounds (this schedule is chosen to hit that path) and
  // the books must still balance.
  const ScheduleDriver driver = make_driver(4, ScheduleWeights{6, 6, 4, 1});
  std::size_t abandoned_total = 0;
  for (const std::uint64_t seed : kSeeds) {
    const ScheduleResult result = driver.run(seed);
    abandoned_total += result.abandoned_rounds;
    EXPECT_EQ(result.observations, result.observations_fed) << "seed=" << seed;
  }
  // At least one schedule must actually exercise the abandon path, or this
  // test is vacuous.
  EXPECT_GT(abandoned_total, 0u);
}

TEST(AsyncSyncSchedule, AsyncRegretConvergesLikeInlineSync) {
  // The statistical acceptance bar: with a schedule where the fuser keeps
  // pace (~one full round per serve batch, the cadence ROADMAP
  // recommends), the async path must land at the same regret ratio as
  // inline sync — within 1.1x of it — both in total (exploration included)
  // and on greedy decisions alone (pure learned-model quality; the
  // long-stream <= 1.1x-of-1-shard gate runs in the CI perf-smoke bench).
  for (const std::uint64_t seed : kSeeds) {
    // Baseline: one shard, no fusion actors at all (same served volume).
    const ScheduleResult single =
        make_driver(1, ScheduleWeights{1, 0, 0, 0}, 300).run(seed);
    // Inline: every fusion op is a stop-the-world sync.
    const ScheduleResult inline_sync =
        make_driver(4, ScheduleWeights{1, 0, 3, 0}, 1200).run(seed);
    // Async: three pipeline phases ~ one full round per serve batch.
    const ScheduleResult async_sync =
        make_driver(4, ScheduleWeights{1, 3, 0, 0}, 1200).run(seed);
    ASSERT_GT(single.mean_regret, 0.0);
    const double async_ratio = async_sync.mean_regret / single.mean_regret;
    const double inline_ratio = inline_sync.mean_regret / single.mean_regret;
    EXPECT_LE(async_ratio, 1.1 * inline_ratio) << "seed=" << seed;
    EXPECT_LE(async_sync.greedy_regret, 1.1 * inline_sync.greedy_regret + 1e-12)
        << "seed=" << seed;
    // In this synthetic world one arm dominates everywhere, so a converged
    // model must make every greedy decision optimally — staleness from the
    // async pipeline must not change that.
    EXPECT_LE(async_sync.greedy_regret, single.greedy_regret + 1e-12)
        << "seed=" << seed;
  }
}

TEST(AsyncSyncSchedule, QuiescedAsyncMatchesSingleStreamExactly) {
  // After quiesce (drain + final sync) the fused model must equal a single
  // facade that saw the whole stream — the async path is the same exact
  // algebra as inline, just pipelined. All three policies sit on the same
  // information-form statistics, so the 1e-9 bar holds for each.
  for (const core::PolicyKind kind :
       {core::PolicyKind::kEpsilonGreedy, core::PolicyKind::kLinUcb,
        core::PolicyKind::kThompson}) {
    BanditServerConfig config = async_config(4);
    config.bandit.policy_kind = kind;
    config.bandit.policy.fit.ridge = 1e-6;
    BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
    const hw::HardwareCatalog catalog = hw::ndp_catalog();
    core::BanditWare reference(catalog, {"num_tasks"}, config.bandit);

    int phase = 0;
    for (int i = 0; i < 240; ++i) {
      const double tasks = 20.0 + 9.0 * (i % 41);
      const auto x = features_for(tasks);
      const auto arm = static_cast<core::ArmIndex>(i % 3);
      const double runtime = ScheduleDriver::synthetic_runtime(catalog[arm], tasks);
      server.observe_one({static_cast<std::size_t>(i % 4), arm, x, runtime});
      reference.observe(arm, x, runtime);
      if (i % 7 == 6) {
        // Interleave pipeline phases with the stream: one phase per 7 obs.
        switch (phase % 3) {
          case 0:
            server.sync_stage();
            break;
          case 1:
            server.sync_fuse();
            break;
          case 2:
            server.sync_publish();
            break;
        }
        ++phase;
      }
    }
    // Finish the in-flight round, then fold the remaining deltas.
    while (phase % 3 != 0) {
      if (phase % 3 == 1) server.sync_fuse();
      if (phase % 3 == 2) server.sync_publish();
      ++phase;
    }
    server.sync_shards();

    EXPECT_EQ(server.num_observations(), 240u) << core::to_string(kind);
    for (double tasks : {33.0, 150.0, 371.0}) {
      const auto x = features_for(tasks);
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
  }
}

TEST(AsyncSyncPipeline, DiscountedRoundMatchesCanonicalShardOrder) {
  // Under λ < 1 observation order matters, so "the model that saw the whole
  // stream" must be pinned, not assumed: the generation algebra defines the
  // fused estimator as one facade that saw the base stream, then each
  // shard's new slice in shard index order (sync_fuse folds staged
  // snapshots against the round's base in that order). Observations arrive
  // temporally interleaved across shards — exactly the case where the
  // canonical order differs from arrival order — and the 1e-9 bound must
  // still hold for every policy, across two full pipeline rounds.
  for (const core::PolicyKind kind :
       {core::PolicyKind::kEpsilonGreedy, core::PolicyKind::kLinUcb,
        core::PolicyKind::kThompson}) {
    BanditServerConfig config = async_config(2);
    config.bandit.policy_kind = kind;
    config.bandit.policy.fit.ridge = 1e-6;
    config.bandit.policy.fit.forgetting = 0.97;
    BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
    const hw::HardwareCatalog catalog = hw::ndp_catalog();
    core::BanditWare reference(catalog, {"num_tasks"}, config.bandit);

    int i = 0;
    for (int round = 0; round < 2; ++round) {
      std::vector<std::vector<std::pair<core::ArmIndex, double>>> slices(2);
      for (int k = 0; k < 36; ++k) {
        const std::size_t shard = static_cast<std::size_t>(k % 2);
        const double tasks = 20.0 + 9.0 * (i % 41);
        const auto arm = static_cast<core::ArmIndex>(i % 3);
        server.observe_one({shard, arm, features_for(tasks),
                            ScheduleDriver::synthetic_runtime(catalog[arm], tasks)});
        slices[shard].emplace_back(arm, tasks);
        ++i;
      }
      ASSERT_TRUE(server.sync_stage());
      server.sync_fuse();
      ASSERT_TRUE(server.sync_publish());
      for (const auto& slice : slices) {  // canonical: shard index order
        for (const auto& [arm, tasks] : slice) {
          reference.observe(arm, features_for(tasks),
                            ScheduleDriver::synthetic_runtime(catalog[arm], tasks));
        }
      }
    }

    EXPECT_EQ(server.num_observations(), 72u) << core::to_string(kind);
    for (double tasks : {33.0, 150.0, 371.0}) {
      const auto x = features_for(tasks);
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
  }
}

TEST(AsyncSyncPipeline, LateObservationsAreRefoldedAtPublish) {
  // Observations landing between stage and publish belong to no staged
  // snapshot; publish must fold them into the new generation, not lose
  // them to the swap.
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, async_config(2));
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  auto feed = [&](std::size_t shard, double tasks) {
    server.observe_one({shard, 0, features_for(tasks),
                        ScheduleDriver::synthetic_runtime(catalog[0], tasks)});
  };
  feed(0, 100.0);
  feed(1, 200.0);
  ASSERT_TRUE(server.sync_stage());
  // Late arrivals: after the stage snapshot, before publish.
  feed(0, 300.0);
  feed(1, 400.0);
  server.sync_fuse();
  ASSERT_TRUE(server.sync_publish());
  EXPECT_EQ(server.generation(), 1u);
  // 2 staged + 2 late: all four must be accounted for...
  EXPECT_EQ(server.num_observations(), 4u);
  // ...and a follow-up round must not double-count the late ones.
  ASSERT_TRUE(server.sync_stage());
  server.sync_fuse();
  ASSERT_TRUE(server.sync_publish());
  EXPECT_EQ(server.num_observations(), 4u);
  // Both shards now carry the full fused stream.
  const auto x = features_for(250.0);
  EXPECT_EQ(server.predictions(0, x), server.predictions(1, x));
}

TEST(AsyncSyncPipeline, StaleGenerationRoundIsAbandoned) {
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, async_config(2));
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  server.observe_one({0, 0, features_for(100.0),
                      ScheduleDriver::synthetic_runtime(catalog[0], 100.0)});
  server.observe_one({1, 1, features_for(150.0),
                      ScheduleDriver::synthetic_runtime(catalog[1], 150.0)});
  ASSERT_TRUE(server.sync_stage());
  server.sync_fuse();
  // An inline sync wins the race: the generation moves under the round.
  server.sync_shards();
  EXPECT_EQ(server.generation(), 1u);
  // The staged round must abandon (publishing would double-count what the
  // inline sync already folded).
  EXPECT_FALSE(server.sync_publish());
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.num_observations(), 2u);
  // The next round proceeds normally.
  ASSERT_TRUE(server.sync_stage());
  server.sync_fuse();
  EXPECT_TRUE(server.sync_publish());
  EXPECT_EQ(server.num_observations(), 2u);
}

TEST(AsyncSyncPipeline, SnapshotMidRoundCapturesConsistentGeneration) {
  // A snapshot between any two pipeline phases must be a loadable,
  // byte-stable cut whose books balance — staged-but-unpublished rounds
  // are not durable state (their evidence lives in the shard models, which
  // are serialized).
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, async_config(3));
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (int i = 0; i < 30; ++i) {
    const double tasks = 40.0 + 13.0 * i;
    const auto arm = static_cast<core::ArmIndex>(i % 3);
    server.observe_one({static_cast<std::size_t>(i % 3), arm, features_for(tasks),
                        ScheduleDriver::synthetic_runtime(catalog[arm], tasks)});
  }
  auto verify_cut = [&server](const char* where) {
    const std::string saved = server.save_state();
    BanditServer restored = BanditServer::load_state(saved);
    EXPECT_EQ(restored.save_state(), saved) << where;
    EXPECT_EQ(restored.num_observations(), server.num_observations()) << where;
  };
  verify_cut("before stage");
  ASSERT_TRUE(server.sync_stage());
  verify_cut("after stage");
  server.sync_fuse();
  verify_cut("after fuse");
  ASSERT_TRUE(server.sync_publish());
  verify_cut("after publish");
}

TEST(AsyncSyncPipeline, SingleShardHasNothingToStage) {
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, async_config(1));
  EXPECT_FALSE(server.sync_stage());
  EXPECT_THROW(server.sync_fuse(), InvalidArgument);  // nothing staged
  server.request_sync();  // no-op, must not spawn a fuser or sync
  server.drain_sync();
  EXPECT_EQ(server.sync_count(), 0u);
  EXPECT_EQ(server.generation(), 0u);
}

TEST(AsyncSyncPipeline, RequestSyncAndDrainPublishViaBackgroundFuser) {
  // The real background-thread path: request_sync wakes the fuser,
  // drain_sync waits for the round, and the fused result matches what the
  // stepwise pipeline produces.
  BanditServer server(hw::ndp_catalog(), {"num_tasks"}, async_config(2));
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (int i = 0; i < 20; ++i) {
    const double tasks = 30.0 + 7.0 * i;
    const auto arm = static_cast<core::ArmIndex>(i % 3);
    server.observe_one({static_cast<std::size_t>(i % 2), arm, features_for(tasks),
                        ScheduleDriver::synthetic_runtime(catalog[arm], tasks)});
  }
  server.request_sync();
  server.drain_sync();
  EXPECT_GE(server.sync_count(), 1u);
  EXPECT_GE(server.generation(), 1u);
  EXPECT_EQ(server.num_observations(), 20u);
  const auto x = features_for(123.0);
  EXPECT_EQ(server.predictions(0, x), server.predictions(1, x));
}

// ---------------------------------------------------------------------------
// ReadPublication: the lock-free read path (atomically swapped immutable
// snapshots) interleaved with every writer the engine has — observe batches,
// the stepwise async pipeline, inline-sync antagonists, snapshotters. The
// harness serializes the schedule, so after each writer tick the published
// snapshot must agree bit-for-bit with the live locked model, and epochs
// must only move forward.
// ---------------------------------------------------------------------------

TEST(ReadPublication, SameSeedWithReadersIsByteIdentical) {
  // Adding lock-free readers must not cost the harness its acceptance bar:
  // same seed + schedule => identical trace and byte-identical snapshot.
  const ScheduleDriver driver = make_driver(4, ScheduleWeights{8, 4, 1, 1, 6});
  for (const std::uint64_t seed : kSeeds) {
    const ScheduleResult a = driver.run(seed);
    const ScheduleResult b = driver.run(seed);
    EXPECT_EQ(a.decisions, b.decisions) << "seed=" << seed;
    EXPECT_EQ(a.final_state, b.final_state) << "seed=" << seed;
    EXPECT_EQ(a.read_decisions, b.read_decisions) << "seed=" << seed;
    EXPECT_GT(a.read_decisions, 0u) << "seed=" << seed;
  }
}

TEST(ReadPublication, ReaderNeverObservesStaleOrTornSnapshot) {
  // The publication protocol's two invariants, checked after every read:
  // the published snapshot decides exactly like the live model (writers
  // republish before releasing the shard lock, so a serialized reader can
  // never see a half-published generation), and no shard's epoch moves
  // backwards. Reader-heavy schedule with both sync antagonists racing.
  const ScheduleDriver driver = make_driver(4, ScheduleWeights{4, 6, 2, 1, 10});
  for (const std::uint64_t seed : kSeeds) {
    const ScheduleResult result = driver.run(seed);
    EXPECT_GT(result.read_checks, 0u) << "seed=" << seed;
    EXPECT_EQ(result.read_mismatches, 0u) << "seed=" << seed;
    EXPECT_EQ(result.epoch_regressions, 0u) << "seed=" << seed;
    EXPECT_EQ(result.observations, result.observations_fed) << "seed=" << seed;
  }
}

TEST(ReadPublication, ReadersSeeEveryPolicyIdentically) {
  // The frozen snapshot carries only the shared greedy surface, so the
  // publication invariants are policy-independent: LinUCB and Thompson
  // fleets pass the same mismatch/epoch bars.
  for (const core::PolicyKind kind :
       {core::PolicyKind::kLinUcb, core::PolicyKind::kThompson}) {
    const ScheduleDriver driver(async_policy_config(4, kind), hw::ndp_catalog(), 8,
                                400, ScheduleWeights{6, 4, 1, 1, 8});
    const ScheduleResult result = driver.run(kSeeds[0]);
    EXPECT_GT(result.read_checks, 0u);
    EXPECT_EQ(result.read_mismatches, 0u);
    EXPECT_EQ(result.epoch_regressions, 0u);
  }
}

}  // namespace
}  // namespace bw::serve
