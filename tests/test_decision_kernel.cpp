// The decision kernel's byte-identity contract (ROADMAP "Decision kernel").
//
// The SoA scoring substrate (linalg/gemm, the FrozenModel coefficient
// plane, the ArmBank theta plane) promises decisions that are BITWISE
// identical to the per-arm scalar walks it replaced — same arm, same
// predicted-runtime double, same tolerant limit. These tests pin that
// contract end to end:
//
//   * kernel — gemm_rm / score_block against a naive k-ascending loop;
//   * frozen — recommend_choice, recommend_choice_scalar and
//     recommend_greedy_batch against an independent oracle (tolerant_select
//     over each live arm's own LinearModel::predict) across policies x dims
//     x arm counts, including the negative-R̂ tolerant edge;
//   * bank — predict_all / variance_proxy_all against the per-arm calls,
//     LinUCB's select against the lcb() argmin, Thompson's select against
//     a cloned-seed per-arm reference stream;
//   * lifecycle — a freeze after an observe changes only the observed
//     arms' columns, the plane stays valid after every write that bypasses
//     observe (merge, widening, from_stats, text and binary restore,
//     reset), the empty-catalog ctor guard (the former ArmBank::dim() UB),
//     and grow-only scratch buffers across shape switches.
//
// The ASan and TSan CI jobs both run this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/banditware.hpp"
#include "core/epsilon_greedy.hpp"
#include "core/frozen_model.hpp"
#include "core/linucb.hpp"
#include "core/score_scratch.hpp"
#include "core/thompson.hpp"
#include "core/tolerant.hpp"
#include "hardware/catalog.hpp"
#include "io/state_io.hpp"
#include "linalg/gemm.hpp"
#include "serve/bandit_server.hpp"

namespace bw::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bitwise choice equality: arm, candidates, and the tie-break flag must
/// match exactly, and the two doubles must match bit for bit (EXPECT_EQ on
/// doubles would accept -0.0 == 0.0).
void expect_choice_identical(const TolerantChoice& a, const TolerantChoice& b) {
  EXPECT_EQ(a.arm, b.arm);
  EXPECT_EQ(bits(a.predicted_runtime), bits(b.predicted_runtime));
  EXPECT_EQ(bits(a.limit), bits(b.limit));
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.efficiency_tie_break, b.efficiency_tie_break);
}

/// Arms S0 .. S<arms - 1>; arm Si has the same spec in every catalog.
hw::HardwareCatalog synth_catalog(std::size_t arms) {
  hw::HardwareCatalog catalog;
  for (std::size_t i = 0; i < arms; ++i) {
    catalog.add({std::string("S").append(std::to_string(i)), static_cast<int>(1 + i % 64),
                 8.0 * static_cast<double>(1 + i % 32)});
  }
  return catalog;
}

FeatureVector random_features(Rng& rng, std::size_t d) {
  FeatureVector x(d);
  for (auto& v : x) v = rng.uniform(0.5, 40.0);
  return x;
}

double synth_runtime(const hw::HardwareSpec& spec, const FeatureVector& x) {
  double load = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) load += (1.0 + 0.25 * i) * x[i];
  return 5.0 + load / spec.cpus;
}

// ---- kernel primitives -------------------------------------------------------

/// The reference the contract names: every output element as one
/// k-ascending dot from a 0.0 start.
void naive_gemm(const double* a, std::size_t m, std::size_t k, const double* b,
                std::size_t n, double* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = acc;
    }
  }
}

TEST(DecisionKernel, GemmRmMatchesNaiveLoopBitwise) {
  // Both builds of the kernel: gemm_rm as this CPU runs it (the AVX2 build
  // on an AVX2 host) and the baseline build a CPU without AVX2 runs. The
  // shapes straddle every tile boundary of each: row tiles of 4 (AVX2) and
  // 2 (baseline) rows with the lone-row remainder (m = 1 .. 5, 8, 9);
  // 8-column tiles, 16-column lone-row tiles, the overlapping tile that
  // ends each row and the narrower tiles of rows narrower than a tile
  // (n = 4 .. 31); fewer columns than one vector holds, which take the
  // naive loop (n = 1 .. 3); a catalog-wide row (n = 2048); and short and
  // long k.
  struct Shape {
    std::size_t m, k, n;
  };
  std::vector<Shape> shapes = {{1, 9, 1},  {5, 34, 16}, {3, 7, 17},  {2, 9, 33},
                               {1, 4, 512}, {4, 1, 5},   {1, 3, 1000}, {7, 8, 2}};
  for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
    for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 12u, 13u, 15u, 16u,
                                17u, 20u, 24u, 31u, 2048u}) {
      for (const std::size_t k : {1u, 8u, 9u}) shapes.push_back({m, k, n});
    }
  }
  using Gemm = void (*)(const double*, std::size_t, std::size_t, const double*,
                        std::size_t, double*);
  const std::pair<const char*, Gemm> builds[] = {
      {"gemm_rm", linalg::gemm_rm}, {"baseline", linalg::detail::gemm_rm_baseline}};
  bw::Rng rng(7);
  for (const auto& s : shapes) {
    std::vector<double> a(s.m * s.k), b(s.k * s.n);
    for (auto& v : a) v = rng.uniform(-3.0, 3.0);
    for (auto& v : b) v = rng.uniform(-3.0, 3.0);
    std::vector<double> want(s.m * s.n, -2.0);
    naive_gemm(a.data(), s.m, s.k, b.data(), s.n, want.data());
    for (const auto& [name, gemm] : builds) {
      std::vector<double> got(s.m * s.n, -1.0);
      gemm(a.data(), s.m, s.k, b.data(), s.n, got.data());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(bits(got[i]), bits(want[i])) << name << " m=" << s.m << " k=" << s.k
                                               << " n=" << s.n << " elt=" << i;
      }
    }
  }
}

TEST(DecisionKernel, ScoreBlockMatchesPerArmDotBitwise) {
  // score_block takes the TRANSPOSED plane (k x arms); out[j*arms + i] must
  // equal the k-ascending dot of context row j against arm i's column.
  bw::Rng rng(11);
  for (const std::size_t arms : {1u, 16u, 17u, 100u}) {
    for (const std::size_t n : {1u, 3u, 64u}) {
      const std::size_t k = 9;
      std::vector<double> plane_t(k * arms), ctx(n * k), out(n * arms);
      for (auto& v : plane_t) v = rng.uniform(-2.0, 2.0);
      for (auto& v : ctx) v = rng.uniform(-2.0, 2.0);
      linalg::score_block(plane_t.data(), arms, k, ctx.data(), n, out.data());
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < arms; ++i) {
          double acc = 0.0;
          for (std::size_t kk = 0; kk < k; ++kk) {
            acc += ctx[j * k + kk] * plane_t[kk * arms + i];
          }
          ASSERT_EQ(bits(out[j * arms + i]), bits(acc))
              << "arms=" << arms << " n=" << n << " j=" << j << " i=" << i;
        }
      }
    }
  }
}

// ---- frozen plane vs the live arms ------------------------------------------

BanditWareConfig config_for(PolicyKind kind) {
  BanditWareConfig config;
  config.policy_kind = kind;
  config.policy.initial_epsilon = 0.0;  // decisions only; no exploration
  config.policy.tolerance.ratio = 0.10;
  config.policy.tolerance.seconds = 2.0;
  return config;
}

BanditWare trained_instance(PolicyKind kind, std::size_t d, std::size_t arms,
                            double runtime_scale = 1.0) {
  const hw::HardwareCatalog catalog = synth_catalog(arms);
  BanditWare bandit(catalog, std::vector<std::string>(d, "f"), config_for(kind));
  bw::Rng rng(101 + d + arms);
  // Two observations per arm, capped so the 1000-arm cells stay fast; the
  // untouched tail keeps its zero init, which the plane must mirror too.
  const std::size_t trained = std::min<std::size_t>(arms, 192);
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t arm = 0; arm < trained; ++arm) {
      const auto x = random_features(rng, d);
      bandit.observe(static_cast<ArmIndex>(arm), x,
                     runtime_scale * synth_runtime(catalog[arm], x));
    }
  }
  return bandit;
}

/// The independent oracle: tolerant_select over each live arm's own
/// LinearModel::predict, with the catalog's costs — no plane involved.
TolerantChoice oracle_choice(const BanditWare& bandit, const FeatureVector& x) {
  std::vector<double> predictions(bandit.num_arms());
  for (ArmIndex arm = 0; arm < bandit.num_arms(); ++arm) {
    predictions[arm] = bandit.arm_model(arm).predict(x);
  }
  const EpsilonGreedyConfig& policy = bandit.config().policy;
  return tolerant_select(predictions,
                         bandit.catalog().resource_costs(policy.resource_weights),
                         policy.tolerance);
}

TEST(DecisionKernel, FrozenVectorizedMatchesScalarAcrossGrid) {
  for (const PolicyKind kind :
       {PolicyKind::kEpsilonGreedy, PolicyKind::kLinUcb, PolicyKind::kThompson}) {
    for (const std::size_t d : {1u, 4u, 8u, 33u}) {
      for (const std::size_t arms : {1u, 7u, 256u, 1000u}) {
        const BanditWare bandit = trained_instance(kind, d, arms);
        const auto frozen = bandit.freeze(1);
        bw::Rng rng(23);
        std::vector<FeatureVector> xs;
        for (int q = 0; q < 8; ++q) xs.push_back(random_features(rng, d));
        for (const auto& x : xs) {
          const TolerantChoice ref = oracle_choice(bandit, x);
          expect_choice_identical(frozen->recommend_choice(x), ref);
          expect_choice_identical(frozen->recommend_choice_scalar(x), ref);
        }
        // The batched panel path must agree with the one-context path.
        const auto batch = frozen->recommend_greedy_batch(xs);
        ASSERT_EQ(batch.size(), xs.size());
        for (std::size_t j = 0; j < xs.size(); ++j) {
          expect_choice_identical(batch[j], frozen->recommend_choice(xs[j]));
        }
      }
    }
  }
}

TEST(DecisionKernel, NegativePredictionsStayIdentical) {
  // An extrapolating model predicts negative runtimes; the tolerant limit
  // then takes its max(R̂, 0) branch. The vectorized path must track the
  // scalar one through that edge bit for bit.
  const hw::HardwareCatalog catalog = synth_catalog(5);
  BanditWareConfig config = config_for(PolicyKind::kEpsilonGreedy);
  config.policy.tolerance.ratio = 0.5;
  config.policy.tolerance.seconds = 5.0;
  BanditWare bandit(catalog, {"f"}, config);
  for (const double x : {1.0, 2.0, 3.0}) {
    for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
      // Steeply decreasing in x, so large x extrapolates below zero.
      bandit.observe(static_cast<ArmIndex>(arm), {x},
                     100.0 - 30.0 * x - static_cast<double>(arm));
    }
  }
  const auto frozen = bandit.freeze(1);
  const FeatureVector far{25.0};
  const TolerantChoice ref = oracle_choice(bandit, far);
  ASSERT_LT(ref.predicted_runtime, 0.0) << "edge case not reached";
  expect_choice_identical(frozen->recommend_choice(far), ref);
  expect_choice_identical(frozen->recommend_choice_scalar(far), ref);
  expect_choice_identical(frozen->recommend_greedy_batch(
                              std::vector<FeatureVector>{far})[0],
                          ref);
}

/// Bitwise equality of one frozen column with the arm's live model.
void expect_row_matches_model(const std::vector<double>& row,
                              const linalg::LinearModel& model, const std::string& what) {
  ASSERT_EQ(row.size(), model.weights.size() + 1) << what;
  for (std::size_t i = 0; i < model.weights.size(); ++i) {
    EXPECT_EQ(bits(row[i]), bits(model.weights[i])) << what << " i=" << i;
  }
  EXPECT_EQ(bits(row.back()), bits(model.bias)) << what;
}

TEST(DecisionKernel, FreezeAfterObserveChangesOnlyTheObservedColumns) {
  BanditWare bandit = trained_instance(PolicyKind::kEpsilonGreedy, 4, 64);
  const auto prev = bandit.freeze(1);
  // Observe a scattered subset, including arm 0 and the last arm.
  const std::vector<ArmIndex> observed = {0, 17, 40, 63};
  bw::Rng rng(5);
  for (const ArmIndex arm : observed) {
    const auto x = random_features(rng, 4);
    bandit.observe(arm, x, 7.0 + static_cast<double>(arm));
  }
  const auto next = bandit.freeze(2);
  EXPECT_EQ(next->epoch(), prev->epoch() + 1);
  // Snapshots share the bank's cost table rather than copying it.
  EXPECT_EQ(next->shared_resource_costs(), prev->shared_resource_costs());
  for (ArmIndex arm = 0; arm < 64; ++arm) {
    const bool was_observed =
        std::find(observed.begin(), observed.end(), arm) != observed.end();
    const std::vector<double> before = prev->weight_row(arm);
    const std::vector<double> after = next->weight_row(arm);
    bool same = true;
    for (std::size_t i = 0; i < after.size(); ++i) {
      same = same && bits(after[i]) == bits(before[i]);
    }
    EXPECT_EQ(same, !was_observed) << "arm=" << arm;
    expect_row_matches_model(after, bandit.arm_model(arm).model(),
                             "arm=" + std::to_string(arm));
  }
  // Frozen equals live: the new snapshot decides like the oracle.
  for (int q = 0; q < 16; ++q) {
    const auto x = random_features(rng, 4);
    const TolerantChoice ref = oracle_choice(bandit, x);
    expect_choice_identical(next->recommend_choice(x), ref);
    expect_choice_identical(next->recommend_choice_scalar(x), ref);
  }
}

// ---- live bank: batched reads vs per-arm calls -------------------------------

TEST(DecisionKernel, BankPredictAllMatchesPerArmBitwise) {
  LinUcbConfig config;
  LinUcb policy(synth_catalog(33), 3, config);
  bw::Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const auto x = random_features(rng, 3);
    policy.observe(static_cast<ArmIndex>(i % 33), x, rng.uniform(1.0, 50.0));
  }
  for (int q = 0; q < 8; ++q) {
    const auto x = random_features(rng, 3);
    const std::vector<double> all = policy.bank().predict_all(x);
    ASSERT_EQ(all.size(), 33u);
    std::vector<double> vars(33);
    policy.bank().variance_proxy_all(x, vars);
    for (ArmIndex arm = 0; arm < 33; ++arm) {
      EXPECT_EQ(bits(all[arm]), bits(policy.bank().predict(arm, x)));
      EXPECT_EQ(bits(vars[arm]), bits(policy.bank().variance_proxy(arm, x)));
    }
  }
}

TEST(DecisionKernel, LinUcbSelectMatchesLcbArgmin) {
  LinUcbConfig config;
  config.alpha = 1.7;
  LinUcb policy(synth_catalog(21), 2, config);
  bw::Rng rng(9);
  for (int i = 0; i < 60; ++i) {
    const auto x = random_features(rng, 2);
    policy.observe(static_cast<ArmIndex>(i % 21), x, rng.uniform(1.0, 40.0));
  }
  bw::Rng select_rng(1);
  for (int q = 0; q < 20; ++q) {
    const auto x = random_features(rng, 2);
    // Reference: the scalar lcb() walk, strict < from arm 0.
    ArmIndex want = 0;
    double best = policy.lcb(0, x);
    for (ArmIndex arm = 1; arm < 21; ++arm) {
      const double value = policy.lcb(arm, x);
      if (value < best) {
        best = value;
        want = arm;
      }
    }
    EXPECT_EQ(policy.select(x, select_rng), want);
  }
}

TEST(DecisionKernel, ThompsonSelectMatchesClonedSeedReference) {
  ThompsonConfig config;
  config.posterior_scale = 2.5;
  LinearThompson policy(synth_catalog(17), 2, config);
  bw::Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    const auto x = random_features(rng, 2);
    policy.observe(static_cast<ArmIndex>(i % 17), x, rng.uniform(1.0, 30.0));
  }
  // Two Rngs from the same seed: the bank-level sweep must consume exactly
  // one normal() per arm in ascending order, like the per-arm walk did.
  bw::Rng policy_rng(77);
  bw::Rng reference_rng(77);
  for (int q = 0; q < 20; ++q) {
    const auto x = random_features(rng, 2);
    ArmIndex want = 0;
    double best = 0.0;
    for (ArmIndex arm = 0; arm < 17; ++arm) {
      const double sample =
          policy.predict(arm, x) +
          config.posterior_scale *
              std::sqrt(std::max(0.0, policy.bank().variance_proxy(arm, x))) *
              reference_rng.normal();
      if (arm == 0 || sample < best) {
        best = sample;
        want = arm;
      }
    }
    EXPECT_EQ(policy.select(x, policy_rng), want);
  }
}

// ---- the always-valid plane -------------------------------------------------

/// After any write, the bank's predict_all (what BanditWare::predictions
/// runs) and a fresh freeze()'s columns must equal every arm's own
/// LinearModel bit for bit — there is no stale plane to fall back from.
void expect_plane_matches_arms(const BanditWare& bandit, const std::string& what) {
  const auto frozen = bandit.freeze(1);
  ASSERT_EQ(frozen->num_arms(), bandit.num_arms()) << what;
  const std::size_t d = bandit.feature_names().size();
  bool trained = false;
  bw::Rng rng(41);
  for (int q = 0; q < 4; ++q) {
    const FeatureVector x = random_features(rng, d);
    const std::vector<double> all = bandit.predictions(x);
    ASSERT_EQ(all.size(), bandit.num_arms()) << what;
    for (ArmIndex arm = 0; arm < bandit.num_arms(); ++arm) {
      const linalg::LinearModel& model = bandit.arm_model(arm).model();
      EXPECT_EQ(bits(all[arm]), bits(model.predict(x))) << what << " arm=" << arm;
      trained = trained || model.predict(x) != 0.0;
    }
  }
  for (ArmIndex arm = 0; arm < bandit.num_arms(); ++arm) {
    expect_row_matches_model(frozen->weight_row(arm), bandit.arm_model(arm).model(),
                             what + " arm=" + std::to_string(arm));
  }
  // A zero plane would match an untrained bank; every case here is trained.
  EXPECT_TRUE(trained) << what;
}

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(BW_TEST_DATA_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << name;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(DecisionKernel, PlaneStaysValidAfterMerge) {
  for (const PolicyKind kind :
       {PolicyKind::kEpsilonGreedy, PolicyKind::kLinUcb, PolicyKind::kThompson}) {
    const std::string name = to_string(kind);
    BanditWare a = trained_instance(kind, 3, 12);
    const BanditWare b = trained_instance(kind, 3, 12, 2.0);
    a.merge_from(b);
    expect_plane_matches_arms(a, name + " merge");

    // Replica sync: fold b's evidence beyond a shared ancestor.
    const BanditWare base = trained_instance(kind, 3, 12);
    BanditWare grown = base;
    grown.observe(5, {1.0, 2.0, 3.0}, 9.0);
    BanditWare self = base;
    self.merge_from(grown, &base);
    expect_plane_matches_arms(self, name + " merge with base");
  }
}

TEST(DecisionKernel, PlaneStaysValidAfterFromStatsAndRestore) {
  for (const PolicyKind kind :
       {PolicyKind::kEpsilonGreedy, PolicyKind::kLinUcb, PolicyKind::kThompson}) {
    const std::string name = to_string(kind);
    const BanditWare source = trained_instance(kind, 3, 12);
    const BanditWare rebuilt = BanditWare::from_stats(
        source.catalog(), source.feature_names(), source.config(), source.export_stats());
    expect_plane_matches_arms(rebuilt, name + " from_stats");
    for (const io::Format format : {io::Format::kText, io::Format::kBinary}) {
      std::ostringstream out(std::ios::binary);
      io::save_state(out, source, format);
      std::istringstream in(out.str(), std::ios::binary);
      expect_plane_matches_arms(io::load_state(in), name + " " + io::to_string(format));
    }
  }
  // Checked-in snapshots: stats bodies restore through the bank, legacy
  // row bodies (text v1, text v2 obs, binary rows) replay through observe.
  for (const char* fixture :
       {"state_v1.bw", "state_v2_obs.bw", "state_v2_stats.bw", "state_v3_linucb.bw",
        "state_v4_lambda.bw", "state_bin_v1.bwb", "state_bin_v1_lambda.bwb",
        "state_bin_v1_linucb.bwb", "state_bin_v1_rows.bwb"}) {
    expect_plane_matches_arms(BanditWare::load_state(read_fixture(fixture)), fixture);
  }
}

TEST(DecisionKernel, PlaneStaysValidAfterReset) {
  LinUcb policy(synth_catalog(9), 2, LinUcbConfig{});
  bw::Rng rng(31);
  for (int i = 0; i < 30; ++i) {
    const auto x = random_features(rng, 2);
    policy.observe(static_cast<ArmIndex>(i % 9), x, rng.uniform(1.0, 20.0));
  }
  policy.reset();
  const ArmBank& bank = policy.bank();
  for (const double v : bank.plane()) EXPECT_EQ(bits(v), bits(0.0));
  // And the first observe after the reset lands in the plane.
  const FeatureVector x0 = random_features(rng, 2);
  policy.observe(4, x0, 11.0);
  for (int q = 0; q < 4; ++q) {
    const auto x = random_features(rng, 2);
    const std::vector<double> all = bank.predict_all(x);
    for (ArmIndex arm = 0; arm < 9; ++arm) {
      EXPECT_EQ(bits(all[arm]), bits(bank.arm(arm).predict(x))) << "arm=" << arm;
    }
  }
  EXPECT_NE(bank.predict_all(x0)[4], 0.0);
}

// ---- construction guards -----------------------------------------------------

TEST(DecisionKernel, EmptyCatalogThrowsEverywhere) {
  // Regression for the ArmBank::dim() UB: an empty catalog must be a loud
  // InvalidArgument from every entry point, never an arms_.front() on an
  // empty vector.
  const hw::HardwareCatalog empty;
  EXPECT_THROW(DecayingEpsilonGreedy(empty, 1, {}), InvalidArgument);
  EXPECT_THROW(LinUcb(empty, 1, {}), InvalidArgument);
  EXPECT_THROW(LinearThompson(empty, 1, {}), InvalidArgument);
  EXPECT_THROW(BanditWare(empty, {"f"}, {}), InvalidArgument);
}

TEST(DecisionKernel, ScratchBuffersOnlyGrowAcrossShapeSwitches) {
  // A thread that mixes one-context reads with greedy batches, or serves a
  // multi-shard batch whose per-shard groups differ in size, must keep its
  // scratch across the switch: same storage, same size, no re-zero-filled
  // tail. widths is sized by arms alone (only batch-1 passes read it).
  DecisionScratch scratch;
  scratch.ensure(2048, 8, 8);
  const double* scores = scratch.scores.data();
  const double* widths = scratch.widths.data();
  const double* panel = scratch.panel.data();
  EXPECT_EQ(scratch.scores.size(), 2048u * 8u);
  EXPECT_EQ(scratch.widths.size(), 2048u);
  EXPECT_EQ(scratch.panel.size(), 9u * 8u);
  auto expect_unchanged = [&](const char* what) {
    EXPECT_EQ(scratch.scores.data(), scores) << what;
    EXPECT_EQ(scratch.widths.data(), widths) << what;
    EXPECT_EQ(scratch.panel.data(), panel) << what;
    EXPECT_EQ(scratch.scores.size(), 2048u * 8u) << what;
    EXPECT_EQ(scratch.widths.size(), 2048u) << what;
    EXPECT_EQ(scratch.panel.size(), 9u * 8u) << what;
  };
  scratch.ensure(2048, 8, 1);
  expect_unchanged("shrink to one context");
  scratch.ensure(2048, 8, 3);
  expect_unchanged("odd-sized group");
  scratch.ensure(2048, 8, 8);
  expect_unchanged("regrow to the batch");
  scratch.ensure(64, 2, 1);
  expect_unchanged("smaller catalog");

  // The same through the per-thread scratch the frozen passes share:
  // batch, single read, smaller batch, batch again.
  const BanditWare bandit = trained_instance(PolicyKind::kEpsilonGreedy, 8, 256);
  const auto frozen = bandit.freeze(1);
  bw::Rng rng(29);
  std::vector<FeatureVector> xs;
  for (int q = 0; q < 8; ++q) xs.push_back(random_features(rng, 8));
  (void)frozen->recommend_greedy_batch(xs);
  DecisionScratch& local = DecisionScratch::local();
  const double* local_scores = local.scores.data();
  const double* local_panel = local.panel.data();
  const std::size_t scores_size = local.scores.size();
  const std::size_t panel_size = local.panel.size();
  (void)frozen->recommend_choice(xs[0]);
  (void)frozen->recommend_greedy_batch(std::span<const FeatureVector>(xs).first(3));
  (void)frozen->recommend_greedy_batch(xs);
  EXPECT_EQ(local.scores.data(), local_scores);
  EXPECT_EQ(local.panel.data(), local_panel);
  EXPECT_EQ(local.scores.size(), scores_size);
  EXPECT_EQ(local.panel.size(), panel_size);
}

// ---- serve layer -------------------------------------------------------------

TEST(DecisionKernel, ServerBatchMatchesPerItemGreedy) {
  serve::BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = serve::ShardingPolicy::kFeatureHash;
  config.seed = 42;
  config.explore = false;
  const hw::HardwareCatalog catalog = synth_catalog(24);
  serve::BanditServer server(catalog, {"a", "b"}, config);
  bw::Rng rng(17);
  for (int i = 0; i < 80; ++i) {
    const auto x = random_features(rng, 2);
    const auto arm = static_cast<ArmIndex>(i % catalog.size());
    server.observe_one(
        {server.shard_of(x), arm, x, synth_runtime(catalog[arm], x)});
  }
  std::vector<FeatureVector> xs;
  for (int i = 0; i < 37; ++i) xs.push_back(random_features(rng, 2));
  const auto batched = server.recommend_batch(xs);
  ASSERT_EQ(batched.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto single = server.recommend_greedy(xs[i]);
    EXPECT_EQ(batched[i].shard, single.shard);
    EXPECT_EQ(batched[i].arm, single.arm);
    EXPECT_EQ(bits(batched[i].predicted_runtime_s),
              bits(single.predicted_runtime_s));
    EXPECT_FALSE(batched[i].explored);
    EXPECT_EQ(batched[i].spec, single.spec);
  }
}

}  // namespace
}  // namespace bw::core
