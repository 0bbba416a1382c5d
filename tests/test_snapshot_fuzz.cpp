// Fuzz-style property tests for the snapshot parsers: seeded mutations of
// valid `banditware-state` (v1/v2/v3) and `banditserver-state` (v1-v4)
// texts and of the binary containers (all three payload kinds) —
// truncations, byte flips, deleted/duplicated spans, corrupted
// numbers, policy-token garbage — must either load cleanly (a benign
// mutation, in which case the result must round-trip) or fail with a clean
// bw::Error. Never a crash,
// never an unbounded allocation, never a foreign exception type. The
// loaders are static factories, so "partially applied" state is impossible
// by construction — what this pins is that every rejection is the
// documented ParseError/InvalidArgument, not std::length_error from a
// corrupted count reaching a resize().
//
// ~1k cases per run, deterministic (seeded xoshiro), ASan-clean in CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/banditware.hpp"
#include "core/run_table.hpp"
#include "fleet/fleet_node.hpp"
#include "hardware/catalog.hpp"
#include "io/container.hpp"
#include "io/fleet_wire.hpp"
#include "io/run_table_io.hpp"
#include "io/state_io.hpp"
#include "serve/bandit_server.hpp"

namespace bw {
namespace {

core::BanditWare trained_instance(double forgetting = 1.0) {
  core::BanditWareConfig config;
  config.policy.fit.forgetting = forgetting;
  core::BanditWare bandit(hw::ndp_catalog(), {"num_tasks", "mem_req"}, config);
  for (int i = 0; i < 9; ++i) {
    const core::FeatureVector x = {50.0 + 13.0 * i, 4.0 + (i % 3)};
    bandit.observe(static_cast<core::ArmIndex>(i % 3), x, 10.0 + 0.3 * i);
  }
  return bandit;
}

/// A trained instance running a non-default policy kind — its snapshot is
/// the v3 format (policy token + scalar), which the mutation corpus must
/// cover too.
core::BanditWare trained_policy_instance(core::PolicyKind kind) {
  core::BanditWareConfig config;
  config.policy_kind = kind;
  config.alpha = 1.5;
  config.posterior_scale = 1.25;
  core::BanditWare bandit(hw::ndp_catalog(), {"num_tasks", "mem_req"}, config);
  for (int i = 0; i < 9; ++i) {
    const core::FeatureVector x = {50.0 + 13.0 * i, 4.0 + (i % 3)};
    bandit.observe(static_cast<core::ArmIndex>(i % 3), x, 10.0 + 0.3 * i);
  }
  return bandit;
}

serve::BanditServer trained_server(
    core::PolicyKind kind = core::PolicyKind::kEpsilonGreedy,
    double forgetting = 1.0) {
  serve::BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = serve::ShardingPolicy::kRoundRobin;
  config.sync_every = 2;
  config.bandit.policy_kind = kind;
  config.bandit.policy.fit.forgetting = forgetting;
  serve::BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<serve::ServeObservation> observations;
    for (int i = 0; i < 4; ++i) {
      const double tasks = 30.0 + 7.0 * (batch * 4 + i);
      observations.push_back({static_cast<std::size_t>(i % 2),
                              static_cast<core::ArmIndex>(i % 3),
                              {tasks},
                              5.0 + tasks / catalog[i % 3].cpus});
    }
    server.observe_batch(observations);  // auto-sync at batch 2: real baseline
  }
  return server;
}

/// A checked-in fixture. The raw-row corpora come from the legacy
/// `exact_history 1` fixtures: no writer emits row records any more.
std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(BW_TEST_DATA_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Legacy v1 banditware text (raw rows, no gpus column, no exact_history).
std::string v1_banditware_text() {
  return "banditware-state v1\n"
         "epsilon0 1 decay 0.99 tol_ratio 0.1 tol_seconds 5\n"
         "epsilon 0.9414801494009999\n"
         "features 2 num_tasks mem_req\n"
         "arms 2\n"
         "arm H0 1 8 obs 2\n"
         "50 4 10.5\n"
         "63 5 11.2\n"
         "arm H1 2 16 obs 1\n"
         "76 6 9.1\n";
}

/// Legacy v1 banditserver text (no sync_every/sync_mode, no baseline blob).
std::string v1_banditserver_text() {
  core::BanditWare replica = trained_instance();
  const std::string blob = replica.save_state();
  std::string text = "banditserver-state v1\n";
  text += "shards 1 sharding feature-hash seed 42 threads 0 explore 1 rr_counter 5\n";
  text += "shard 0 bytes " + std::to_string(blob.size()) + "\n" + blob;
  return text;
}

/// One seeded mutation: truncate, flip, delete a span, duplicate a span,
/// insert garbage, or corrupt a number into something hostile.
std::string mutate(const std::string& base, Rng& rng) {
  std::string text = base;
  const int kind = static_cast<int>(rng.uniform_int(0, 5));
  if (text.empty()) return text;
  const std::size_t pos = rng.index(text.size());
  switch (kind) {
    case 0:  // truncate
      text.resize(pos);
      break;
    case 1:  // flip one byte to a random printable (or NUL) character
      text[pos] = static_cast<char>(rng.uniform_int(0, 126));
      break;
    case 2: {  // delete a span
      const std::size_t len = 1 + rng.index(std::min<std::size_t>(64, text.size() - pos));
      text.erase(pos, len);
      break;
    }
    case 3: {  // duplicate a span (shifts every later offset)
      const std::size_t len = 1 + rng.index(std::min<std::size_t>(64, text.size() - pos));
      text.insert(pos, text.substr(pos, len));
      break;
    }
    case 4: {  // insert a garbage token (including a real embedded NUL)
      static const std::string kTokens[] = {
          "-3",  "999999999999999999999", "nan",
          "inf", "arm",                   "end",
          std::string("\0", 1),           "1e308",
          "shards",                       "policy",
          "linucb"};
      text.insert(pos, kTokens[rng.index(std::size(kTokens))]);
      break;
    }
    default: {  // corrupt the first digit-run at/after pos into a huge value
      std::size_t digit = text.find_first_of("0123456789", pos);
      if (digit == std::string::npos) {
        text.resize(pos);
      } else {
        text.replace(digit, 1, rng.bernoulli(0.5) ? "98765432109876543210" : "-7");
      }
      break;
    }
  }
  return text;
}

/// Exercise one parser on a mutated text. Whatever happens must be either a
/// clean load (then the round trip must be stable) or a clean bw::Error.
template <typename Loader>
void check_one(const std::string& mutated, Loader&& load, const char* what,
               int case_index) {
  try {
    load(mutated);
  } catch (const bw::Error&) {
    // Clean, typed rejection: the contract.
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << " case " << case_index
                  << ": foreign exception type: " << error.what();
  } catch (...) {
    ADD_FAILURE() << what << " case " << case_index << ": unknown exception";
  }
}

TEST(SnapshotFuzz, BanditWareParsersRejectMutationsCleanly) {
  const std::vector<std::string> corpus = {
      trained_instance().save_state(),  // v2 stats records
      read_fixture("state_v2_obs.bw"),  // legacy v2 raw-row records
      v1_banditware_text(),             // legacy v1
      // v3 policy-token formats: mutations hit the policy line and its
      // scalar as often as the rest of the header.
      trained_policy_instance(core::PolicyKind::kLinUcb).save_state(),
      trained_policy_instance(core::PolicyKind::kThompson).save_state(),
      // v4 discount superset: mutations hit the lambda line too.
      trained_instance(0.5).save_state(),
  };
  Rng rng(20260730);
  constexpr int kCasesPerBase = 220;
  for (std::size_t b = 0; b < corpus.size(); ++b) {
    for (int i = 0; i < kCasesPerBase; ++i) {
      std::string mutated = mutate(corpus[b], rng);
      if (rng.bernoulli(0.33)) mutated = mutate(mutated, rng);  // stacked
      check_one(
          mutated,
          [](const std::string& text) {
            const core::BanditWare bandit = core::BanditWare::load_state(text);
            // A benign mutation that still parses must round-trip stably.
            const std::string resaved = bandit.save_state();
            EXPECT_EQ(core::BanditWare::load_state(resaved).save_state(), resaved);
          },
          "banditware", i);
    }
  }
}

TEST(SnapshotFuzz, BanditServerParsersRejectMutationsCleanly) {
  const std::vector<std::string> corpus = {
      trained_server().save_state(),  // current v3 (shard + baseline blobs)
      v1_banditserver_text(),         // legacy v1
      // v4 (policy token in the header, v3 blobs inside).
      trained_server(core::PolicyKind::kLinUcb).save_state(),
      trained_server(core::PolicyKind::kThompson).save_state(),
      // v5 discount superset: header lambda token + discounted blobs.
      trained_server(core::PolicyKind::kEpsilonGreedy, 0.5).save_state(),
  };
  Rng rng(9143071);
  constexpr int kCasesPerBase = 220;
  for (std::size_t b = 0; b < corpus.size(); ++b) {
    for (int i = 0; i < kCasesPerBase; ++i) {
      std::string mutated = mutate(corpus[b], rng);
      if (rng.bernoulli(0.33)) mutated = mutate(mutated, rng);
      check_one(
          mutated,
          [](const std::string& text) {
            serve::BanditServer server = serve::BanditServer::load_state(text);
            const std::string resaved = server.save_state();
            EXPECT_EQ(serve::BanditServer::load_state(resaved).save_state(), resaved);
          },
          "banditserver", i);
    }
  }
}

TEST(SnapshotFuzz, HostileCountsFailWithoutAllocating) {
  // Directed cases for every bounded count: each must produce a clean
  // ParseError, not a resize() into bad_alloc or a replay of 10^18 rows.
  const std::vector<std::string> hostile = {
      "banditware-state v2\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 999999999999999999 a\narms 1\n",
      "banditware-state v2\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 888888888888\n",
      "banditware-state v1\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\narm H0 1 8 obs 999999999999\n",
      "banditserver-state v3\n"
      "shards 77777777777777 sharding feature-hash seed 1 threads 0 explore 1 "
      "sync_every 0 sync_mode inline observe_batches 0 rr_counter 0\n",
      // "-7" wraps to ~1.8e19 in the unsigned extraction: must be a clean
      // ParseError, not a ThreadPool trying to reserve that many workers.
      "banditserver-state v3\n"
      "shards 1 sharding feature-hash seed 1 threads -7 explore 1 "
      "sync_every 0 sync_mode inline observe_batches 0 rr_counter 0\n",
      "banditserver-state v3\n"
      "shards 1 sharding feature-hash seed 1 threads 0 explore 1 sync_every 0 "
      "sync_mode inline observe_batches 0 rr_counter 0\n"
      "shard 0 bytes 888888888888888\nbanditware-state v2\n",
      // Policy-token corruption: an unknown kind and a missing scalar must
      // both be clean ParseErrors, not partially-parsed configs.
      "banditware-state v3\n"
      "policy warp-drive\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      "banditware-state v3\n"
      "policy linucb width 2\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      // Out-of-range policy scalars must be the documented ParseError, not
      // the policy constructors' InvalidArgument leaking through the loader.
      "banditware-state v3\n"
      "policy linucb alpha -1\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      "banditware-state v3\n"
      "policy thompson posterior_scale 0\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      "banditware-state v3\n"
      "policy thompson posterior_scale nan\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      "banditserver-state v4\n"
      "shards 1 sharding feature-hash seed 1 threads 0 explore 1 sync_every 0 "
      "sync_mode inline policy warp-drive observe_batches 0 rr_counter 0\n",
      // Discount-token corruption: out-of-range, non-finite, or combined
      // with legacy raw rows — all must be clean ParseErrors.
      "banditware-state v4\n"
      "lambda 1.5\n"
      "policy epsilon-greedy\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      "banditware-state v4\n"
      "lambda 0\n"
      "policy epsilon-greedy\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      "banditware-state v4\n"
      "lambda nan\n"
      "policy epsilon-greedy\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      "banditware-state v4\n"
      "lambda 0.5\n"
      "policy epsilon-greedy\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 1\n"
      "epsilon 1\nfeatures 1 x\narms 1\n",
      "banditserver-state v5\n"
      "shards 1 sharding feature-hash seed 1 threads 0 explore 1 sync_every 0 "
      "sync_mode inline lambda -1 policy epsilon-greedy observe_batches 0 "
      "rr_counter 0\n",
      "banditserver-state v5\n"
      "shards 1 sharding feature-hash seed 1 threads 0 explore 1 sync_every 0 "
      "sync_mode inline lambda inf policy epsilon-greedy observe_batches 0 "
      "rr_counter 0\n",
      // Values the parser accepts but a constructor rejects (ε₀ > 1, decay
      // 0, a 0-cpu arm) must surface as ParseError, not InvalidArgument.
      "banditware-state v2\n"
      "epsilon0 2 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 0\ntheta 0 0\nP 1 0\nP 0 1\nend\n",
      "banditware-state v2\n"
      "epsilon0 1 decay 0 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 0\ntheta 0 0\nP 1 0\nP 0 1\nend\n",
      "banditware-state v2\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 0 8 0 stats 0\ntheta 0 0\nP 1 0\nP 0 1\nend\n",
      "banditware-state v1\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\narm H0 0 8 obs 1\n3 4\n",
      // A negative tolerance would only throw at the first decision; the
      // bank constructor rejects it at load.
      "banditware-state v2\n"
      "epsilon0 1 decay 0.99 tol_ratio -1 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 0\ntheta 0 0\nP 1 0\nP 0 1\nend\n",
      "banditware-state v2\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds -1 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 0\ntheta 0 0\nP 1 0\nP 0 1\nend\n",
      // Raw rows were only ever written for ε-greedy at λ = 1.
      "banditware-state v3\n"
      "policy linucb alpha 1\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 1\n"
      "epsilon 1\nfeatures 1 x\narms 1\narm H0 1 8 0 obs 1\n3 4\nend\n",
      // A legacy (θ, P) record whose P is not positive definite has no
      // information form: the RLS's conversion refuses it.
      "banditware-state v2\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0 exact_history 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 1\ntheta 0 0\nP 1 2\nP 2 1\nend\n",
      // Evidence whose R has a zero, negative or NaN diagonal is not a
      // factor of any information matrix.
      "banditware-state v5\nlambda 1\nridge 0\npolicy epsilon-greedy\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 1\nz 1 1\nR 0 0\nR 1\nend\n",
      "banditware-state v5\nlambda 1\nridge 0\npolicy epsilon-greedy\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 1\nz 1 1\nR 1 0\nR -1\nend\n",
      "banditware-state v5\nlambda 1\nridge 0\npolicy epsilon-greedy\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 1\nz 1 1\nR nan 0\nR 1\nend\n",
      // A ridge the RLS rejects.
      "banditware-state v5\nlambda 1\nridge -1\npolicy epsilon-greedy\n"
      "epsilon0 1 decay 0.99 tol_ratio 0 tol_seconds 0\n"
      "epsilon 1\nfeatures 1 x\narms 1\n"
      "arm H0 1 8 0 stats 0\nz 0 0\nR 1 0\nR 1\nend\n",
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    if (hostile[i].rfind("banditserver", 0) == 0) {
      EXPECT_THROW(serve::BanditServer::load_state(hostile[i]), ParseError) << i;
    } else {
      EXPECT_THROW(core::BanditWare::load_state(hostile[i]), ParseError) << i;
    }
  }
}

// ---- binary container corpus --------------------------------------------
// The same mutation engine against the packet-framed binary formats. Most
// byte damage lands in a checksummed payload, which the reader absorbs as
// a tolerant truncation — so a "clean load with info.truncated set" is as
// common an outcome here as ParseError. Both are fine; foreign exceptions,
// crashes, and bad_alloc are not.

template <typename State>
std::string binary_blob(const State& state) {
  std::ostringstream os(std::ios::binary);
  io::save_state(os, state, io::Format::kBinary);
  return os.str();
}

TEST(SnapshotFuzz, BinaryStateContainersRejectMutationsCleanly) {
  const std::vector<std::string> bandit_corpus = {
      binary_blob(trained_instance()),
      read_fixture("state_bin_v1_rows.bwb"),  // legacy 0x03 row packets
      binary_blob(trained_policy_instance(core::PolicyKind::kLinUcb)),
      binary_blob(trained_policy_instance(core::PolicyKind::kThompson)),
  };
  const std::vector<std::string> server_corpus = {
      binary_blob(trained_server()),
      binary_blob(trained_server(core::PolicyKind::kThompson)),
  };
  Rng rng(20260808);
  constexpr int kCasesPerBase = 220;
  for (std::size_t b = 0; b < bandit_corpus.size(); ++b) {
    for (int i = 0; i < kCasesPerBase; ++i) {
      std::string mutated = mutate(bandit_corpus[b], rng);
      if (rng.bernoulli(0.33)) mutated = mutate(mutated, rng);
      check_one(
          mutated,
          [](const std::string& bytes) {
            std::istringstream is(bytes, std::ios::binary);
            const core::BanditWare bandit = io::load_state(is);
            // Whatever loaded — full or truncated-tolerant — must be a
            // coherent model whose binary round trip is byte-stable.
            const std::string resaved = binary_blob(bandit);
            std::istringstream is2(resaved, std::ios::binary);
            EXPECT_EQ(binary_blob(io::load_state(is2)), resaved);
          },
          "banditware-binary", i);
    }
  }
  for (std::size_t b = 0; b < server_corpus.size(); ++b) {
    for (int i = 0; i < kCasesPerBase; ++i) {
      std::string mutated = mutate(server_corpus[b], rng);
      if (rng.bernoulli(0.33)) mutated = mutate(mutated, rng);
      check_one(
          mutated,
          [](const std::string& bytes) {
            std::istringstream is(bytes, std::ios::binary);
            serve::BanditServer server = io::load_server_state(is);
            const std::string resaved = binary_blob(server);
            std::istringstream is2(resaved, std::ios::binary);
            EXPECT_EQ(binary_blob(io::load_server_state(is2)), resaved);
          },
          "banditserver-binary", i);
    }
  }
}

TEST(SnapshotFuzz, RunTableContainersRejectMutationsCleanly) {
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  linalg::Matrix features(12, 2);
  linalg::Matrix runtimes(12, catalog.size());
  for (std::size_t g = 0; g < 12; ++g) {
    features(g, 0) = 20.0 + 3.0 * static_cast<double>(g);
    features(g, 1) = 4.0 + static_cast<double>(g % 3);
    for (std::size_t a = 0; a < catalog.size(); ++a) {
      runtimes(g, a) = 2.0 + features(g, 0) / catalog[a].cpus;
    }
  }
  const core::RunTable table({"num_tasks", "mem_req"}, std::move(features),
                             std::move(runtimes), catalog);
  std::ostringstream os(std::ios::binary);
  io::write_run_table(os, table);
  const std::string base = os.str();

  Rng rng(20260809);
  for (int i = 0; i < 330; ++i) {
    std::string mutated = mutate(base, rng);
    if (rng.bernoulli(0.33)) mutated = mutate(mutated, rng);
    check_one(
        mutated,
        [](const std::string& bytes) {
          std::istringstream is(bytes, std::ios::binary);
          const core::RunTable loaded = io::read_run_table(is);
          // Any table that loads is valid by construction (finite values,
          // >= 1 row); its own round trip must be byte-stable.
          std::ostringstream out(std::ios::binary);
          io::write_run_table(out, loaded);
          std::istringstream is2(out.str(), std::ios::binary);
          std::ostringstream out2(std::ios::binary);
          io::write_run_table(out2, io::read_run_table(is2));
          EXPECT_EQ(out2.str(), out.str());
        },
        "run-table", i);
  }
}

// ---- fleet wire corpus ---------------------------------------------------
// The gossip delta (kind 4) and node snapshot (kind 5) under the same
// mutation engine, plus directed hostile packets against every bounded
// count in the fleet readers. Deltas that survive a mutation are also
// pushed through the semantic apply path of a live FleetNode — whatever
// the wire layer tolerated must fold cleanly or reject with a typed error,
// never corrupt the receiver.

/// A fleet node with a deterministic local stream. All nodes built here
/// share one config envelope so their deltas fuse into each other.
fleet::FleetNode trained_fleet_node(std::uint32_t node_id, core::PolicyKind kind,
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
  fleet::FleetNode node(hw::ndp_catalog(), {"num_tasks"}, config);
  std::vector<serve::ServeObservation> observations;
  for (int i = 0; i < 8; ++i) {
    const double tasks = 20.0 + 5.0 * i + 3.0 * node_id;
    observations.push_back(
        {0, static_cast<core::ArmIndex>(i % 3), {tasks}, 4.0 + tasks / 16.0});
  }
  node.observe_batch(observations);
  return node;
}

/// A delta carrying TWO origin streams (the sender's own plus one learned
/// via gossip) and a version vector — the richest kind-4 shape.
std::string fleet_delta_bytes(core::PolicyKind kind, double forgetting) {
  fleet::FleetNode a = trained_fleet_node(0, kind, forgetting);
  fleet::FleetNode b = trained_fleet_node(1, kind, forgetting);
  b.apply_delta(io::load_fleet_delta(io::save_fleet_delta(a.make_delta(1))));
  return io::save_fleet_delta(b.make_delta(2));
}

std::string fleet_node_bytes(core::PolicyKind kind, double forgetting) {
  fleet::FleetNode a = trained_fleet_node(0, kind, forgetting);
  fleet::FleetNode b = trained_fleet_node(1, kind, forgetting);
  b.apply_delta(io::load_fleet_delta(io::save_fleet_delta(a.make_delta(1))));
  return b.save_snapshot();
}

TEST(SnapshotFuzz, FleetWireContainersRejectMutationsCleanly) {
  struct DeltaBase {
    std::string bytes;
    core::PolicyKind kind;
    double forgetting;
  };
  const std::vector<DeltaBase> delta_corpus = {
      {fleet_delta_bytes(core::PolicyKind::kEpsilonGreedy, 1.0),
       core::PolicyKind::kEpsilonGreedy, 1.0},
      {fleet_delta_bytes(core::PolicyKind::kLinUcb, 1.0), core::PolicyKind::kLinUcb,
       1.0},
      // Discounted: mutations hit the λ slot of the config envelope too.
      {fleet_delta_bytes(core::PolicyKind::kThompson, 0.5),
       core::PolicyKind::kThompson, 0.5},
  };
  const std::vector<std::string> node_corpus = {
      fleet_node_bytes(core::PolicyKind::kEpsilonGreedy, 1.0),
      fleet_node_bytes(core::PolicyKind::kLinUcb, 0.5),
  };
  Rng rng(20260810);
  constexpr int kCasesPerBase = 220;
  for (const DeltaBase& base : delta_corpus) {
    // One long-lived receiver per base: mutated-but-parseable deltas must
    // fold into it (or reject cleanly) without ever poisoning later applies.
    fleet::FleetNode receiver = trained_fleet_node(9, base.kind, base.forgetting);
    for (int i = 0; i < kCasesPerBase; ++i) {
      std::string mutated = mutate(base.bytes, rng);
      if (rng.bernoulli(0.33)) mutated = mutate(mutated, rng);
      check_one(
          mutated,
          [&receiver](const std::string& bytes) {
            bool truncated = false;
            const io::FleetDelta delta = io::load_fleet_delta(bytes, &truncated);
            // Whatever loaded — full or truncated-tolerant — must re-save
            // byte-stably...
            const std::string resaved = io::save_fleet_delta(delta);
            EXPECT_EQ(io::save_fleet_delta(io::load_fleet_delta(resaved)), resaved);
            // ...and apply cleanly: a partial apply before a typed rejection
            // is fine (replace-if-larger-n makes it harmless), corruption or
            // a foreign exception is not.
            receiver.apply_delta(delta);
          },
          "fleet-delta", i);
    }
  }
  for (const std::string& base : node_corpus) {
    for (int i = 0; i < kCasesPerBase; ++i) {
      std::string mutated = mutate(base, rng);
      if (rng.bernoulli(0.33)) mutated = mutate(mutated, rng);
      check_one(
          mutated,
          [](const std::string& bytes) {
            bool truncated = false;
            const io::FleetNodeState state = io::load_fleet_node(bytes, &truncated);
            const std::string resaved = io::save_fleet_node(state);
            EXPECT_EQ(io::save_fleet_node(io::load_fleet_node(resaved)), resaved);
            // The semantic layer on top: a restart from these bytes must
            // come up coherent or reject with a typed error (the nested
            // engine blob and the envelope are cross-checked there).
            const fleet::FleetNode node = fleet::FleetNode::restore(bytes);
            EXPECT_GE(node.incarnation(), 2u);
          },
          "fleet-node", i);
    }
  }
}

// Hand-framed fleet packets: helpers to write syntactically valid
// containers whose *contents* are hostile — every byte CRC-clean, so the
// semantic checks (not the checksum) must be what rejects them.

constexpr std::uint8_t kFzDeltaHeader = 0x30;
constexpr std::uint8_t kFzOriginBlock = 0x31;
constexpr std::uint8_t kFzVersionVector = 0x32;
constexpr std::uint8_t kFzNodeHeader = 0x40;
constexpr std::uint8_t kFzServerBlob = 0x41;
constexpr std::uint8_t kFzNodeOriginBlock = 0x42;
constexpr std::uint8_t kFzEnd = 0x7F;

std::string fleet_stream(io::PayloadKind kind,
                         const std::vector<std::pair<std::uint8_t, std::string>>&
                             packets) {
  std::ostringstream os(std::ios::binary);
  io::write_container_magic(os, kind);
  for (const auto& [type, payload] : packets) io::write_packet(os, type, payload);
  return os.str();
}

/// Header payload for 1 feature x 3 arms (dim_aug = 2) unless overridden.
std::string fleet_header_payload(std::uint8_t policy_token, double alpha,
                                 double lambda, std::uint32_t num_features = 1,
                                 std::uint32_t num_arms = 3,
                                 std::uint8_t wire_version = 1) {
  std::string p;
  io::put_u8(p, wire_version);
  io::put_u32(p, 7);  // sender / node
  io::put_u32(p, 1);  // incarnation
  io::put_u8(p, policy_token);
  io::put_f64(p, alpha);
  io::put_f64(p, 1.25);  // posterior_scale
  io::put_f64(p, 1.0);   // initial_epsilon
  io::put_f64(p, 0.99);  // decay
  io::put_f64(p, lambda);
  io::put_f64(p, 1e-3);  // ridge
  io::put_u32(p, num_features);
  io::put_u32(p, num_arms);
  return p;
}

constexpr std::uint8_t kFzEps =
    static_cast<std::uint8_t>(core::PolicyKind::kEpsilonGreedy);

/// One wire-v1 (arm, n, θ, P) entry for dim_aug = 2 (1 feature +
/// intercept).
std::string fleet_arm_entry(std::uint32_t arm, std::uint64_t n, double value) {
  std::string p;
  io::put_u32(p, arm);
  io::put_u64(p, n);
  io::put_f64(p, value);  // theta[0]
  io::put_f64(p, value);  // theta[1]
  io::put_f64(p, value);  // P(0,0)
  io::put_f64(p, 0.0);    // P(0,1)
  io::put_f64(p, 0.0);    // P(1,0)
  io::put_f64(p, value);  // P(1,1)
  return p;
}

/// One wire-v2 (arm, n, R, z) entry for dim_aug = 2: R = diag(d, d),
/// z = (1, 1).
std::string fleet_evidence_entry(std::uint32_t arm, std::uint64_t n, double diagonal) {
  std::string p;
  io::put_u32(p, arm);
  io::put_u64(p, n);
  io::put_f64(p, diagonal);  // R(0,0)
  io::put_f64(p, 0.0);       // R(0,1)
  io::put_f64(p, diagonal);  // R(1,1)
  io::put_f64(p, 1.0);       // z[0]
  io::put_f64(p, 1.0);       // z[1]
  return p;
}

std::string fleet_origin_payload(std::uint32_t node, std::uint32_t incarnation,
                                 std::uint32_t claimed_count,
                                 const std::string& entries) {
  std::string p;
  io::put_u32(p, node);
  io::put_u32(p, incarnation);
  io::put_u32(p, claimed_count);
  p += entries;
  return p;
}

std::string fleet_end_payload(std::uint64_t count) {
  std::string p;
  io::put_u64(p, count);
  return p;
}

TEST(SnapshotFuzz, HostileFleetPacketsFailWithoutAllocating) {
  const std::string header = fleet_header_payload(kFzEps, 1.5, 1.0);
  const std::string good_origin =
      fleet_origin_payload(2, 1, 1, fleet_arm_entry(0, 4, 2.0));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  using Packets = std::vector<std::pair<std::uint8_t, std::string>>;
  const std::vector<Packets> hostile_deltas = {
      // Stitched messages: duplicate header / duplicate origin block.
      {{kFzDeltaHeader, header}, {kFzDeltaHeader, header}},
      {{kFzDeltaHeader, header},
       {kFzOriginBlock, good_origin},
       {kFzOriginBlock, good_origin},
       {kFzEnd, fleet_end_payload(2)}},
      // Body packets ahead of the header they depend on.
      {{kFzOriginBlock, good_origin}},
      {{kFzVersionVector, std::string(4, '\0')}},
      {{kFzEnd, fleet_end_payload(0)}},
      // Unknown wire version / policy token; λ outside (0, 1]; non-finite
      // scalar; shape counts out of range.
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 1.0, 1, 3, 9)}},
      {{kFzDeltaHeader, fleet_header_payload(99, 1.5, 1.0)}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 0.0)}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 1.5)}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, nan, 1.0)}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 1.0, 1, 0)}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 1.0, 1, 5000)}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 1.0, 600, 3)}},
      // Origin block pathologies: hostile entry count vs. actual bytes,
      // count above the arm count, unknown arm, duplicate arm, n = 0,
      // n above the per-arm ceiling, non-finite statistics.
      {{kFzDeltaHeader, header},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 2, fleet_arm_entry(0, 4, 2.0))}},
      {{kFzDeltaHeader, header},
       {kFzOriginBlock,
        fleet_origin_payload(2, 1, 4,
                             fleet_arm_entry(0, 4, 2.0) + fleet_arm_entry(1, 4, 2.0) +
                                 fleet_arm_entry(2, 4, 2.0) +
                                 fleet_arm_entry(0, 5, 2.0))}},
      {{kFzDeltaHeader, header},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 1, fleet_arm_entry(3, 4, 2.0))}},
      {{kFzDeltaHeader, header},
       {kFzOriginBlock,
        fleet_origin_payload(2, 1, 2,
                             fleet_arm_entry(0, 4, 2.0) +
                                 fleet_arm_entry(0, 5, 2.0))}},
      {{kFzDeltaHeader, header},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 1, fleet_arm_entry(0, 0, 2.0))}},
      {{kFzDeltaHeader, header},
       {kFzOriginBlock,
        fleet_origin_payload(2, 1, 1, fleet_arm_entry(0, 200'000'000, 2.0))}},
      {{kFzDeltaHeader, header},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 1, fleet_arm_entry(0, 4, inf))}},
      {{kFzDeltaHeader, header},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 1, fleet_arm_entry(0, 4, nan))}},
      // A version-1 P that is not positive definite; version-2 evidence
      // whose R has a zero, negative or NaN diagonal.
      {{kFzDeltaHeader, header},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 1, fleet_arm_entry(0, 4, -2.0))}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 1.0, 1, 3, 2)},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 1, fleet_evidence_entry(0, 4, 0.0))}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 1.0, 1, 3, 2)},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 1, fleet_evidence_entry(0, 4, -1.0))}},
      {{kFzDeltaHeader, fleet_header_payload(kFzEps, 1.5, 1.0, 1, 3, 2)},
       {kFzOriginBlock, fleet_origin_payload(2, 1, 1, fleet_evidence_entry(0, 4, nan))}},
      // Version-vector pathologies: hostile origin count with no bytes
      // behind it, truncated entry bytes, duplicate origin, per-arm count
      // above the ceiling, duplicate vv packet.
      {{kFzDeltaHeader, header},
       {kFzVersionVector,
        [] {
          std::string p;
          io::put_u32(p, 0xFFFFFFFFu);
          return p;
        }()}},
      {{kFzDeltaHeader, header},
       {kFzVersionVector,
        [] {
          std::string p;
          io::put_u32(p, 2);  // claims 2 entries, carries 1
          io::put_u32(p, 0);
          io::put_u32(p, 1);
          for (int arm = 0; arm < 3; ++arm) io::put_u64(p, 4);
          return p;
        }()}},
      {{kFzDeltaHeader, header},
       {kFzVersionVector,
        [] {
          std::string p;
          io::put_u32(p, 2);
          for (int rep = 0; rep < 2; ++rep) {
            io::put_u32(p, 0);
            io::put_u32(p, 1);
            for (int arm = 0; arm < 3; ++arm) io::put_u64(p, 4);
          }
          return p;
        }()}},
      {{kFzDeltaHeader, header},
       {kFzVersionVector,
        [] {
          std::string p;
          io::put_u32(p, 1);
          io::put_u32(p, 0);
          io::put_u32(p, 1);
          for (int arm = 0; arm < 3; ++arm) io::put_u64(p, 200'000'000);
          return p;
        }()}},
      {{kFzDeltaHeader, header},
       {kFzVersionVector, std::string(4, '\0')},
       {kFzVersionVector, std::string(4, '\0')}},
      // End-sentinel pathologies: wrong origin count, data after the end.
      {{kFzDeltaHeader, header}, {kFzEnd, fleet_end_payload(3)}},
      {{kFzDeltaHeader, header},
       {kFzEnd, fleet_end_payload(0)},
       {kFzOriginBlock, good_origin}},
  };
  for (std::size_t i = 0; i < hostile_deltas.size(); ++i) {
    const std::string bytes =
        fleet_stream(io::PayloadKind::kFleetDelta, hostile_deltas[i]);
    EXPECT_THROW(io::load_fleet_delta(bytes), ParseError) << "delta case " << i;
  }

  const std::vector<Packets> hostile_nodes = {
      // Engine blob is mandatory; so is exactly one of it.
      {{kFzNodeHeader, header}, {kFzEnd, fleet_end_payload(0)}},
      {{kFzNodeHeader, header},
       {kFzServerBlob, "blob"},
       {kFzServerBlob, "blob"},
       {kFzEnd, fleet_end_payload(2)}},
      {{kFzServerBlob, "blob"}},
      // Stitched snapshot: duplicate header / duplicate origin / data after
      // the end sentinel / end count that omits the blob.
      {{kFzNodeHeader, header}, {kFzNodeHeader, header}},
      {{kFzNodeHeader, header},
       {kFzServerBlob, "blob"},
       {kFzNodeOriginBlock, good_origin},
       {kFzNodeOriginBlock, good_origin},
       {kFzEnd, fleet_end_payload(3)}},
      {{kFzNodeHeader, header},
       {kFzServerBlob, "blob"},
       {kFzEnd, fleet_end_payload(1)},
       {kFzServerBlob, "blob"}},
      {{kFzNodeHeader, header},
       {kFzServerBlob, "blob"},
       {kFzEnd, fleet_end_payload(0)}},
  };
  for (std::size_t i = 0; i < hostile_nodes.size(); ++i) {
    const std::string bytes =
        fleet_stream(io::PayloadKind::kFleetNode, hostile_nodes[i]);
    EXPECT_THROW(io::load_fleet_node(bytes), ParseError) << "node case " << i;
  }

  // Kind cross-feeding and headerless tears are hard errors too: a delta
  // stream is not a snapshot, and a stream torn before its header carries
  // nothing applicable.
  const std::string delta = fleet_delta_bytes(core::PolicyKind::kEpsilonGreedy, 1.0);
  const std::string node = fleet_node_bytes(core::PolicyKind::kEpsilonGreedy, 1.0);
  EXPECT_THROW(io::load_fleet_node(delta), ParseError);
  EXPECT_THROW(io::load_fleet_delta(node), ParseError);
  EXPECT_THROW(io::load_fleet_delta(delta.substr(0, 12)), ParseError);
  EXPECT_THROW(io::load_fleet_node(node.substr(0, 12)), ParseError);
}

}  // namespace
}  // namespace bw
