// bench_serve_throughput — decisions/sec of the sharded serving engine as a
// function of shard count (1/2/4/8) and batch size. Self-timed with
// std::chrono (no google-benchmark dependency) so it runs anywhere the
// library builds; each timed cell replays the same deterministic stream of
// recommend_batch + observe_batch pairs.
//
//   ./bench/bench_serve_throughput [--decisions=20000] [--batches=1,64,256]
//       [--workload=train|read-heavy|read-scaling|sync|async-sync|drift|fleet|decide]
//       [--read-frac=0.9] [--clients=4] [--arrival-rate=0] [--min-scaling=0]
//       [--sync-every=1] [--nodes=1,2,4] [--max-regret-ratio=0]
//       [--max-p99-ratio=0] [--policy=epsilon-greedy|linucb|thompson]
//       [--alpha=1] [--posterior-scale=1] [--lambda=1]
//       [--max-post-shift-regret-ratio=0] [--arms=8,64,512]
//       [--min-decide-speedup=0] [--json=BENCH_serve_throughput.json]
//
// --policy swaps the learning policy in every cell (baselines included) and
// is recorded in the BENCH json, so the sync-regret gates apply per policy:
// the CI perf-smoke job runs the sync workload for both epsilon-greedy and
// linucb against the same 1.1x bar.
//
// Workloads:
//   * train       — the original 1:1 recommend/observe loop (exploring
//     learner). Shards gain both from pool concurrency and from each
//     replica seeing a 1/N slice of the stream.
//   * read-heavy  — production serving: pure-exploitation recommends from
//     `clients` concurrent threads with a `read-frac` read/write mix.
//     Reads load the published snapshot, so concurrent recommend batches
//     to the *same* shard never contend on anything.
//   * read-scaling — the lock-free read path under a client-thread sweep
//     (--clients takes a list here, e.g. 1,2,4,8,16). Each client issues
//     single pure-exploitation recommends and records per-call latency;
//     the cell reports recommends/s plus recommend p50/p99/p999. Two
//     generator modes: closed-loop (--arrival-rate=0, the default — each
//     client fires its next recommend as soon as the previous returns,
//     measuring peak throughput) and open-loop (--arrival-rate=R>0 —
//     arrivals follow a deterministic Poisson process at R recommends/s
//     total across clients, and latency is measured from the *scheduled*
//     arrival, so queueing delay counts; this is the production view of
//     tail latency, immune to coordinated omission). A background writer
//     thread keeps observes flowing so reads race real republishes. The
//     timed window opens at a barrier once every client holds its context
//     pool and reserved latency buffer, so thread start-up is not timed.
//     --min-scaling=S (0 = report only) exits nonzero if the largest
//     client count's closed-loop throughput is below S x the first client
//     count's, with S clamped to 0.75 x hardware_concurrency so the gate
//     asks only for scaling the host can physically deliver (a 16-client
//     4x target is unreachable on a 1-core container).
//   * sync        — statistical quality of round-robin sharding: mean
//     regret per decision with and without cross-shard sync, against the
//     1-shard baseline. Round-robin shows each replica only 1/N of the
//     stream, so unsynced regret grows with N; with sync_shards() folding
//     the replicas' sufficient statistics together every --sync-every
//     batches, every round starts from the model a single learner would
//     have, and regret approaches the 1-shard baseline.
//     --max-regret-ratio=R (0 = report only) exits nonzero if a synced
//     cell's mean regret exceeds R x the 1-shard baseline of its batch
//     size — the CI acceptance gate. Decisions are deterministic for a
//     fixed seed, so the gate is stable.
//   * async-sync   — observe-path latency while fusion is in flight: per
//     observe_batch wall time (p50/p99) for three variants per shard
//     count — sync off (baseline), inline sync_every=K (the whole fleet
//     stalls on fusion inside observe_batch), async sync_every=K (the
//     background fuser runs the same algebra off the hot path; observes
//     only wait for their own shard's short publish swap). Also tracks
//     mean regret so the latency win is not bought with staleness.
//     Gates: --max-p99-ratio=R fails if the async cell's observe p99
//     exceeds R x the sync-off baseline at the same shard count;
//     --max-regret-ratio=R fails if the async cell's regret exceeds R x
//     the 1-shard baseline.
//   * drift        — nonstationary workloads: the synthetic runtime model
//     shifts halfway through the run (abrupt: the cpu axis flips in one
//     step; gradual: the same flip blended linearly over the second half;
//     churn: the pre-shift best arm alone turns pathological) and every
//     policy is run twice — undiscounted (lambda=1) and with a forgetting
//     factor (--lambda, or 0.98 when --lambda is left at 1). The cell
//     reports mean regret over the whole run and over the post-shift half
//     separately; the discounted learner should recover faster.
//     --max-post-shift-regret-ratio=R (0 = report only) fails if the
//     discounted cell's post-shift regret exceeds R x its undiscounted
//     twin for epsilon-greedy or linucb (Thompson is reported unguarded:
//     posterior sampling adds variance the deterministic gate would
//     punish unfairly). Decisions are deterministic for a fixed seed.
//   * fleet       — statistical quality of multi-node gossip (src/fleet/):
//     N independent FleetNodes split one decision stream round-robin and
//     gossip sufficient-statistic deltas along a ring (both directions,
//     over the real wire codec) every --sync-every batches. Without
//     gossip each node learns from a 1/N slice; with it, evidence fuses
//     fleet-wide and mean regret approaches the 1-node baseline — the
//     distributed analogue of the sync workload, one level up.
//     --max-regret-ratio=R (0 = report only) exits nonzero if a gossiped
//     cell's mean regret exceeds R x the 1-node baseline of its batch
//     size — the CI fleet acceptance gate (4-node bar: 1.2x).
//   * decide      — the decision kernel in isolation: a single-shard
//     pure-exploitation engine on a synthetic catalog of --arms arms
//     (sweeps every entry; default 8,64,512), timed on decisions only.
//     Three modes per arm count: scalar (the per-node pointer-chase
//     reference: one heap-allocated linalg::LinearModel per arm, built
//     from the snapshot's plane columns before the clock starts, scored by
//     LinearModel::predict and then tolerant_select), vector (one
//     score_block pass over the snapshot's coefficient plane per
//     decision), and batch (server.recommend_batch — the blocked
//     GEMM-shaped panel kernel — per --batches entry > 1). All three
//     produce byte-identical decisions (tests/test_decision_kernel.cpp);
//     this cell measures what the layout buys. --min-decide-speedup=S
//     (0 = report only) fails if a batched cell at >= 512 arms is below
//     S x the same-arms scalar decisions/s — the CI kernel gate (bar: 2x).
//
// --arms also reshapes every *other* workload when set: the first entry
// replaces the 3-arm NDP catalog with a synthetic one of that size, so the
// existing sweeps can be rerun at high arm counts.
//
// Emits machine-readable BENCH_*.json so the perf trajectory is tracked
// across PRs. Every file records the host's hardware threads and, for a
// gated run, each gate's requested and applied bar.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fleet/fleet_node.hpp"
#include "hardware/catalog.hpp"
#include "io/fleet_wire.hpp"
#include "io/state_io.hpp"
#include "linalg/lstsq.hpp"
#include "serve/bandit_server.hpp"

namespace {

constexpr std::size_t kNumFeatures = 7;

/// --state-out: when set, every cell snapshots its trained engine through
/// the io layer (last cell wins) — the bench doubles as a generator of
/// realistic serve-scale state files.
struct SnapshotChoice {
  std::string path;
  bw::io::Format format = bw::io::Format::kAuto;
};
SnapshotChoice g_snapshot;

void maybe_snapshot(const bw::serve::BanditServer& server) {
  if (g_snapshot.path.empty()) return;
  std::ofstream out(g_snapshot.path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", g_snapshot.path.c_str());
    return;
  }
  bw::io::save_state(out, server, g_snapshot.format);
}

/// Policy under test (--policy / --alpha / --posterior-scale), applied to
/// every cell so baselines and gated cells always compare like for like.
struct PolicyChoice {
  bw::core::PolicyKind kind = bw::core::PolicyKind::kEpsilonGreedy;
  double alpha = 1.0;
  double posterior_scale = 1.0;
  double lambda = 1.0;  ///< RLS forgetting factor (1 = no discounting)
};
PolicyChoice g_policy;

void apply_policy(bw::serve::BanditServerConfig& config) {
  config.bandit.policy_kind = g_policy.kind;
  config.bandit.alpha = g_policy.alpha;
  config.bandit.posterior_scale = g_policy.posterior_scale;
  config.bandit.policy.fit.forgetting = g_policy.lambda;
}

bw::core::FeatureVector random_features(bw::Rng& rng) {
  bw::core::FeatureVector x(kNumFeatures);
  for (double& v : x) v = rng.uniform(1.0, 10.0);
  return x;
}

double synthetic_runtime(const bw::hw::HardwareSpec& spec,
                         const bw::core::FeatureVector& x) {
  double load = 0.0;
  for (double v : x) load += v;
  return 5.0 + load / spec.cpus;
}

std::vector<std::string> feature_names() {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    names.push_back(std::string("f").append(std::to_string(i)));
  }
  return names;
}

/// --arms sizes; empty = the workload's defaults (decide: 8,64,512 sweep,
/// everything else: the 3-arm NDP catalog).
std::vector<std::size_t> g_arms;

/// A deterministic `arms`-sized catalog with enough cpu/memory spread that
/// synthetic_runtime separates the arms and the resource costs are not all
/// tied. cpus cycle 1..64, so mod-64-equal arms are true runtime ties and
/// the tolerant cost tie-break stays exercised at high arm counts.
bw::hw::HardwareCatalog synthetic_catalog(std::size_t arms) {
  bw::hw::HardwareCatalog catalog;
  for (std::size_t i = 0; i < arms; ++i) {
    bw::hw::HardwareSpec spec;
    spec.name = std::string("S").append(std::to_string(i));
    spec.cpus = static_cast<int>(1 + i % 64);
    spec.memory_gb = static_cast<double>(8 * (1 + i % 32));
    catalog.add(std::move(spec));
  }
  return catalog;
}

/// The catalog every non-decide cell serves: NDP unless --arms resized it.
bw::hw::HardwareCatalog bench_catalog() {
  return g_arms.empty() ? bw::hw::ndp_catalog() : synthetic_catalog(g_arms.front());
}

struct CellResult {
  std::size_t shards = 0;
  std::size_t batch = 0;
  double seconds = 0.0;
  double decisions_per_s = 0.0;
  // sync / async-sync workloads only:
  std::size_t sync_every = 0;      ///< 0 = no cross-shard sync
  double mean_regret_s = -1.0;     ///< chosen minus best runtime, averaged
  double greedy_regret_s = -1.0;   ///< same, over non-explored decisions only
  // async-sync workload only:
  std::string sync_mode;           ///< "off" | "inline" | "async"
  double observe_p50_ms = -1.0;    ///< per observe_batch call wall time
  double observe_p99_ms = -1.0;
  // read-scaling workload only:
  std::size_t clients = 0;          ///< 0 = not a read-scaling cell
  double arrival_rate = 0.0;        ///< recommends/s across clients; 0 = closed
  double recommend_p50_us = -1.0;   ///< per recommend_one call wall time
  double recommend_p99_us = -1.0;
  double recommend_p999_us = -1.0;
  // drift workload only:
  std::string scenario;             ///< "abrupt" | "gradual" | "churn"
  std::string policy;               ///< drift runs every policy per scenario
  double lambda = 1.0;              ///< forgetting factor of this cell
  double post_shift_regret_s = -1.0;  ///< mean regret after the midpoint shift
  // fleet workload only:
  std::size_t nodes = 0;            ///< 0 = not a fleet cell
  // decide workload only:
  std::size_t catalog_arms = 0;     ///< 0 = not a decide cell
  std::string decide_mode;          ///< "scalar" | "vector" | "batch"
  double kernel_speedup = 0.0;      ///< decisions/s vs the same-arms scalar cell
};

double percentile_ms(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * (sorted_us.size() - 1));
  return sorted_us[rank] / 1000.0;
}

CellResult run_train_cell(std::size_t shards, std::size_t batch,
                          std::size_t decisions) {
  bw::serve::BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = bw::serve::ShardingPolicy::kFeatureHash;
  config.seed = 42;
  apply_policy(config);
  bw::serve::BanditServer server(bench_catalog(), feature_names(), config);

  bw::Rng rng(11);
  const auto start = std::chrono::steady_clock::now();
  std::size_t served = 0;
  while (served < decisions) {
    const std::size_t n = std::min(batch, decisions - served);
    std::vector<bw::core::FeatureVector> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) xs.push_back(random_features(rng));
    const auto batch_decisions = server.recommend_batch(xs);
    std::vector<bw::serve::ServeObservation> observations;
    observations.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      observations.push_back({batch_decisions[i].shard, batch_decisions[i].arm, xs[i],
                              synthetic_runtime(*batch_decisions[i].spec, xs[i])});
    }
    server.observe_batch(observations);
    served += n;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  maybe_snapshot(server);

  CellResult result;
  result.shards = shards;
  result.batch = batch;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.decisions_per_s = static_cast<double>(served) / result.seconds;
  return result;
}

CellResult run_sync_cell(std::size_t shards, std::size_t batch, std::size_t decisions,
                         std::size_t sync_every) {
  bw::serve::BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = bw::serve::ShardingPolicy::kRoundRobin;
  config.seed = 42;
  config.sync_every = sync_every;
  apply_policy(config);
  const bw::hw::HardwareCatalog catalog = bench_catalog();
  bw::serve::BanditServer server(catalog, feature_names(), config);

  bw::Rng rng(11);
  const auto start = std::chrono::steady_clock::now();
  std::size_t served = 0;
  double regret = 0.0;
  double greedy_regret = 0.0;
  std::size_t greedy = 0;
  while (served < decisions) {
    const std::size_t n = std::min(batch, decisions - served);
    std::vector<bw::core::FeatureVector> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) xs.push_back(random_features(rng));
    const auto batch_decisions = server.recommend_batch(xs);
    std::vector<bw::serve::ServeObservation> observations;
    observations.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double runtime = synthetic_runtime(*batch_decisions[i].spec, xs[i]);
      double best = runtime;
      for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
        best = std::min(best, synthetic_runtime(catalog[arm], xs[i]));
      }
      regret += runtime - best;
      if (!batch_decisions[i].explored) {
        greedy_regret += runtime - best;
        ++greedy;
      }
      observations.push_back(
          {batch_decisions[i].shard, batch_decisions[i].arm, xs[i], runtime});
    }
    server.observe_batch(observations);
    served += n;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  maybe_snapshot(server);

  CellResult result;
  result.shards = shards;
  result.batch = batch;
  result.sync_every = sync_every;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.decisions_per_s = static_cast<double>(served) / result.seconds;
  result.mean_regret_s = regret / static_cast<double>(served);
  result.greedy_regret_s =
      greedy > 0 ? greedy_regret / static_cast<double>(greedy) : 0.0;
  return result;
}

/// One cell of the async-sync workload: times every observe_batch call
/// individually so the p99 captures the fusion stall (inline) or its
/// absence (async). `mode` is "off" (sync_every forced to 0), "inline", or
/// "async".
CellResult run_async_sync_cell(std::size_t shards, std::size_t batch,
                               std::size_t decisions, std::size_t sync_every,
                               const std::string& mode) {
  bw::serve::BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = bw::serve::ShardingPolicy::kRoundRobin;
  config.seed = 42;
  config.sync_every = mode == "off" ? 0 : sync_every;
  config.sync_mode = mode == "async" ? bw::serve::SyncMode::kAsync
                                     : bw::serve::SyncMode::kInline;
  apply_policy(config);
  // Leave the fuser a core: with num_threads defaulting to shard count an
  // 8-shard cell spawns 8 pool threads and oversubscribes small hosts, so
  // the background fuser starves, syncs lag, and regret drifts toward the
  // unsynced curve. Cap the pool (same cap in every mode for a fair
  // comparison) at hardware_concurrency - 1.
  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  config.num_threads = std::max<std::size_t>(1, std::min(shards, hw - 1));
  const bw::hw::HardwareCatalog catalog = bench_catalog();
  bw::serve::BanditServer server(catalog, feature_names(), config);

  bw::Rng rng(11);
  std::vector<double> observe_us;
  observe_us.reserve(decisions / std::max<std::size_t>(batch, 1) + 1);
  const auto start = std::chrono::steady_clock::now();
  std::size_t served = 0;
  double regret = 0.0;
  while (served < decisions) {
    const std::size_t n = std::min(batch, decisions - served);
    std::vector<bw::core::FeatureVector> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) xs.push_back(random_features(rng));
    const auto batch_decisions = server.recommend_batch(xs);
    std::vector<bw::serve::ServeObservation> observations;
    observations.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double runtime = synthetic_runtime(*batch_decisions[i].spec, xs[i]);
      double best = runtime;
      for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
        best = std::min(best, synthetic_runtime(catalog[arm], xs[i]));
      }
      regret += runtime - best;
      observations.push_back(
          {batch_decisions[i].shard, batch_decisions[i].arm, xs[i], runtime});
    }
    const auto observe_start = std::chrono::steady_clock::now();
    server.observe_batch(observations);
    observe_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - observe_start)
                             .count());
    served += n;
  }
  server.drain_sync();  // settle the fuser before the cell ends
  const auto elapsed = std::chrono::steady_clock::now() - start;
  maybe_snapshot(server);

  std::sort(observe_us.begin(), observe_us.end());
  CellResult result;
  result.shards = shards;
  result.batch = batch;
  result.sync_every = config.sync_every;
  result.sync_mode = mode;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.decisions_per_s = static_cast<double>(served) / result.seconds;
  result.mean_regret_s = regret / static_cast<double>(served);
  result.observe_p50_ms = percentile_ms(observe_us, 0.50);
  result.observe_p99_ms = percentile_ms(observe_us, 0.99);
  return result;
}

CellResult run_read_heavy_cell(std::size_t shards, std::size_t batch,
                               std::size_t decisions, double read_frac,
                               std::size_t clients) {
  bw::serve::BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = bw::serve::ShardingPolicy::kFeatureHash;
  config.seed = 42;
  config.explore = false;  // pure exploitation: reads share the shard lock
  config.num_threads = std::max<std::size_t>(shards, clients);
  apply_policy(config);
  bw::serve::BanditServer server(bench_catalog(), feature_names(), config);

  // Pre-train every replica so the serving phase exercises fitted models.
  {
    bw::Rng rng(5);
    std::vector<bw::serve::ServeObservation> warmup;
    const bw::hw::HardwareCatalog catalog = bench_catalog();
    for (std::size_t i = 0; i < 64 * shards; ++i) {
      const auto x = random_features(rng);
      const auto arm = static_cast<bw::core::ArmIndex>(i % catalog.size());
      warmup.push_back({server.shard_of(x), arm, x,
                        synthetic_runtime(catalog[arm], x)});
    }
    server.observe_batch(warmup);
  }

  // `clients` threads issue batches concurrently; every k-th batch per
  // client is a write batch (recommend + observe feedback), the rest are
  // read-only recommends. k is derived from read_frac (0.9 -> every 10th).
  const std::size_t write_every =
      read_frac >= 1.0 ? 0
                       : std::max<std::size_t>(1, static_cast<std::size_t>(
                                                      1.0 / (1.0 - read_frac) + 0.5));
  const std::size_t per_client = (decisions + clients - 1) / clients;
  std::atomic<std::size_t> total_served{0};

  auto client_loop = [&](std::size_t client_id) {
    bw::Rng rng(100 + client_id);
    std::size_t served = 0;
    std::size_t iteration = 0;
    while (served < per_client) {
      const std::size_t n = std::min(batch, per_client - served);
      std::vector<bw::core::FeatureVector> xs;
      xs.reserve(n);
      for (std::size_t i = 0; i < n; ++i) xs.push_back(random_features(rng));
      const auto batch_decisions = server.recommend_batch(xs);
      const bool write_batch = write_every != 0 && (iteration % write_every) == 0;
      if (write_batch) {
        std::vector<bw::serve::ServeObservation> observations;
        observations.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          observations.push_back(
              {batch_decisions[i].shard, batch_decisions[i].arm, xs[i],
               synthetic_runtime(*batch_decisions[i].spec, xs[i])});
        }
        server.observe_batch(observations);
      }
      served += n;
      ++iteration;
    }
    total_served += served;
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  for (auto& thread : threads) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  maybe_snapshot(server);

  CellResult result;
  result.shards = shards;
  result.batch = batch;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.decisions_per_s =
      static_cast<double>(total_served.load()) / result.seconds;
  return result;
}

double percentile_us(const std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * (sorted_us.size() - 1));
  return sorted_us[rank];
}

/// One cell of the read-scaling workload: `clients` threads issue single
/// pure-exploitation recommends down the lock-free read path while one
/// background writer streams observes (so reads race real snapshot swaps).
/// arrival_rate == 0 runs closed-loop; > 0 runs open-loop at that many
/// recommends/s spread evenly across clients, with latency measured from
/// the scheduled arrival time (queueing delay included).
CellResult run_read_scaling_cell(std::size_t shards, std::size_t clients,
                                 std::size_t decisions, double arrival_rate) {
  using Clock = std::chrono::steady_clock;
  bw::serve::BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = bw::serve::ShardingPolicy::kFeatureHash;
  config.seed = 42;
  config.explore = false;  // reads never touch a shard lock
  config.num_threads = shards;  // pool serves only the writer's observe fan-out
  apply_policy(config);
  bw::serve::BanditServer server(bench_catalog(), feature_names(), config);
  const bw::hw::HardwareCatalog catalog = bench_catalog();

  // Pre-train every replica so the serving phase exercises fitted models.
  {
    bw::Rng rng(5);
    std::vector<bw::serve::ServeObservation> warmup;
    for (std::size_t i = 0; i < 64 * shards; ++i) {
      const auto x = random_features(rng);
      const auto arm = static_cast<bw::core::ArmIndex>(i % catalog.size());
      warmup.push_back({server.shard_of(x), arm, x, synthetic_runtime(catalog[arm], x)});
    }
    server.observe_batch(warmup);
  }

  const std::size_t per_client = (decisions + clients - 1) / clients;
  // One cache line per client: every read appends to its own buffer, and
  // neighbouring clients' vector headers must not share a line.
  struct alignas(64) ClientLatencies {
    std::vector<double> us;
  };
  std::vector<ClientLatencies> latencies(clients);
  std::atomic<std::size_t> total_served{0};
  std::atomic<bool> stop_writer{false};
  // The clock starts once every client holds its pool and reserved buffer,
  // so the timed window covers reads only, not thread start-up.
  std::barrier ready(static_cast<std::ptrdiff_t>(clients + 1));

  // Feature pools are pre-generated per client so the timed loop measures
  // the recommend, not the RNG.
  constexpr std::size_t kPoolSize = 512;
  auto make_pool = [&](std::uint64_t seed) {
    bw::Rng rng(seed);
    std::vector<bw::core::FeatureVector> pool;
    pool.reserve(kPoolSize);
    for (std::size_t i = 0; i < kPoolSize; ++i) pool.push_back(random_features(rng));
    return pool;
  };

  auto client_loop = [&](std::size_t client_id) {
    const auto pool = make_pool(100 + client_id);
    auto& lat = latencies[client_id].us;
    lat.reserve(per_client);
    ready.arrive_and_wait();
    // Open loop: exponential inter-arrival times (Poisson process) at this
    // client's share of the total rate, generated deterministically.
    const double rate = arrival_rate > 0.0 ? arrival_rate / static_cast<double>(clients)
                                           : 0.0;
    bw::Rng arrivals(900 + client_id);
    auto next_arrival = Clock::now();
    for (std::size_t i = 0; i < per_client; ++i) {
      auto issued = Clock::now();
      if (rate > 0.0) {
        const double gap_s =
            -std::log(std::max(1e-12, 1.0 - arrivals.uniform(0.0, 1.0))) / rate;
        next_arrival += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap_s));
        // Hybrid wait: sleep off the bulk of the gap, spin only the final
        // stretch. A pure spin burns a full core per client between
        // arrivals (at low rates that is almost the whole run); a pure
        // sleep overshoots by the scheduler's wake-up jitter. The slack
        // absorbs that jitter so the arrival time stays precise.
        constexpr auto kSpinSlack = std::chrono::microseconds(200);
        if (Clock::now() + kSpinSlack < next_arrival) {
          std::this_thread::sleep_until(next_arrival - kSpinSlack);
        }
        while (Clock::now() < next_arrival) {
          // spin: sleep granularity is far coarser than the remaining gap
        }
        issued = next_arrival;  // schedule time, not send time (no omission)
      }
      const auto& decision = server.recommend_one(pool[i % kPoolSize]);
      (void)decision;
      lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - issued)
                        .count());
    }
    total_served += per_client;
  };

  // Background writer: a steady trickle of observe batches forces snapshot
  // republishes, so readers exercise the swap path rather than a frozen
  // model that never changes.
  auto writer_loop = [&] {
    bw::Rng rng(7);
    while (!stop_writer.load(std::memory_order_relaxed)) {
      std::vector<bw::serve::ServeObservation> observations;
      observations.reserve(16);
      for (std::size_t i = 0; i < 16; ++i) {
        const auto x = random_features(rng);
        const auto arm = static_cast<bw::core::ArmIndex>(
            rng.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1));
        observations.push_back({server.shard_of(x), arm, x,
                                synthetic_runtime(catalog[arm], x)});
      }
      server.observe_batch(observations);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::thread writer(writer_loop);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  ready.arrive_and_wait();
  const auto start = Clock::now();
  for (auto& thread : threads) thread.join();
  stop_writer.store(true, std::memory_order_relaxed);
  writer.join();
  const auto elapsed = Clock::now() - start;
  maybe_snapshot(server);

  std::vector<double> all_us;
  all_us.reserve(decisions);
  for (const auto& lat : latencies) {
    all_us.insert(all_us.end(), lat.us.begin(), lat.us.end());
  }
  std::sort(all_us.begin(), all_us.end());

  CellResult result;
  result.shards = shards;
  result.batch = 1;
  result.clients = clients;
  result.arrival_rate = arrival_rate;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.decisions_per_s = static_cast<double>(total_served.load()) / result.seconds;
  result.recommend_p50_us = percentile_us(all_us, 0.50);
  result.recommend_p99_us = percentile_us(all_us, 0.99);
  result.recommend_p999_us = percentile_us(all_us, 0.999);
  return result;
}

/// How the synthetic runtime model drifts over a run. `t` is decision
/// progress in [0, 1); every scenario shifts at t = 0.5. `mirror_sum` is
/// min_cpus + max_cpus, so `mirror_sum - cpus` reflects the cpu axis: the
/// pre-shift best arm (most cpus) becomes the post-shift worst and vice
/// versa. `churn_arm` is the pre-shift best arm.
struct DriftModel {
  std::string scenario;
  int mirror_sum = 0;
  std::size_t churn_arm = 0;

  double runtime(const bw::hw::HardwareCatalog& catalog, std::size_t arm,
                 const bw::core::FeatureVector& x, double t) const {
    double load = 0.0;
    for (double v : x) load += v;
    const double pre = 5.0 + load / catalog[arm].cpus;
    if (t < 0.5) return pre;
    if (scenario == "churn") {
      // The churned arm alone degrades to a single-core box; the rest of
      // the fleet is stable, so the learner must discover the runner-up.
      return arm == churn_arm ? 5.0 + load : pre;
    }
    const double post = 5.0 + load / (mirror_sum - catalog[arm].cpus);
    if (scenario == "abrupt") return post;
    const double w = (t - 0.5) * 2.0;  // gradual: linear blend over the 2nd half
    return (1.0 - w) * pre + w * post;
  }
};

/// One cell of the drift workload: a single-shard learner runs decision by
/// decision against a runtime model that shifts at the midpoint. Regret is
/// tracked against the instantaneous oracle (the best arm under the model
/// as it stands at that decision), whole-run and post-shift separately.
///
/// The harness overrides 5% of decisions with a uniform-random arm — the
/// persistent excitation a discounted learner needs. Under pure greedy
/// feedback an arm's recent observations concentrate near the decision
/// boundary; with lambda < 1 the old full-rank mass decays geometrically,
/// the precision matrix goes near-singular in the unexcited directions,
/// and predictions swing chaotically (classic RLS covariance wind-up).
/// The floor is applied identically to both lambda twins, so the regret
/// comparison stays like for like; its cost shows up in both cells.
CellResult run_drift_cell(const std::string& scenario, bw::core::PolicyKind kind,
                          double lambda, std::size_t decisions) {
  bw::serve::BanditServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  config.sharding = bw::serve::ShardingPolicy::kFeatureHash;
  config.seed = 42;
  config.bandit.policy_kind = kind;
  config.bandit.alpha = g_policy.alpha;
  config.bandit.posterior_scale = g_policy.posterior_scale;
  config.bandit.policy.fit.forgetting = lambda;
  const bw::hw::HardwareCatalog catalog = bench_catalog();
  bw::serve::BanditServer server(catalog, feature_names(), config);

  DriftModel model{scenario, 0, 0};
  int min_cpus = catalog[0].cpus;
  int max_cpus = catalog[0].cpus;
  for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
    min_cpus = std::min(min_cpus, catalog[arm].cpus);
    if (catalog[arm].cpus > max_cpus) {
      max_cpus = catalog[arm].cpus;
      model.churn_arm = arm;
    }
  }
  model.mirror_sum = min_cpus + max_cpus;

  bw::Rng rng(11);
  bw::Rng excitation(77);
  constexpr double kExcitationFloor = 0.05;
  const auto start = std::chrono::steady_clock::now();
  double regret = 0.0;
  double post_regret = 0.0;
  std::size_t post = 0;
  std::vector<bw::core::FeatureVector> xs(1);
  for (std::size_t i = 0; i < decisions; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(decisions);
    xs[0] = random_features(rng);
    auto decision = server.recommend_batch(xs)[0];
    if (excitation.bernoulli(kExcitationFloor)) {
      decision.arm = static_cast<bw::core::ArmIndex>(
          excitation.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1));
    }
    const double runtime = model.runtime(catalog, decision.arm, xs[0], t);
    double best = runtime;
    for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
      best = std::min(best, model.runtime(catalog, arm, xs[0], t));
    }
    regret += runtime - best;
    if (t >= 0.5) {
      post_regret += runtime - best;
      ++post;
    }
    server.observe_batch({{decision.shard, decision.arm, xs[0], runtime}});
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  maybe_snapshot(server);

  CellResult result;
  result.shards = 1;
  result.batch = 1;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.decisions_per_s = static_cast<double>(decisions) / result.seconds;
  result.mean_regret_s = regret / static_cast<double>(decisions);
  result.scenario = scenario;
  result.policy = bw::core::to_string(kind);
  result.lambda = lambda;
  result.post_shift_regret_s =
      post > 0 ? post_regret / static_cast<double>(post) : 0.0;
  return result;
}

/// One cell of the fleet workload: `num_nodes` FleetNodes split one
/// deterministic decision stream round-robin; every `gossip_every` batches
/// the ring gossips one round (each node to both neighbours, through the
/// real wire codec — serialize, parse, apply). gossip_every == 0 disables
/// gossip, leaving each node with its 1/N slice. Regret is tracked against
/// the same oracle as the sync workload, so the N-node gossiped cell is
/// directly comparable to the 1-node baseline.
CellResult run_fleet_cell(std::size_t num_nodes, std::size_t batch,
                          std::size_t decisions, std::size_t gossip_every) {
  const bw::hw::HardwareCatalog catalog = bench_catalog();
  std::vector<bw::fleet::FleetNode> nodes;
  nodes.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    bw::fleet::FleetNodeConfig node_config;
    node_config.node_id = static_cast<std::uint32_t>(i);
    node_config.server.num_shards = 1;
    node_config.server.num_threads = 1;
    node_config.server.seed = 42 + i;  // distinct exploration streams
    apply_policy(node_config.server);
    nodes.emplace_back(catalog, feature_names(), node_config);
  }

  bw::Rng rng(11);
  const auto start = std::chrono::steady_clock::now();
  std::size_t served = 0;
  std::size_t batches = 0;
  double regret = 0.0;
  while (served < decisions) {
    bw::fleet::FleetNode& node = nodes[batches % num_nodes];
    const std::size_t n = std::min(batch, decisions - served);
    std::vector<bw::core::FeatureVector> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) xs.push_back(random_features(rng));
    const auto batch_decisions = node.recommend_batch(xs);
    std::vector<bw::serve::ServeObservation> observations;
    observations.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double runtime = synthetic_runtime(*batch_decisions[i].spec, xs[i]);
      double best = runtime;
      for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
        best = std::min(best, synthetic_runtime(catalog[arm], xs[i]));
      }
      regret += runtime - best;
      observations.push_back(
          {batch_decisions[i].shard, batch_decisions[i].arm, xs[i], runtime});
    }
    node.observe_batch(observations);
    served += n;
    ++batches;
    if (num_nodes > 1 && gossip_every > 0 && batches % gossip_every == 0) {
      // One ring round over the real wire: both directions, so evidence
      // crosses the N/2-hop diameter in N/2 rounds.
      for (std::size_t src = 0; src < num_nodes; ++src) {
        for (const std::size_t dst :
             {(src + 1) % num_nodes, (src + num_nodes - 1) % num_nodes}) {
          if (dst == src) continue;
          const std::string bytes = bw::io::save_fleet_delta(
              nodes[src].make_delta(nodes[dst].node_id()));
          nodes[dst].apply_delta(bw::io::load_fleet_delta(bytes));
        }
      }
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  CellResult result;
  result.shards = 1;
  result.batch = batch;
  result.nodes = num_nodes;
  result.sync_every = gossip_every;
  result.seconds = std::chrono::duration<double>(elapsed).count();
  result.decisions_per_s = static_cast<double>(served) / result.seconds;
  result.mean_regret_s = regret / static_cast<double>(served);
  return result;
}

/// One cell of the decide workload: a single-shard pure-exploitation engine
/// pre-trained on a synthetic `arms`-sized catalog, then timed on decisions
/// only (no observes, so the cell isolates the scoring pass). Modes:
///   * scalar — the per-node pointer-chase reference: one heap-allocated
///     LinearModel per arm, rebuilt from the snapshot's plane columns
///     before the clock starts; per context, LinearModel::predict per node
///     and then tolerant_select;
///   * vector — FrozenModel::recommend_choice per context (one
///     score_block pass over the snapshot's coefficient plane);
///   * batch  — server.recommend_batch with `batch` contexts per call (the
///     blocked GEMM-shaped panel kernel, shard routing included).
CellResult run_decide_cell(std::size_t arms, const std::string& mode,
                           std::size_t batch, std::size_t decisions) {
  bw::serve::BanditServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  config.sharding = bw::serve::ShardingPolicy::kFeatureHash;
  config.seed = 42;
  config.explore = false;
  apply_policy(config);
  const bw::hw::HardwareCatalog catalog = synthetic_catalog(arms);
  bw::serve::BanditServer server(catalog, feature_names(), config);

  // Pre-train two observations per arm so every column of the frozen
  // plane carries a fitted model; chunked into 512-observation batches.
  {
    bw::Rng rng(5);
    std::vector<bw::serve::ServeObservation> warmup;
    for (std::size_t pass = 0; pass < 2; ++pass) {
      for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
        const auto x = random_features(rng);
        warmup.push_back({server.shard_of(x), static_cast<bw::core::ArmIndex>(arm),
                          x, synthetic_runtime(catalog[arm], x)});
        if (warmup.size() >= 512) {
          server.observe_batch(warmup);
          warmup.clear();
        }
      }
    }
    if (!warmup.empty()) server.observe_batch(warmup);
  }

  // The feature pool is pre-generated so the timed loop measures the
  // decision pass, not the RNG.
  constexpr std::size_t kPoolSize = 512;
  bw::Rng rng(11);
  std::vector<bw::core::FeatureVector> pool;
  pool.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) pool.push_back(random_features(rng));

  // Batch panels are also pre-built: copying B heap-backed FeatureVectors
  // into the request vector per call is harness cost, not serving cost, and
  // at 64-context batches it was large enough to mask the kernel.
  std::vector<std::vector<bw::core::FeatureVector>> panels;
  if (mode == "batch") {
    const std::size_t num_panels = (kPoolSize + batch - 1) / batch + 1;
    panels.resize(num_panels);
    std::size_t cursor = 0;
    for (auto& panel : panels) {
      panel.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        panel.push_back(pool[cursor++ % kPoolSize]);
      }
    }
  }

  // The scalar mode's heap nodes, one per arm, in arm order: the
  // pointer-chase baseline the plane layout is gated against.
  const auto model = server.published_model(0);
  std::vector<std::shared_ptr<const bw::linalg::LinearModel>> nodes;
  std::vector<double> node_scores;
  if (mode == "scalar") {
    for (bw::core::ArmIndex arm = 0; arm < model->num_arms(); ++arm) {
      const std::vector<double> row = model->weight_row(arm);
      bw::linalg::LinearModel node;
      node.weights.assign(row.begin(), row.end() - 1);
      node.bias = row.back();
      nodes.push_back(std::make_shared<const bw::linalg::LinearModel>(std::move(node)));
    }
    node_scores.resize(nodes.size());
  }

  // Best of 3 timed reps: the decide gate compares two sub-second cells, so
  // one scheduler hiccup in either leg can swing the ratio past the bar.
  // Taking each leg's fastest rep measures the kernel, not the interference.
  constexpr int kReps = 3;
  double best_seconds = 0.0;
  std::size_t best_served = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::size_t served = 0;
    const auto start = std::chrono::steady_clock::now();
    if (mode == "batch") {
      std::size_t next_panel = 0;
      while (served < decisions) {
        const auto& xs = panels[next_panel];
        next_panel = (next_panel + 1) % panels.size();
        served += server.recommend_batch(xs).size();
      }
    } else if (mode == "scalar") {
      for (; served < decisions; ++served) {
        const auto& x = pool[served % kPoolSize];
        for (std::size_t arm = 0; arm < nodes.size(); ++arm) {
          node_scores[arm] = nodes[arm]->predict(x);
        }
        const auto choice = bw::core::tolerant_select(
            node_scores, *model->shared_resource_costs(), model->tolerance());
        (void)choice;
      }
    } else {
      for (; served < decisions; ++served) {
        const auto choice = model->recommend_choice(pool[served % kPoolSize]);
        (void)choice;
      }
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double seconds = std::chrono::duration<double>(elapsed).count();
    if (rep == 0 || seconds * static_cast<double>(best_served) <
                        best_seconds * static_cast<double>(served)) {
      best_seconds = seconds;
      best_served = served;
    }
  }
  maybe_snapshot(server);

  CellResult result;
  result.shards = 1;
  result.batch = mode == "batch" ? batch : 1;
  result.catalog_arms = arms;
  result.decide_mode = mode;
  result.seconds = best_seconds;
  result.decisions_per_s = static_cast<double>(best_served) / best_seconds;
  return result;
}

/// One CI gate of a run: the bar its flag asked for and the bar the run
/// enforced (they differ only where a gate clamps to the host; 0 = the gate
/// did not apply on this run).
struct GateBar {
  std::string flag;
  double requested = 0.0;
  double applied = 0.0;
};

void write_json(const std::string& path, const std::string& workload,
                double read_frac, std::size_t clients,
                const std::vector<GateBar>& gates,
                const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serve_throughput\",\n  \"workload\": \"%s\",\n"
               "  \"policy\": \"%s\",\n  \"hardware_threads\": %u,\n"
               "  \"read_frac\": %.2f,\n  \"clients\": %zu,\n  \"gates\": [",
               workload.c_str(), bw::core::to_string(g_policy.kind).c_str(),
               std::thread::hardware_concurrency(), read_frac, clients);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    std::fprintf(f, "%s{\"flag\": \"%s\", \"requested\": %.4f, \"applied\": %.4f}",
                 i == 0 ? "" : ", ", gates[i].flag.c_str(), gates[i].requested,
                 gates[i].applied);
  }
  std::fprintf(f, "],\n  \"results\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"batch\": %zu, \"seconds\": %.4f, "
                 "\"decisions_per_s\": %.1f",
                 cell.shards, cell.batch, cell.seconds, cell.decisions_per_s);
    if (cell.mean_regret_s >= 0.0) {
      std::fprintf(f, ", \"sync_every\": %zu, \"mean_regret_s\": %.6f",
                   cell.sync_every, cell.mean_regret_s);
    }
    if (cell.greedy_regret_s >= 0.0) {
      std::fprintf(f, ", \"greedy_regret_s\": %.6f", cell.greedy_regret_s);
    }
    if (!cell.sync_mode.empty()) {
      std::fprintf(f,
                   ", \"sync_mode\": \"%s\", \"observe_p50_ms\": %.4f, "
                   "\"observe_p99_ms\": %.4f",
                   cell.sync_mode.c_str(), cell.observe_p50_ms, cell.observe_p99_ms);
    }
    if (cell.clients > 0) {
      std::fprintf(f,
                   ", \"clients\": %zu, \"arrival_rate\": %.1f, "
                   "\"recommend_p50_us\": %.3f, \"recommend_p99_us\": %.3f, "
                   "\"recommend_p999_us\": %.3f",
                   cell.clients, cell.arrival_rate, cell.recommend_p50_us,
                   cell.recommend_p99_us, cell.recommend_p999_us);
    }
    if (!cell.scenario.empty()) {
      std::fprintf(f,
                   ", \"scenario\": \"%s\", \"policy\": \"%s\", \"lambda\": %.4f, "
                   "\"post_shift_regret_s\": %.6f",
                   cell.scenario.c_str(), cell.policy.c_str(), cell.lambda,
                   cell.post_shift_regret_s);
    }
    if (cell.nodes > 0) {
      std::fprintf(f, ", \"nodes\": %zu", cell.nodes);
    }
    if (cell.catalog_arms > 0) {
      std::fprintf(f,
                   ", \"arms\": %zu, \"decide_mode\": \"%s\", "
                   "\"kernel_speedup\": %.2f",
                   cell.catalog_arms, cell.decide_mode.c_str(), cell.kernel_speedup);
    }
    std::fprintf(f, "}%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

int run(int argc, char** argv) {
  bw::CliParser cli("serving-engine throughput: decisions/sec vs shards x batch");
  cli.add_flag("decisions", "20000", "decisions per timed cell");
  cli.add_flag("shards", "1,2,4,8", "shard counts to sweep");
  cli.add_flag("batches", "1,64,256", "batch sizes to sweep");
  cli.add_flag("workload", "train",
               "train (1:1 learn loop), read-heavy, read-scaling, sync, "
               "async-sync, drift, or fleet");
  cli.add_flag("nodes", "1,2,4",
               "fleet sizes to sweep (fleet workload); gossip rides the "
               "--sync-every cadence");
  cli.add_flag("policy", "epsilon-greedy",
               "learning policy for every cell: epsilon-greedy | linucb | thompson");
  cli.add_flag("alpha", "1.0", "linucb confidence width (policy=linucb)");
  cli.add_flag("posterior-scale", "1.0",
               "thompson sampling scale v (policy=thompson)");
  cli.add_flag("lambda", "1.0",
               "RLS forgetting factor in (0, 1] applied to every cell; the "
               "drift workload compares lambda=1 against this value (0.98 "
               "when left at 1)");
  cli.add_flag("max-post-shift-regret-ratio", "0",
               "fail if a discounted drift cell's post-shift regret exceeds "
               "this x its undiscounted twin, for epsilon-greedy and linucb "
               "(drift workload; 0 = report only)");
  cli.add_flag("read-frac", "0.9", "read fraction of the read-heavy mix");
  cli.add_flag("clients", "4",
               "concurrent client threads (read-heavy); a sweep list like "
               "1,2,4,8,16 for read-scaling");
  cli.add_flag("arrival-rate", "0",
               "read-scaling generator: 0 = closed-loop (peak throughput), "
               ">0 = open-loop Poisson arrivals at this many recommends/s "
               "total across clients (latency from scheduled arrival)");
  cli.add_flag("min-scaling", "0",
               "fail if the largest client count's closed-loop throughput is "
               "below this x the first client count's; clamped to 0.75 x "
               "hardware threads so small hosts are not asked for impossible "
               "parallelism (read-scaling workload; 0 = report only)");
  cli.add_flag("arms", "",
               "synthetic catalog sizes: the decide workload sweeps every "
               "entry (default 8,64,512); other workloads replace the 3-arm "
               "NDP catalog with the first entry");
  cli.add_flag("min-decide-speedup", "0",
               "fail if a vectorized or batched decide cell at >= 512 arms "
               "is below this x the same-arms scalar decisions/s (decide "
               "workload; 0 = "
               "report only)");
  cli.add_flag("sync-every", "1", "sync cadence in batches (sync workloads)");
  cli.add_flag("max-regret-ratio", "0",
               "fail if a synced cell's regret exceeds this x the 1-shard "
               "baseline (sync/async-sync workloads; 0 = report only)");
  cli.add_flag("max-p99-ratio", "0",
               "fail if the async cell's observe p99 exceeds this x the "
               "sync-off baseline (async-sync workload; 0 = report only)");
  cli.add_flag("json", "BENCH_serve_throughput.json", "machine-readable output path");
  cli.add_flag("state-out", "",
               "optional engine snapshot written through the io layer "
               "(last cell wins)");
  cli.add_flag("format", "auto", "snapshot format: auto | text | binary");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_int("decisions") <= 0) {
    std::fprintf(stderr, "--decisions must be positive\n");
    return 1;
  }
  if (cli.get_int("sync-every") <= 0) {
    std::fprintf(stderr, "--sync-every must be positive\n");
    return 1;
  }
  const auto decisions = static_cast<std::size_t>(cli.get_int("decisions"));
  g_policy.kind = bw::core::parse_policy_kind(cli.get("policy"));
  g_snapshot.path = cli.get("state-out");
  g_snapshot.format = bw::io::parse_format(cli.get("format"));
  g_policy.alpha = cli.get_double("alpha");
  g_policy.posterior_scale = cli.get_double("posterior-scale");
  g_policy.lambda = cli.get_double("lambda");
  if (!std::isfinite(g_policy.lambda) || g_policy.lambda <= 0.0 ||
      g_policy.lambda > 1.0) {
    std::fprintf(stderr, "--lambda must be in (0, 1]\n");
    return 1;
  }
  // parse_size_list rejects zero and non-numeric entries itself; what it
  // cannot reject is an empty list (`--clients=`), which would otherwise
  // reach .front() below.
  const auto shard_counts = bw::parse_size_list(cli.get("shards"));
  const auto batch_sizes = bw::parse_size_list(cli.get("batches"));
  const auto client_list = bw::parse_size_list(cli.get("clients"));
  if (shard_counts.empty()) {
    std::fprintf(stderr, "--shards needs at least one positive entry\n");
    return 1;
  }
  if (batch_sizes.empty()) {
    std::fprintf(stderr, "--batches needs at least one positive entry\n");
    return 1;
  }
  if (client_list.empty()) {
    std::fprintf(stderr, "--clients needs at least one positive entry\n");
    return 1;
  }
  const std::string workload = cli.get("workload");
  const double read_frac = cli.get_double("read-frac");
  const std::size_t clients = client_list.front();
  const double arrival_rate = cli.get_double("arrival-rate");
  if (!std::isfinite(arrival_rate) || arrival_rate < 0.0) {
    std::fprintf(stderr, "--arrival-rate must be finite and non-negative\n");
    return 1;
  }
  const double min_scaling = cli.get_double("min-scaling");
  const auto sync_every = static_cast<std::size_t>(cli.get_int("sync-every"));
  const double max_regret_ratio = cli.get_double("max-regret-ratio");
  const double max_p99_ratio = cli.get_double("max-p99-ratio");
  const double max_post_shift_ratio = cli.get_double("max-post-shift-regret-ratio");
  const bool read_heavy = workload == "read-heavy";
  const bool read_scaling = workload == "read-scaling";
  const bool sync = workload == "sync";
  const bool async_sync = workload == "async-sync";
  const bool drift = workload == "drift";
  const bool fleet = workload == "fleet";
  const bool decide = workload == "decide";
  if (workload != "train" && workload != "read-heavy" && workload != "read-scaling" &&
      workload != "sync" && workload != "async-sync" && workload != "drift" &&
      workload != "fleet" && workload != "decide") {
    std::fprintf(stderr,
                 "--workload must be 'train', 'read-heavy', 'read-scaling', "
                 "'sync', 'async-sync', 'drift', 'fleet', or 'decide'\n");
    return 1;
  }
  // --arms: parse_size_list rejects zero/non-numeric entries; an unset flag
  // means workload defaults (decide sweeps 8,64,512; others keep NDP).
  std::vector<std::size_t> arms_list;
  if (!cli.get("arms").empty()) arms_list = bw::parse_size_list(cli.get("arms"));
  if (decide && arms_list.empty()) arms_list = {8, 64, 512};
  g_arms = arms_list;
  const double min_decide_speedup = cli.get_double("min-decide-speedup");
  const auto node_counts = bw::parse_size_list(cli.get("nodes"));
  if (fleet && node_counts.empty()) {
    std::fprintf(stderr, "--nodes needs at least one positive entry\n");
    return 1;
  }
  if (!std::isfinite(read_frac) || read_frac < 0.0 || read_frac > 1.0) {
    std::fprintf(stderr, "--read-frac must be in [0, 1]\n");
    return 1;
  }

  std::printf("hardware threads: %u, decisions per cell: %zu, workload: %s, "
              "policy: %s\n",
              std::thread::hardware_concurrency(), decisions, workload.c_str(),
              bw::core::to_string(g_policy.kind).c_str());
  if (read_heavy) {
    std::printf("read fraction: %.0f%%, clients: %zu\n", read_frac * 100.0, clients);
  }
  if (read_scaling) {
    std::printf("clients sweep: %s, generator: %s\n", cli.get("clients").c_str(),
                arrival_rate > 0.0 ? "open-loop" : "closed-loop");
  }
  if (sync || async_sync) std::printf("sync cadence: every %zu batches\n", sync_every);
  if (decide) {
    std::printf("arms sweep:");
    for (std::size_t arms : arms_list) std::printf(" %zu", arms);
    std::printf("\n");
  } else if (!g_arms.empty()) {
    std::printf("synthetic catalog: %zu arms\n", g_arms.front());
  }
  if (fleet) {
    std::printf("fleet sweep: %s nodes, ring gossip every %zu batches\n",
                cli.get("nodes").c_str(), sync_every);
  }
  const double drift_lambda = g_policy.lambda < 1.0 ? g_policy.lambda : 0.98;
  if (drift) std::printf("discounted lambda: %.4f\n", drift_lambda);
  std::printf("\n");

  // The bars this run enforces, recorded in the JSON next to the bars the
  // flags asked for. Read scaling is the one gate that adapts to the host:
  // a 16-client 4x target is physically unreachable on a 1- or 2-core
  // host, so it asks only for 0.75x the hardware threads, and it applies
  // only to a closed-loop sweep of more than one client count.
  double scaling_bar = 0.0;
  if (min_scaling > 0.0 && arrival_rate == 0.0 && client_list.size() > 1) {
    const double hw = std::max(1u, std::thread::hardware_concurrency());
    scaling_bar = std::min(min_scaling, 0.75 * hw);
    if (scaling_bar <= 1.0) scaling_bar = 0.0;
  }
  std::vector<GateBar> gates;
  auto record_gate = [&gates](const char* flag, double requested, double applied) {
    if (requested > 0.0) gates.push_back({flag, requested, applied});
  };
  if (read_scaling) record_gate("min-scaling", min_scaling, scaling_bar);
  if (decide) record_gate("min-decide-speedup", min_decide_speedup, min_decide_speedup);
  if (drift) {
    record_gate("max-post-shift-regret-ratio", max_post_shift_ratio,
                max_post_shift_ratio);
  }
  if (async_sync) record_gate("max-p99-ratio", max_p99_ratio, max_p99_ratio);
  if (sync || async_sync || fleet) {
    record_gate("max-regret-ratio", max_regret_ratio, max_regret_ratio);
  }

  std::vector<CellResult> cells;
  bool gate_failed = false;
  if (decide) {
    // Kernel isolation sweep: per arm count, the scalar cell pins the
    // baseline; vector and batched cells are measured (and the batched
    // ones gated) against it. Decisions are byte-identical across modes —
    // only the memory layout and batching differ.
    bw::Table table({"arms", "mode", "batch", "wall (s)", "decisions/s",
                     "vs scalar"});
    for (std::size_t arms : arms_list) {
      const CellResult scalar = run_decide_cell(arms, "scalar", 1, decisions);
      cells.push_back(scalar);
      table.add_row({std::to_string(arms), "scalar", "1",
                     bw::format_double(scalar.seconds, 3),
                     bw::format_double(scalar.decisions_per_s, 0), "1.00x"});
      CellResult vec = run_decide_cell(arms, "vector", 1, decisions);
      vec.kernel_speedup = vec.decisions_per_s / scalar.decisions_per_s;
      cells.push_back(vec);
      table.add_row({std::to_string(arms), "vector", "1",
                     bw::format_double(vec.seconds, 3),
                     bw::format_double(vec.decisions_per_s, 0),
                     bw::format_double(vec.kernel_speedup, 2) + "x"});
      if (min_decide_speedup > 0.0 && arms >= 512 &&
          vec.kernel_speedup < min_decide_speedup) {
        std::fprintf(stderr,
                     "FAIL: %zu-arm vectorized decide throughput %.0f/s is "
                     "only %.2fx the scalar baseline %.0f/s (limit %.2fx)\n",
                     arms, vec.decisions_per_s, vec.kernel_speedup,
                     scalar.decisions_per_s, min_decide_speedup);
        gate_failed = true;
      }
      for (std::size_t batch : batch_sizes) {
        // batch=1 through the server measures routing, not the kernel.
        if (batch <= 1) continue;
        CellResult cell = run_decide_cell(arms, "batch", batch, decisions);
        cell.kernel_speedup = cell.decisions_per_s / scalar.decisions_per_s;
        cells.push_back(cell);
        table.add_row({std::to_string(arms), "batch", std::to_string(batch),
                       bw::format_double(cell.seconds, 3),
                       bw::format_double(cell.decisions_per_s, 0),
                       bw::format_double(cell.kernel_speedup, 2) + "x"});
        if (min_decide_speedup > 0.0 && arms >= 512 &&
            cell.kernel_speedup < min_decide_speedup) {
          std::fprintf(stderr,
                       "FAIL: %zu-arm batch-%zu decide throughput %.0f/s is "
                       "only %.2fx the scalar baseline %.0f/s (limit %.2fx)\n",
                       arms, batch, cell.decisions_per_s, cell.kernel_speedup,
                       scalar.decisions_per_s, min_decide_speedup);
          gate_failed = true;
        }
      }
    }
    std::fputs(table.to_string().c_str(), stdout);
  } else if (drift) {
    // Nonstationarity sweep: per scenario, every policy runs twice — the
    // undiscounted learner pins the recovery baseline, the discounted twin
    // is measured (and gated) against it on post-shift regret.
    bw::Table table({"scenario", "policy", "lambda", "wall (s)", "mean regret (s)",
                     "post-shift regret (s)", "vs lambda=1"});
    for (const char* scenario : {"abrupt", "gradual", "churn"}) {
      for (const auto kind :
           {bw::core::PolicyKind::kEpsilonGreedy, bw::core::PolicyKind::kLinUcb,
            bw::core::PolicyKind::kThompson}) {
        const CellResult base = run_drift_cell(scenario, kind, 1.0, decisions);
        const CellResult disc = run_drift_cell(scenario, kind, drift_lambda, decisions);
        cells.push_back(base);
        cells.push_back(disc);
        const double ratio = base.post_shift_regret_s > 0.0
                                 ? disc.post_shift_regret_s / base.post_shift_regret_s
                                 : 1.0;
        table.add_row({scenario, base.policy, "1", bw::format_double(base.seconds, 3),
                       bw::format_double(base.mean_regret_s, 4),
                       bw::format_double(base.post_shift_regret_s, 4), "1.00x"});
        table.add_row({scenario, disc.policy, bw::format_double(disc.lambda, 4),
                       bw::format_double(disc.seconds, 3),
                       bw::format_double(disc.mean_regret_s, 4),
                       bw::format_double(disc.post_shift_regret_s, 4),
                       bw::format_double(ratio, 2) + "x"});
        // Thompson is reported unguarded: posterior sampling adds decision
        // noise the deterministic gate would punish unfairly.
        if (max_post_shift_ratio > 0.0 && kind != bw::core::PolicyKind::kThompson &&
            ratio > max_post_shift_ratio) {
          std::fprintf(stderr,
                       "FAIL: %s %s lambda=%.4f post-shift regret %.4f s is %.2fx "
                       "the undiscounted %.4f s (limit %.2fx)\n",
                       scenario, disc.policy.c_str(), disc.lambda,
                       disc.post_shift_regret_s, ratio, base.post_shift_regret_s,
                       max_post_shift_ratio);
          gate_failed = true;
        }
      }
    }
    std::fputs(table.to_string().c_str(), stdout);
  } else if (fleet) {
    // Gossip quality sweep: the 1-node baseline pins the regret bar per
    // batch size; each fleet size runs gossip-off (1/N slices, regret
    // grows with N) and ring-gossiped (the gated cell).
    bw::Table table({"nodes", "gossip", "batch", "wall (s)", "decisions/s",
                     "mean regret (s)", "vs 1 node"});
    for (std::size_t batch : batch_sizes) {
      const CellResult baseline = run_fleet_cell(1, batch, decisions, 0);
      cells.push_back(baseline);
      table.add_row({"1", "-", std::to_string(batch),
                     bw::format_double(baseline.seconds, 3),
                     bw::format_double(baseline.decisions_per_s, 0),
                     bw::format_double(baseline.mean_regret_s, 4), "1.00x"});
      for (std::size_t num_nodes : node_counts) {
        if (num_nodes <= 1) continue;
        for (const std::size_t cadence : {std::size_t{0}, sync_every}) {
          const CellResult cell =
              run_fleet_cell(num_nodes, batch, decisions, cadence);
          cells.push_back(cell);
          const double ratio = cell.mean_regret_s / baseline.mean_regret_s;
          table.add_row({std::to_string(cell.nodes),
                         cadence == 0 ? "off" : "every " + std::to_string(cadence),
                         std::to_string(cell.batch),
                         bw::format_double(cell.seconds, 3),
                         bw::format_double(cell.decisions_per_s, 0),
                         bw::format_double(cell.mean_regret_s, 4),
                         bw::format_double(ratio, 2) + "x"});
          if (cadence > 0 && max_regret_ratio > 0.0 && ratio > max_regret_ratio) {
            std::fprintf(stderr,
                         "FAIL: %zu-node gossiped regret %.4f s is %.2fx the "
                         "1-node baseline %.4f s (limit %.2fx)\n",
                         num_nodes, cell.mean_regret_s, ratio,
                         baseline.mean_regret_s, max_regret_ratio);
            gate_failed = true;
          }
        }
      }
    }
    std::fputs(table.to_string().c_str(), stdout);
  } else if (read_scaling) {
    // Client-thread sweep down the lock-free read path. Per shard count,
    // the first client count pins the throughput baseline; the gate (if
    // any) applies to the largest.
    bw::Table table({"shards", "clients", "wall (s)", "recommends/s",
                     "p50 (us)", "p99 (us)", "p999 (us)", "vs 1st"});
    for (std::size_t shards : shard_counts) {
      double baseline = 0.0;
      for (std::size_t num_clients : client_list) {
        const CellResult cell =
            run_read_scaling_cell(shards, num_clients, decisions, arrival_rate);
        if (num_clients == client_list.front()) baseline = cell.decisions_per_s;
        cells.push_back(cell);
        const double scaling = cell.decisions_per_s / baseline;
        table.add_row({std::to_string(cell.shards), std::to_string(cell.clients),
                       bw::format_double(cell.seconds, 3),
                       bw::format_double(cell.decisions_per_s, 0),
                       bw::format_double(cell.recommend_p50_us, 2),
                       bw::format_double(cell.recommend_p99_us, 2),
                       bw::format_double(cell.recommend_p999_us, 2),
                       bw::format_double(scaling, 2) + "x"});
        if (scaling_bar > 0.0 && num_clients == client_list.back() &&
            scaling < scaling_bar) {
          std::fprintf(stderr,
                       "FAIL: %zu-shard %zu-client throughput %.0f/s is only "
                       "%.2fx the %zu-client baseline %.0f/s (limit %.2fx, "
                       "requested %.2fx, %u hardware threads)\n",
                       shards, num_clients, cell.decisions_per_s, scaling,
                       client_list.front(), baseline, scaling_bar, min_scaling,
                       std::thread::hardware_concurrency());
          gate_failed = true;
        }
      }
    }
    std::fputs(table.to_string().c_str(), stdout);
  } else if (async_sync) {
    // Observe-latency sweep: per batch size, a 1-shard no-sync cell pins
    // the regret baseline; per multi-shard count, sync-off pins the p99
    // baseline and inline/async are measured (and gated) against the two.
    bw::Table table({"shards", "sync", "batch", "observe p50 (ms)", "observe p99 (ms)",
                     "p99 vs off", "mean regret (s)", "vs 1 shard"});
    for (std::size_t batch : batch_sizes) {
      const CellResult regret_baseline =
          run_async_sync_cell(1, batch, decisions, sync_every, "off");
      cells.push_back(regret_baseline);
      table.add_row({"1", "-", std::to_string(batch),
                     bw::format_double(regret_baseline.observe_p50_ms, 3),
                     bw::format_double(regret_baseline.observe_p99_ms, 3), "-",
                     bw::format_double(regret_baseline.mean_regret_s, 4), "1.00x"});
      for (std::size_t shards : shard_counts) {
        if (shards <= 1) continue;
        CellResult off;
        for (const char* mode : {"off", "inline", "async"}) {
          const CellResult cell =
              run_async_sync_cell(shards, batch, decisions, sync_every, mode);
          cells.push_back(cell);
          if (cell.sync_mode == "off") off = cell;
          const double p99_ratio = cell.observe_p99_ms / off.observe_p99_ms;
          const double regret_ratio =
              cell.mean_regret_s / regret_baseline.mean_regret_s;
          table.add_row({std::to_string(cell.shards), cell.sync_mode,
                         std::to_string(cell.batch),
                         bw::format_double(cell.observe_p50_ms, 3),
                         bw::format_double(cell.observe_p99_ms, 3),
                         bw::format_double(p99_ratio, 2) + "x",
                         bw::format_double(cell.mean_regret_s, 4),
                         bw::format_double(regret_ratio, 2) + "x"});
          if (cell.sync_mode != "async") continue;
          if (max_p99_ratio > 0.0 && p99_ratio > max_p99_ratio) {
            std::fprintf(stderr,
                         "FAIL: %zu-shard async observe p99 %.3f ms is %.2fx the "
                         "no-sync baseline %.3f ms (limit %.2fx)\n",
                         shards, cell.observe_p99_ms, p99_ratio, off.observe_p99_ms,
                         max_p99_ratio);
            gate_failed = true;
          }
          if (max_regret_ratio > 0.0 && regret_ratio > max_regret_ratio) {
            std::fprintf(stderr,
                         "FAIL: %zu-shard async regret %.4f s is %.2fx the 1-shard "
                         "baseline %.4f s (limit %.2fx)\n",
                         shards, cell.mean_regret_s, regret_ratio,
                         regret_baseline.mean_regret_s, max_regret_ratio);
            gate_failed = true;
          }
        }
      }
    }
    std::fputs(table.to_string().c_str(), stdout);
  } else if (sync) {
    // Regret quality sweep: 1-shard baseline, then round-robin with and
    // without sync for each multi-shard count.
    bw::Table table({"shards", "sync", "batch", "wall (s)", "decisions/s",
                     "mean regret (s)", "vs 1 shard"});
    for (std::size_t batch : batch_sizes) {
      const CellResult baseline = run_sync_cell(1, batch, decisions, 0);
      cells.push_back(baseline);
      table.add_row({"1", "-", std::to_string(batch),
                     bw::format_double(baseline.seconds, 3),
                     bw::format_double(baseline.decisions_per_s, 0),
                     bw::format_double(baseline.mean_regret_s, 4), "1.00x"});
      for (std::size_t shards : shard_counts) {
        if (shards <= 1) continue;
        for (const std::size_t cadence : {std::size_t{0}, sync_every}) {
          const CellResult cell = run_sync_cell(shards, batch, decisions, cadence);
          cells.push_back(cell);
          const double ratio = cell.mean_regret_s / baseline.mean_regret_s;
          table.add_row({std::to_string(cell.shards),
                         cadence == 0 ? "off" : "every " + std::to_string(cadence),
                         std::to_string(cell.batch),
                         bw::format_double(cell.seconds, 3),
                         bw::format_double(cell.decisions_per_s, 0),
                         bw::format_double(cell.mean_regret_s, 4),
                         bw::format_double(ratio, 2) + "x"});
          if (cadence > 0 && max_regret_ratio > 0.0 &&
              ratio > max_regret_ratio) {
            std::fprintf(stderr,
                         "FAIL: %zu-shard synced regret %.4f s is %.2fx the "
                         "1-shard baseline %.4f s (limit %.2fx)\n",
                         shards, cell.mean_regret_s, ratio, baseline.mean_regret_s,
                         max_regret_ratio);
            gate_failed = true;
          }
        }
      }
    }
    std::fputs(table.to_string().c_str(), stdout);
  } else {
    bw::Table table({"shards", "batch", "wall (s)", "decisions/s", "speedup vs 1 shard"});
    for (std::size_t batch : batch_sizes) {
      double baseline = 0.0;
      for (std::size_t shards : shard_counts) {
        const CellResult cell =
            read_heavy ? run_read_heavy_cell(shards, batch, decisions, read_frac, clients)
                       : run_train_cell(shards, batch, decisions);
        if (shards == shard_counts.front()) baseline = cell.decisions_per_s;
        cells.push_back(cell);
        table.add_row({std::to_string(cell.shards), std::to_string(cell.batch),
                       bw::format_double(cell.seconds, 3),
                       bw::format_double(cell.decisions_per_s, 0),
                       bw::format_double(cell.decisions_per_s / baseline, 2) + "x"});
      }
    }
    std::fputs(table.to_string().c_str(), stdout);
  }
  write_json(cli.get("json"), workload, read_heavy ? read_frac : 0.0,
             read_heavy || read_scaling ? clients : 1, gates, cells);
  return gate_failed ? 1 : 0;
}
