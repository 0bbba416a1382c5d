// serve-mixed: the paper's Exp. 3 matmul workflows (5 hardware settings,
// 4 features; 8x the paper's 2520 runs from the same generator, so regret
// averages over enough runs to compare across seeds) served by a 4-shard,
// feature-hash, ε-greedy engine with a 1-worker pool. Two closed-loop
// clients issue greedy reads on the unseen half of the run table while the
// main thread runs the one feedback stream: exploring recommend_batch of 16,
// observe_batch, and an inline sync_shards() every kSyncEvery batches. The
// single writer and the inline sync make regret and the sync count identical
// on every run of one seed.
//
// Threads: 2 readers + the feedback thread + 1 pool worker = 4, of which
// at most 3 are runnable at once (the feedback thread waits on the pool);
// the feedback thread and the worker share one CPU (see pin_main_thread).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "experiments/datasets.hpp"
#include "harness.hpp"
#include "io/run_table_io.hpp"
#include "serve/bandit_server.hpp"

namespace perfbench {
namespace {

/// Dataset size as a multiple of the paper's 1800 small + 720 large runs.
constexpr std::size_t kDatasetScale = 8;
constexpr std::size_t kShards = 4;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kStreamBatches = 1600;
constexpr std::size_t kSyncEvery = 4;
/// History rows per observe_batch at set-up. Small batches would time pool
/// hand-offs instead of the ingest.
constexpr std::size_t kIngestBatchRows = 1024;
/// Every kCheckEvery-th read is followed by one checked read.
constexpr std::uint64_t kCheckEvery = 64;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Group g's features in units that keep them within two orders of
/// magnitude of each other — size in thousands, the value bounds in
/// hundreds — so the shards' precision matrices stay well conditioned
/// under repeated fusion. Predictions are invariant to the scaling.
bw::core::FeatureVector scaled_features(const bw::core::RunTable& table, std::size_t g) {
  bw::core::FeatureVector x = table.features_of(g);
  x[0] /= 1000.0;  // size
  x[2] /= 100.0;   // min_value
  x[3] /= 100.0;   // max_value
  return x;
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(std::uint64_t seed);
  RunResult run(double seconds, bool traced) override;

 private:
  // Cache-line aligned: each reader bumps its counters on every read.
  struct alignas(64) Reader {
    Histogram latency;
    Trace trace;
    std::uint64_t reads = 0;
    std::uint64_t checks = 0;
    std::uint64_t failed = 0;
    std::string error;
  };

  void ingest(bw::serve::BanditServer& server, Trace* trace, RunResult& out) const;
  void read_loop(bw::serve::BanditServer& server, std::size_t reader_index,
                 const std::atomic<bool>& done, Reader& reader, bool traced) const;

  bw::serve::BanditServerConfig config_;
  bw::hw::HardwareCatalog catalog_;
  std::vector<std::string> feature_names_;
  std::string history_bytes_;  ///< the seen half, as a .bwt run table
  std::size_t history_rows_ = 0;
  // The unseen half: contexts, per-arm runtimes and the oracle runtime.
  std::vector<bw::core::FeatureVector> unseen_x_;
  std::vector<std::vector<double>> unseen_runtimes_;
  std::vector<double> unseen_best_;
  /// The feedback stream: kStreamBatches batches of unseen-row indices.
  std::vector<std::vector<std::size_t>> stream_rows_;
  std::vector<std::vector<bw::core::FeatureVector>> stream_xs_;
  /// Per reader, a seeded visiting order over the unseen rows.
  std::vector<std::vector<std::size_t>> reader_rows_;
};

ServeMixed::ServeMixed(std::uint64_t seed) {
  const bw::hw::HardwareCatalog catalog = bw::hw::matmul_catalog();
  bw::apps::MatmulDatasetOptions options;
  options.small_runs *= kDatasetScale;
  options.large_runs *= kDatasetScale;
  options.seed = bw::Rng(seed).child_seed(0);
  const bw::core::RunTable table = bw::exp::merge_frames_to_table(
      bw::apps::build_matmul_frames(catalog, bw::apps::MatmulModelConfig{}, options),
      "run_id", bw::apps::matmul_feature_names(), catalog);
  catalog_ = table.catalog();
  feature_names_ = table.feature_names();

  bw::Rng rng(bw::Rng(seed).child_seed(1));
  const std::vector<std::size_t> order = rng.permutation(table.num_groups());
  const std::size_t half = table.num_groups() / 2;

  std::ostringstream history;
  bw::io::RunTableWriter writer(history, feature_names_, catalog_);
  for (std::size_t i = 0; i < half; ++i) {
    const std::size_t g = order[i];
    const bw::core::FeatureVector x = scaled_features(table, g);
    std::vector<double> runtimes(table.num_arms());
    for (std::size_t a = 0; a < runtimes.size(); ++a) runtimes[a] = table.runtime(g, a);
    writer.append(x, runtimes);
  }
  writer.finish();
  history_bytes_ = history.str();
  history_rows_ = half;

  for (std::size_t i = half; i < order.size(); ++i) {
    const std::size_t g = order[i];
    unseen_x_.push_back(scaled_features(table, g));
    std::vector<double> runtimes(table.num_arms());
    for (std::size_t a = 0; a < runtimes.size(); ++a) runtimes[a] = table.runtime(g, a);
    unseen_runtimes_.push_back(std::move(runtimes));
    unseen_best_.push_back(table.best_runtime(g));
  }

  stream_rows_.resize(kStreamBatches);
  stream_xs_.resize(kStreamBatches);
  for (std::size_t b = 0; b < kStreamBatches; ++b) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::size_t row = rng.index(unseen_x_.size());
      stream_rows_[b].push_back(row);
      stream_xs_[b].push_back(unseen_x_[row]);
    }
  }
  for (std::size_t r = 0; r < kReaders; ++r) {
    reader_rows_.push_back(rng.permutation(unseen_x_.size()));
  }

  config_.num_shards = kShards;
  config_.sharding = bw::serve::ShardingPolicy::kFeatureHash;
  config_.seed = bw::Rng(seed).child_seed(2);
  config_.num_threads = 1;
  config_.explore = true;
}

void ServeMixed::ingest(bw::serve::BanditServer& server, Trace* trace,
                        RunResult& out) const {
  // Every history row was run on every hardware setting (the paper's
  // dataset), so each row contributes one observation per arm. The whole
  // table is read first (the io span), then fed to the engine as one
  // observe_batch per kIngestBatchRows rows (the serve spans).
  std::vector<bw::core::FeatureVector> xs;
  std::vector<std::vector<double>> runtimes;
  bool truncated = false;
  {
    SpanScope span(trace, Span::kIoIngestRunTable);
    std::istringstream in(history_bytes_);
    bw::io::RunTableReader reader(in);
    xs.reserve(history_rows_);
    runtimes.reserve(history_rows_);
    std::vector<double> features;
    std::vector<double> row_runtimes;
    while (reader.next_row(features, row_runtimes)) {
      xs.push_back(features);
      runtimes.push_back(row_runtimes);
    }
    truncated = reader.truncated();
  }
  ++out.attempted;
  if (xs.size() != history_rows_ || truncated) {
    throw std::runtime_error("history ingest read " + std::to_string(xs.size()) + " of " +
                             std::to_string(history_rows_) + " rows");
  }
  if (trace != nullptr) trace->add(Counter::kIngestRows, xs.size());

  std::vector<bw::serve::ServeObservation> batch;
  batch.reserve(kIngestBatchRows * catalog_.size());
  for (std::size_t first = 0; first < xs.size(); first += kIngestBatchRows) {
    batch.clear();
    for (std::size_t i = first; i < std::min(first + kIngestBatchRows, xs.size()); ++i) {
      const std::size_t shard = server.shard_of(xs[i]);
      for (std::size_t a = 0; a < runtimes[i].size(); ++a) {
        batch.push_back({shard, a, xs[i], runtimes[i][a]});
      }
    }
    SpanScope span(trace, Span::kServeObserveBatch);
    server.observe_batch(batch);
  }
}

void ServeMixed::read_loop(bw::serve::BanditServer& server, std::size_t reader_index,
                           const std::atomic<bool>& done, Reader& reader,
                           bool traced) const {
  const std::vector<std::size_t>& rows = reader_rows_[reader_index];
  std::size_t next = 0;
  try {
    while (!done.load(std::memory_order_relaxed)) {
      const bw::core::FeatureVector& x = unseen_x_[rows[next]];
      next = next + 1 == rows.size() ? 0 : next + 1;
      if (!traced) {
        const std::uint64_t t0 = now_ns();
        server.recommend_greedy(x);
        reader.latency.record(now_ns() - t0);
      } else {
        // recommend_greedy's three public steps, timed back to back. The
        // read ends when it lets go of the snapshot, on a clock read of its
        // own: the release is the parent's measured unexplained time.
        const std::uint64_t t0 = now_ns();
        const std::size_t shard = server.shard_of(x);
        const std::uint64_t t1 = now_ns();
        std::shared_ptr<const bw::core::FrozenModel> model = server.published_model(shard);
        const std::uint64_t t2 = now_ns();
        model->recommend_choice(x);
        const std::uint64_t t3 = now_ns();
        model.reset();
        const std::uint64_t t4 = now_ns();
        reader.trace.record_span(Span::kServeRoute, t1 - t0, false);
        reader.trace.record_span(Span::kServeSnapshotAcquire, t2 - t1, false);
        reader.trace.record_span(Span::kCoreDecide, t3 - t2, false);
        reader.trace.add_parent(Parent::kServeMixedRead, t4 - t0, t3 - t0);
      }
      if (++reader.reads % kCheckEvery == 0) {
        // A checked read: the served decision must equal the scalar
        // reference path on the same snapshot, bit for bit. A publish
        // landing between the two loads leaves the snapshot ambiguous, so
        // that sample is skipped rather than judged.
        const std::size_t shard = server.shard_of(x);
        const auto before = server.published_model(shard);
        const bw::serve::ServeDecision d = server.recommend_greedy(x);
        const auto after = server.published_model(shard);
        if (before == after) {
          ++reader.checks;
          const bw::core::TolerantChoice ref = before->recommend_choice_scalar(x);
          if (ref.arm != d.arm || !same_bits(ref.predicted_runtime, d.predicted_runtime_s)) {
            ++reader.failed;
          }
        }
      }
    }
  } catch (const std::exception& e) {
    ++reader.failed;
    reader.error = e.what();
  }
}

RunResult ServeMixed::run(double seconds, bool traced) {
  RunResult out;
  RepeatCheck regret_check;
  RepeatCheck sync_check;
  std::vector<Reader> readers(kReaders);
  Trace main_trace;
  Trace* trace = traced ? &main_trace : nullptr;
  double sync_count = 0.0;

  const std::uint64_t run_start = now_ns();
  do {
    const std::uint64_t setup_start = now_ns();
    bw::serve::BanditServer server(catalog_, feature_names_, config_);
    ingest(server, trace, out);
    out.setup_s.push_back(static_cast<double>(now_ns() - setup_start) * 1e-9);

    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    std::uint64_t reads_before = 0;
    for (const Reader& reader : readers) reads_before += reader.reads;
    const std::uint64_t stream_start = now_ns();
    for (std::size_t r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        pin_client();
        read_loop(server, r, done, readers[r], traced);
      });
    }
    double regret = 0.0;
    double oracle = 0.0;
    try {
      std::vector<bw::serve::ServeObservation> observations;
      observations.reserve(kBatch);
      for (std::size_t b = 0; b < kStreamBatches; ++b) {
        ParentScope request(trace, Parent::kServeMixedFeedback);
        const std::vector<bw::core::FeatureVector>& xs = stream_xs_[b];
        std::vector<bw::serve::ServeDecision> decisions;
        {
          SpanScope span(trace, Span::kServeRecommendBatch);
          decisions = server.recommend_batch(xs);
        }
        observations.clear();
        for (std::size_t i = 0; i < kBatch; ++i) {
          const std::size_t row = stream_rows_[b][i];
          const double runtime = unseen_runtimes_[row][decisions[i].arm];
          regret += runtime - unseen_best_[row];
          oracle += unseen_best_[row];
          observations.push_back({decisions[i].shard, decisions[i].arm, xs[i], runtime});
        }
        // One feedback call: the observe batch plus the fusion its cadence
        // triggers.
        const std::uint64_t t0 = now_ns();
        {
          SpanScope span(trace, Span::kServeObserveBatch);
          server.observe_batch(observations);
        }
        if ((b + 1) % kSyncEvery == 0) {
          const std::uint64_t s0 = now_ns();
          {
            SpanScope span(trace, Span::kServeSyncShards);
            server.sync_shards();
          }
          out.sync.record(now_ns() - s0);
          ++out.attempted;
        }
        out.observe.record(now_ns() - t0);
        out.attempted += 2;
      }
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "serve-mixed feedback stream failed: %s\n", e.what());
    }
    done.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    std::uint64_t reads = 0;
    for (const Reader& reader : readers) reads += reader.reads;
    out.add_episode(kStreamBatches * kBatch + reads - reads_before, now_ns() - stream_start);

    out.regret_pct = 100.0 * regret / oracle;
    sync_count = static_cast<double>(server.sync_count());
    if (!regret_check.check(out.regret_pct) || !sync_check.check(sync_count) ||
        sync_count != static_cast<double>(kStreamBatches / kSyncEvery)) {
      ++out.failed;
      std::fprintf(stderr, "serve-mixed: stream did not repeat (regret %.17g, syncs %.0f)\n",
                   out.regret_pct, sync_count);
    }
  } while (static_cast<double>(now_ns() - run_start) * 1e-9 < seconds);

  for (Reader& reader : readers) {
    out.recommend.merge(reader.latency);
    out.attempted += reader.reads + reader.checks;
    out.failed += reader.failed;
    if (!reader.error.empty()) {
      std::fprintf(stderr, "serve-mixed reader failed: %s\n", reader.error.c_str());
    }
    main_trace.merge(reader.trace);
  }
  out.trace = std::move(main_trace);
  out.extras.push_back({"sync_count", sync_count, "count"});
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed) {
  return std::make_unique<ServeMixed>(seed);
}

}  // namespace perfbench
