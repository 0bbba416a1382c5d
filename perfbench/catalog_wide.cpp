// catalog-wide: one client on a 1-shard ε-greedy engine over a 2048-arm
// synthetic catalog with 7 features, so the (d+1) x arms scoring plane is
// 128 KB (L2-resident) and the binary snapshot about 2.6 MB. Set-up
// restores that snapshot. Each round serves a 32-context greedy lookup
// batch and an 8-context exploring batch whose outcomes go back through
// observe_batch (which refreezes the plane); every kCheckpointEvery rounds
// the round also writes a binary checkpoint. Core scoring and the io
// writer carry this workload; serve's routing and locks do almost nothing.

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "harness.hpp"
#include "io/state_io.hpp"
#include "serve/bandit_server.hpp"
#include "synthetic.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kArms = 2048;
constexpr std::size_t kFeatures = 7;
constexpr std::size_t kLookup = 32;
constexpr std::size_t kExplore = 8;
constexpr std::size_t kRounds = 800;
constexpr std::size_t kCheckpointEvery = 25;
/// Warm-up observations per arm before the snapshot is taken: enough for
/// every arm's ridge fit to be determined (d + 1 = 8 unknowns).
constexpr std::size_t kWarmPerArm = 8;
/// Distinct pre-built batches the rounds cycle through.
constexpr std::size_t kBatchPool = 128;

class CatalogWide final : public Workload {
 public:
  explicit CatalogWide(std::uint64_t seed);
  RunResult run(double seconds, bool traced) override;

 private:
  SyntheticCatalog model_;
  std::string snapshot_;  ///< binary server state of the warm engine
  std::vector<std::vector<bw::core::FeatureVector>> lookups_;
  std::vector<std::vector<bw::core::FeatureVector>> explores_;
  std::vector<std::vector<double>> explore_best_;  ///< oracle runtime per run
};

CatalogWide::CatalogWide(std::uint64_t seed)
    : model_(kArms, kFeatures, bw::Rng(seed).child_seed(20)) {
  bw::serve::BanditServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  config.seed = bw::Rng(seed).child_seed(22);
  config.explore = true;
  bw::serve::BanditServer server(model_.catalog(), model_.feature_names(), config);

  bw::Rng rng(bw::Rng(seed).child_seed(23));
  std::vector<bw::serve::ServeObservation> warm;
  std::uint64_t warm_run = kBatchPool * kExplore;  // run ids after the stream's
  for (std::size_t pass = 0; pass < kWarmPerArm; ++pass) {
    for (std::size_t a = 0; a < kArms; ++a) {
      bw::core::FeatureVector x = model_.context(rng);
      const double runtime = model_.runtime(a, x, warm_run++);
      warm.push_back({0, a, std::move(x), runtime});
    }
    server.observe_batch(warm);
    warm.clear();
  }
  std::ostringstream os;
  bw::io::save_state(os, server, bw::io::Format::kBinary);
  snapshot_ = os.str();

  for (std::size_t b = 0; b < kBatchPool; ++b) {
    lookups_.emplace_back();
    for (std::size_t i = 0; i < kLookup; ++i) lookups_.back().push_back(model_.context(rng));
    explores_.emplace_back();
    explore_best_.emplace_back();
    for (std::size_t i = 0; i < kExplore; ++i) {
      explores_.back().push_back(model_.context(rng));
      explore_best_.back().push_back(model_.best(explores_.back().back(), b * kExplore + i));
    }
  }
}

RunResult CatalogWide::run(double seconds, bool traced) {
  RunResult out;
  RepeatCheck regret_check;
  Trace main_trace;
  Trace* trace = traced ? &main_trace : nullptr;
  std::string checkpoint;

  const std::uint64_t run_start = now_ns();
  do {
    const std::uint64_t setup_start = now_ns();
    bw::serve::BanditServer server = [&] {
      std::istringstream in(snapshot_);
      SpanScope span(trace, Span::kIoLoadServerState);
      return bw::io::load_server_state(in);
    }();
    out.setup_s.push_back(static_cast<double>(now_ns() - setup_start) * 1e-9);
    ++out.attempted;
    if (trace != nullptr) trace->add(Counter::kLoadServerStateBytes, snapshot_.size());

    double regret = 0.0;
    double oracle = 0.0;
    const std::uint64_t stream_start = now_ns();
    try {
      std::vector<bw::serve::ServeObservation> observations;
      observations.reserve(kExplore);
      for (std::size_t round = 0; round < kRounds; ++round) {
        ParentScope request(trace, Parent::kCatalogWideRound);
        const std::size_t slot = round % kBatchPool;
        const std::vector<bw::core::FeatureVector>& lookup = lookups_[slot];
        const std::uint64_t t0 = now_ns();
        if (trace == nullptr) {
          server.recommend_greedy_batch(lookup);
        } else {
          // recommend_greedy_batch's public steps on a 1-shard engine.
          std::shared_ptr<const bw::core::FrozenModel> model;
          {
            SpanScope span(trace, Span::kServeSnapshotAcquire);
            model = server.published_model(0);
          }
          SpanScope span(trace, Span::kCoreDecideBatch);
          model->recommend_greedy_batch(lookup);
        }
        out.recommend.record(now_ns() - t0);

        const std::vector<bw::core::FeatureVector>& xs = explores_[slot];
        std::vector<bw::serve::ServeDecision> decisions;
        {
          SpanScope span(trace, Span::kServeRecommendBatch);
          decisions = server.recommend_batch(xs);
        }
        observations.clear();
        for (std::size_t i = 0; i < kExplore; ++i) {
          const std::size_t arm = decisions[i].arm;
          const double runtime = model_.runtime(arm, xs[i], slot * kExplore + i);
          regret += runtime - explore_best_[slot][i];
          oracle += explore_best_[slot][i];
          observations.push_back({0, arm, xs[i], runtime});
        }
        const std::uint64_t t1 = now_ns();
        {
          SpanScope span(trace, Span::kServeObserveBatch);
          server.observe_batch(observations);
        }
        out.observe.record(now_ns() - t1);
        out.attempted += 3;

        if ((round + 1) % kCheckpointEvery == 0) {
          // Only the newest checkpoint is kept; let go of the last one
          // first, so peak RSS holds one checkpoint, as a deployment would.
          checkpoint.clear();
          checkpoint.shrink_to_fit();
          const std::uint64_t t2 = now_ns();
          std::ostringstream os;
          {
            SpanScope span(trace, Span::kIoSaveState);
            bw::io::save_state(os, server, bw::io::Format::kBinary);
          }
          checkpoint = std::move(os).str();
          out.sync.record(now_ns() - t2);
          ++out.attempted;
          if (trace != nullptr) trace->add(Counter::kSaveStateBytes, checkpoint.size());
        }
      }
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "catalog-wide stream failed: %s\n", e.what());
    }
    out.add_episode(kRounds * (kLookup + kExplore), now_ns() - stream_start);
    out.regret_pct = 100.0 * regret / oracle;
    if (!regret_check.check(out.regret_pct)) {
      ++out.failed;
      std::fprintf(stderr, "catalog-wide: stream did not repeat (regret %.17g)\n",
                   out.regret_pct);
    }
  } while (static_cast<double>(now_ns() - run_start) * 1e-9 < seconds);

  // The last checkpoint must reload and re-save to identical bytes.
  ++out.attempted;
  try {
    std::istringstream in(checkpoint);
    const bw::serve::BanditServer reloaded = bw::io::load_server_state(in);
    std::ostringstream os;
    bw::io::save_state(os, reloaded, bw::io::Format::kBinary);
    if (os.str() != checkpoint) throw std::runtime_error("re-saved checkpoint differs");
  } catch (const std::exception& e) {
    ++out.failed;
    std::fprintf(stderr, "catalog-wide checkpoint check failed: %s\n", e.what());
  }
  out.trace = std::move(main_trace);
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_catalog_wide(std::uint64_t seed) {
  return std::make_unique<CatalogWide>(seed);
}

}  // namespace perfbench
