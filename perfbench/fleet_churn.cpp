// fleet-churn: four LinUCB FleetNodes (one shard each) over a 64-arm
// synthetic catalog, driven by one thread. Set-up restores all four nodes
// from kind-5 snapshots of a warm fleet. Each batch of 16 goes to one node,
// round-robin, and is followed by one ring gossip round through the real
// wire codec (make_delta, encode, decode, apply). Every kRestartEvery
// batches one node restarts from its own snapshot, so the origin store
// grows the way a long-lived fleet's does. The apply/refold/adopt step
// carries this workload; no other workload touches the fleet layer.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "fleet/fleet_node.hpp"
#include "harness.hpp"
#include "io/fleet_wire.hpp"
#include "io/state_io.hpp"
#include "synthetic.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kArms = 64;
constexpr std::size_t kFeatures = 4;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kStreamBatches = 128;
constexpr std::size_t kRestartEvery = 16;
/// Batches the warm fleet learns (with gossip) before its snapshots.
constexpr std::size_t kWarmBatches = 256;
/// Distinct pre-built batches the stream cycles through.
constexpr std::size_t kBatchPool = 64;
/// Ring rounds allowed for the final quiesce before it counts as failed.
constexpr std::size_t kQuiesceRounds = 64;

using Nodes = std::vector<std::unique_ptr<bw::fleet::FleetNode>>;

class FleetChurn final : public Workload {
 public:
  explicit FleetChurn(std::uint64_t seed);
  RunResult run(double seconds, bool traced) override;

 private:
  struct Gossip {
    std::uint64_t bytes = 0;
    std::uint64_t applied = 0;
  };
  static Gossip ring_round(Nodes& nodes, Trace* trace);
  double serve_batch(bw::fleet::FleetNode& node, std::size_t slot, double& oracle,
                     RunResult& out, Trace* trace) const;

  SyntheticCatalog model_;
  std::vector<std::string> snapshots_;  ///< kind-5 snapshot per warm node
  std::vector<std::vector<bw::core::FeatureVector>> batches_;
  std::vector<std::vector<double>> batch_best_;  ///< oracle runtime per run
};

FleetChurn::Gossip FleetChurn::ring_round(Nodes& nodes, Trace* trace) {
  // Each node sends to both ring neighbours through the wire codec.
  Gossip gossip;
  for (std::size_t src = 0; src < nodes.size(); ++src) {
    for (const std::size_t dst : {(src + 1) % nodes.size(), (src + nodes.size() - 1) % nodes.size()}) {
      bw::io::FleetDelta delta;
      {
        SpanScope span(trace, Span::kFleetMakeDelta);
        delta = nodes[src]->make_delta(nodes[dst]->node_id());
      }
      std::string bytes;
      {
        SpanScope span(trace, Span::kIoSaveFleetDelta);
        bytes = bw::io::save_fleet_delta(delta);
      }
      bw::io::FleetDelta received;
      {
        SpanScope span(trace, Span::kIoLoadFleetDelta);
        received = bw::io::load_fleet_delta(bytes);
      }
      bw::fleet::ApplyResult result;
      {
        SpanScope span(trace, Span::kFleetApplyDelta);
        result = nodes[dst]->apply_delta(received);
      }
      gossip.bytes += bytes.size();
      gossip.applied += result.applied;
      if (trace != nullptr) {
        std::uint64_t entries = 0;
        for (const auto& block : delta.origins) entries += block.arms.size();
        trace->add(Counter::kMakeDeltaEntries, entries);
        trace->add(Counter::kSaveFleetDeltaBytes, bytes.size());
        trace->add(Counter::kApplyApplied, result.applied);
        trace->add(Counter::kApplyStale, result.stale);
        trace->add(Counter::kApplyRefolds, result.changed ? 1 : 0);
      }
    }
  }
  return gossip;
}

double FleetChurn::serve_batch(bw::fleet::FleetNode& node, std::size_t slot,
                               double& oracle, RunResult& out, Trace* trace) const {
  const std::vector<bw::core::FeatureVector>& xs = batches_[slot];
  const std::uint64_t t0 = now_ns();
  std::vector<bw::serve::ServeDecision> decisions;
  {
    SpanScope span(trace, Span::kFleetRecommendBatch);
    decisions = node.recommend_batch(xs);
  }
  out.recommend.record(now_ns() - t0);
  std::vector<bw::serve::ServeObservation> observations;
  observations.reserve(xs.size());
  double regret = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t arm = decisions[i].arm;
    const double runtime = model_.runtime(arm, xs[i], slot * kBatch + i);
    regret += runtime - batch_best_[slot][i];
    oracle += batch_best_[slot][i];
    observations.push_back({decisions[i].shard, arm, xs[i], runtime});
  }
  const std::uint64_t t1 = now_ns();
  {
    SpanScope span(trace, Span::kFleetObserveBatch);
    node.observe_batch(observations);
  }
  out.observe.record(now_ns() - t1);
  out.attempted += 2;
  return regret;
}

FleetChurn::FleetChurn(std::uint64_t seed)
    : model_(kArms, kFeatures, bw::Rng(seed).child_seed(30)) {
  bw::Rng rng(bw::Rng(seed).child_seed(32));
  for (std::size_t b = 0; b < kBatchPool; ++b) {
    batches_.emplace_back();
    batch_best_.emplace_back();
    for (std::size_t i = 0; i < kBatch; ++i) {
      batches_.back().push_back(model_.context(rng));
      batch_best_.back().push_back(model_.best(batches_.back().back(), b * kBatch + i));
    }
  }

  Nodes nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    bw::fleet::FleetNodeConfig config;
    config.node_id = static_cast<std::uint32_t>(i);
    config.server.num_shards = 1;
    config.server.num_threads = 1;
    config.server.seed = bw::Rng(seed).child_seed(40 + i);
    config.server.bandit.policy_kind = bw::core::PolicyKind::kLinUcb;
    nodes.push_back(std::make_unique<bw::fleet::FleetNode>(model_.catalog(),
                                                           model_.feature_names(), config));
  }
  RunResult scratch;
  double oracle = 0.0;
  for (std::size_t b = 0; b < kWarmBatches; ++b) {
    serve_batch(*nodes[b % kNodes], (b * 7) % kBatchPool, oracle, scratch, nullptr);
    ring_round(nodes, nullptr);
  }
  for (const auto& node : nodes) snapshots_.push_back(node->save_snapshot());
}

RunResult FleetChurn::run(double seconds, bool traced) {
  RunResult out;
  RepeatCheck regret_check;
  RepeatCheck bytes_check;
  Trace main_trace;
  Trace* trace = traced ? &main_trace : nullptr;
  double bytes_per_decision = 0.0;
  Nodes nodes;

  const std::uint64_t run_start = now_ns();
  do {
    nodes.clear();
    const std::uint64_t setup_start = now_ns();
    for (const std::string& snapshot : snapshots_) {
      SpanScope span(trace, Span::kFleetRestore);
      nodes.push_back(
          std::make_unique<bw::fleet::FleetNode>(bw::fleet::FleetNode::restore(snapshot)));
    }
    out.setup_s.push_back(static_cast<double>(now_ns() - setup_start) * 1e-9);
    out.attempted += kNodes;
    if (trace != nullptr) {
      for (const std::string& snapshot : snapshots_) {
        trace->add(Counter::kRestoreBytes, snapshot.size());
      }
    }

    double regret = 0.0;
    double oracle = 0.0;
    std::uint64_t wire_bytes = 0;
    std::size_t restarts = 0;
    const std::uint64_t stream_start = now_ns();
    try {
      for (std::size_t b = 0; b < kStreamBatches; ++b) {
        {
          ParentScope request(trace, Parent::kFleetChurnRound);
          regret += serve_batch(*nodes[b % kNodes], b % kBatchPool, oracle, out, trace);
          if ((b + 1) % kRestartEvery == 0) {
            std::unique_ptr<bw::fleet::FleetNode>& victim = nodes[restarts++ % kNodes];
            std::string snapshot;
            {
              SpanScope span(trace, Span::kFleetSaveSnapshot);
              snapshot = victim->save_snapshot();
            }
            {
              SpanScope span(trace, Span::kFleetRestore);
              victim = std::make_unique<bw::fleet::FleetNode>(
                  bw::fleet::FleetNode::restore(snapshot));
            }
            out.attempted += 2;
            if (trace != nullptr) {
              trace->add(Counter::kSaveSnapshotBytes, snapshot.size());
              trace->add(Counter::kRestoreBytes, snapshot.size());
            }
          }
        }
        ParentScope request(trace, Parent::kFleetChurnGossip);
        const std::uint64_t t0 = now_ns();
        wire_bytes += ring_round(nodes, trace).bytes;
        out.sync.record(now_ns() - t0);
        ++out.attempted;
      }
    } catch (const std::exception& e) {
      ++out.failed;
      std::fprintf(stderr, "fleet-churn stream failed: %s\n", e.what());
    }
    out.add_episode(kStreamBatches * kBatch, now_ns() - stream_start);
    out.regret_pct = 100.0 * regret / oracle;
    bytes_per_decision =
        static_cast<double>(wire_bytes) / static_cast<double>(kStreamBatches * kBatch);
    if (!regret_check.check(out.regret_pct) || !bytes_check.check(bytes_per_decision)) {
      ++out.failed;
      std::fprintf(stderr, "fleet-churn: stream did not repeat (regret %.17g, bytes %.17g)\n",
                   out.regret_pct, bytes_per_decision);
    }
  } while (static_cast<double>(now_ns() - run_start) * 1e-9 < seconds);

  if (trace != nullptr) {
    std::size_t origins = 0;
    for (const auto& node : nodes) origins = std::max(origins, node->num_origins());
    trace->add(Counter::kFleetOrigins, origins);
  }
  // After the stream the fleet gossips until quiet; every node's fused
  // model must then serialise to the same bytes.
  ++out.attempted;
  try {
    std::size_t rounds = 0;
    while (ring_round(nodes, nullptr).applied > 0) {
      if (++rounds == kQuiesceRounds) throw std::runtime_error("gossip did not quiesce");
    }
    std::string first;
    for (const auto& node : nodes) {
      std::ostringstream os;
      bw::io::save_state(os, node->fused_model(), bw::io::Format::kBinary);
      if (first.empty()) {
        first = os.str();
      } else if (os.str() != first) {
        throw std::runtime_error("fused models differ across nodes");
      }
    }
  } catch (const std::exception& e) {
    ++out.failed;
    std::fprintf(stderr, "fleet-churn convergence check failed: %s\n", e.what());
  }
  out.trace = std::move(main_trace);
  out.extras.push_back({"gossip_bytes_per_decision", bytes_per_decision, "B"});
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_fleet_churn(std::uint64_t seed) {
  return std::make_unique<FleetChurn>(seed);
}

}  // namespace perfbench
