// Allocation pins for the gossip round's hot paths. This binary replaces
// the global operator new with one that counts, per thread, every heap
// allocation the calling thread makes, so a test can assert how many one
// call makes:
//   * RLS::merge (with and without a base, λ ∈ {1, 0.98}, and the evidence
//     form the fleet fold uses) makes none once the thread has merged one
//     estimator of the shape: its information sums, factor and forward
//     solve live in per-thread scratch.
//   * A refolding FleetNode::apply_delta (fold the entries, refold the
//     dirty arms, adopt them in the engine) makes the same small number of
//     allocations however many origins the fold walks — only the
//     republished read snapshot and the engine's lock list allocate.
//   * An inline BanditServer::sync_shards() after the engine's first makes
//     1 + 2N allocations on N shards at any arm count: the lock list and
//     each shard's republished read snapshot. The fusion model, every
//     shard's replica and the merges reuse their storage.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fleet/fleet_node.hpp"
#include "fleet/sim.hpp"
#include "hardware/catalog.hpp"
#include "linalg/rls.hpp"
#include "serve/bandit_server.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

void* counted_malloc(std::size_t size) {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace bw {
namespace {

using linalg::RecursiveLeastSquares;

/// Allocations the calling thread makes while `fn` runs.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = t_allocations;
  fn();
  return t_allocations - before;
}

void feed(RecursiveLeastSquares& rls, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(rls.dim());
  for (int i = 0; i < count; ++i) {
    for (double& v : x) v = rng.uniform(1.0, 10.0);
    rls.update(x, 2.0 + 0.5 * x[0] - 0.25 * x[1] + rng.uniform(-0.1, 0.1));
  }
}

TEST(AllocFree, RlsMergeAllocatesNothingAfterItsFirstCallOnAThread) {
  for (const double lambda : {1.0, 0.98}) {
    SCOPED_TRACE("lambda " + std::to_string(lambda));
    RecursiveLeastSquares base(3, 1e-3, lambda);
    feed(base, 20, 1);
    RecursiveLeastSquares self = base;
    RecursiveLeastSquares other = base;
    feed(self, 15, 2);
    feed(other, 25, 3);
    RecursiveLeastSquares* const no_base = nullptr;
    for (const RecursiveLeastSquares* ancestor : {no_base, &base}) {
      SCOPED_TRACE(ancestor == nullptr ? "no base" : "with base");
      RecursiveLeastSquares warm = self;
      warm.merge(other, ancestor);  // the thread's first merge of this shape
      RecursiveLeastSquares fused = self;
      EXPECT_EQ(allocations_during([&] { fused.merge(other, ancestor); }), 0u);
      EXPECT_EQ(fused.r(), warm.r());
      EXPECT_EQ(fused.theta(), warm.theta());
    }
    // The evidence form is the no-base merge, bit for bit, and allocates
    // nothing either — also when it adopts the evidence into a bare prior.
    RecursiveLeastSquares from_estimator = self;
    from_estimator.merge(other);
    RecursiveLeastSquares from_evidence = self;
    RecursiveLeastSquares prior(3, 1e-3, lambda);
    const auto merge_into = [&other](RecursiveLeastSquares& rls) {
      const auto merge = [&] { rls.merge(other.r(), other.z(), other.n_observations()); };
      return allocations_during(merge);
    };
    EXPECT_EQ(merge_into(from_evidence), 0u);
    EXPECT_EQ(from_evidence.r(), from_estimator.r());
    EXPECT_EQ(from_evidence.z(), from_estimator.z());
    EXPECT_EQ(from_evidence.theta(), from_estimator.theta());
    EXPECT_EQ(merge_into(prior), 0u);
    EXPECT_EQ(prior.theta(), other.theta());
  }
}

fleet::FleetNode make_node(std::uint32_t id) {
  fleet::FleetNodeConfig config;
  config.node_id = id;
  config.server.num_shards = 1;
  config.server.seed = 5;
  config.server.bandit.policy_kind = core::PolicyKind::kLinUcb;
  config.server.bandit.policy.fit.ridge = 1e-3;
  config.server.bandit.policy.fit.forgetting = 0.98;
  return fleet::FleetNode(hw::ndp_catalog(), {"num_tasks", "mem_gb"}, config);
}

/// Observes `batches` batches of 4 on `node`, spread over every arm.
void feed(fleet::FleetNode& node, int batches, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t arms = node.server().catalog().size();
  for (int b = 0; b < batches; ++b) {
    std::vector<serve::ServeObservation> observations;
    for (std::size_t i = 0; i < 4; ++i) {
      const core::FeatureVector x = {rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)};
      const core::ArmIndex arm = (static_cast<std::size_t>(b) * 4 + i) % arms;
      const hw::HardwareSpec& spec = node.server().catalog()[arm];
      const double runtime = fleet::FleetSim::synthetic_runtime(spec, x[0] + x[1]);
      observations.push_back({0, arm, x, runtime});
    }
    node.observe_batch(observations);
  }
}

/// Allocations of one refolding apply at a receiver that holds its own
/// origin plus one per peer: the first peer sends fresh evidence for a few
/// arms after every origin (and every peer's floors) is already known.
std::size_t refolding_apply_allocations(std::uint32_t peers) {
  fleet::FleetNode receiver = make_node(0);
  std::vector<fleet::FleetNode> senders;
  for (std::uint32_t id = 1; id <= peers; ++id) {
    senders.push_back(make_node(id));
    feed(senders.back(), 3, id);
    receiver.apply_delta(senders.back().make_delta(0));
  }
  EXPECT_EQ(receiver.num_origins(), peers + 1u);
  feed(senders.front(), 1, 99);
  const fleet::FleetDelta delta = senders.front().make_delta(0);
  fleet::ApplyResult result;
  const auto apply = [&] { result = receiver.apply_delta(delta); };
  const std::size_t count = allocations_during(apply);
  EXPECT_TRUE(result.changed);
  EXPECT_GT(result.applied, 0u);
  return count;
}

TEST(AllocFree, RefoldingApplyAllocatesTheSameSmallCountAtAnyOriginCount) {
  const std::size_t two_origins = refolding_apply_allocations(1);
  const std::size_t sixteen_origins = refolding_apply_allocations(15);
  RecordProperty("allocations_at_2_origins", static_cast<int>(two_origins));
  RecordProperty("allocations_at_16_origins", static_cast<int>(sixteen_origins));
  EXPECT_EQ(two_origins, sixteen_origins);
  // The engine's lock list and the republished snapshot (its plane copy
  // and the shared block that holds it).
  EXPECT_LE(sixteen_origins, 3u);
}

/// `arms` arms with names short enough that copying one allocates nothing.
hw::HardwareCatalog synth_catalog(std::size_t arms) {
  hw::HardwareCatalog catalog;
  for (std::size_t i = 0; i < arms; ++i) {
    catalog.add({std::string("S").append(std::to_string(i)), static_cast<int>(1 + i % 8),
                 8.0 * static_cast<double>(1 + i % 4)});
  }
  return catalog;
}

/// Allocations of one inline sync_shards() on an engine of `shards`
/// shards over `arms` arms, once every shard has observed on every arm and
/// one sync has run.
std::size_t inline_sync_allocations(std::size_t arms, std::size_t shards) {
  serve::BanditServerConfig config;
  config.num_shards = shards;
  config.sharding = serve::ShardingPolicy::kRoundRobin;
  config.seed = 5;
  config.bandit.policy.fit.ridge = 1e-3;
  serve::BanditServer server(synth_catalog(arms), {"num_tasks", "mem_gb"}, config);
  Rng rng(arms * 100 + shards);
  const auto feed = [&] {
    std::vector<serve::ServeObservation> observations;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      for (core::ArmIndex arm = 0; arm < arms; ++arm) {
        const core::FeatureVector x = {rng.uniform(1.0, 10.0), rng.uniform(1.0, 10.0)};
        const double runtime = 1.0 + x[0] * static_cast<double>(1 + arm % 3) + x[1];
        observations.push_back({shard, arm, x, runtime});
      }
    }
    server.observe_batch(observations);
  };
  feed();
  server.sync_shards();  // the engine's first sync, and this thread's first merge
  feed();
  const std::size_t syncs = server.sync_count();
  const std::size_t count = allocations_during([&] { server.sync_shards(); });
  EXPECT_EQ(server.sync_count(), syncs + 1);
  return count;
}

TEST(AllocFree, InlineSyncAllocatesOnlyTheLockListAndTheSnapshots) {
  for (const std::size_t arms : {5, 64}) {
    for (const std::size_t shards : {2, 4}) {
      const std::string cell =
          std::to_string(arms) + "_arms_" + std::to_string(shards) + "_shards";
      SCOPED_TRACE(cell);
      const std::size_t count = inline_sync_allocations(arms, shards);
      RecordProperty("allocations_at_" + cell, static_cast<int>(count));
      // The engine's lock list, and per shard the republished snapshot (its
      // plane copy and the shared block that holds it).
      EXPECT_EQ(count, 1 + 2 * shards);
    }
  }
}

}  // namespace
}  // namespace bw
