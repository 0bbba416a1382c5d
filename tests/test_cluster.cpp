// Tests for the Kubernetes-like cluster simulator (cluster/).

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "cluster/cluster_sim.hpp"
#include "cluster/node.hpp"

namespace bw::cluster {
namespace {

std::vector<Node> two_nodes() {
  std::vector<Node> nodes;
  nodes.emplace_back("node-a", 4.0, 16.0);
  nodes.emplace_back("node-b", 8.0, 32.0);
  return nodes;
}

TEST(Node, AllocateAndRelease) {
  Node node("n", 4.0, 16.0);
  EXPECT_TRUE(node.fits(4.0, 16.0));
  node.allocate(2.0, 8.0);
  EXPECT_DOUBLE_EQ(node.cpu_used(), 2.0);
  EXPECT_DOUBLE_EQ(node.cpu_free(), 2.0);
  EXPECT_DOUBLE_EQ(node.utilization(), 0.5);
  node.release(2.0, 8.0);
  EXPECT_DOUBLE_EQ(node.cpu_used(), 0.0);
}

TEST(Node, RejectsOverAllocationAndOverRelease) {
  Node node("n", 2.0, 8.0);
  EXPECT_THROW(node.allocate(3.0, 1.0), InvalidArgument);
  EXPECT_THROW(node.allocate(1.0, 9.0), InvalidArgument);
  node.allocate(1.0, 4.0);
  EXPECT_THROW(node.release(2.0, 1.0), InvalidArgument);
  EXPECT_THROW(node.allocate(-1.0, 1.0), InvalidArgument);
}

TEST(Node, RejectsBadConstruction) {
  EXPECT_THROW(Node("", 1.0, 1.0), InvalidArgument);
  EXPECT_THROW(Node("n", 0.0, 1.0), InvalidArgument);
}

TEST(ClusterSim, SinglePodRunsImmediately) {
  ClusterSim sim(two_nodes());
  const PodId pod = sim.submit(0.0, {"p", 2.0, 4.0, 10.0});
  sim.run_until_idle();
  const PodRecord& record = sim.record(pod);
  EXPECT_EQ(record.phase, PodPhase::kCompleted);
  EXPECT_DOUBLE_EQ(record.start_s, 0.0);
  EXPECT_DOUBLE_EQ(record.wait_s(), 0.0);
  EXPECT_DOUBLE_EQ(record.runtime_s(), 10.0);  // empty node: no inflation
}

TEST(ClusterSim, QueuesWhenFullThenDrainsFifo) {
  std::vector<Node> nodes;
  nodes.emplace_back("only", 2.0, 8.0);
  ClusterSim sim(std::move(nodes));
  const PodId first = sim.submit(0.0, {"first", 2.0, 4.0, 10.0});
  const PodId second = sim.submit(1.0, {"second", 2.0, 4.0, 5.0});
  const PodId third = sim.submit(2.0, {"third", 2.0, 4.0, 5.0});
  sim.run_until_idle();
  EXPECT_DOUBLE_EQ(sim.record(first).start_s, 0.0);
  EXPECT_DOUBLE_EQ(sim.record(second).start_s, sim.record(first).finish_s);
  EXPECT_DOUBLE_EQ(sim.record(third).start_s, sim.record(second).finish_s);
  EXPECT_GT(sim.record(third).wait_s(), 0.0);
}

TEST(ClusterSim, ImpossiblePodRejectedUpfront) {
  ClusterSim sim(two_nodes());
  EXPECT_THROW(sim.submit(0.0, {"giant", 100.0, 4.0, 1.0}), InvalidArgument);
  EXPECT_THROW(sim.submit(0.0, {"zero", 0.0, 4.0, 1.0}), InvalidArgument);
  EXPECT_THROW(sim.submit(0.0, {"nodur", 1.0, 4.0, 0.0}), InvalidArgument);
}

TEST(ClusterSim, SubmitInPastThrows) {
  ClusterSim sim(two_nodes());
  sim.submit(5.0, {"p", 1.0, 1.0, 1.0});
  sim.run_until(10.0);
  EXPECT_THROW(sim.submit(1.0, {"late", 1.0, 1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(sim.run_until(5.0), InvalidArgument);
}

TEST(ClusterSim, ContentionInflatesBusyNodes) {
  std::vector<Node> nodes;
  nodes.emplace_back("hot", 4.0, 32.0);
  ClusterSim sim(std::move(nodes), PlacementPolicy::kFirstFit);
  sim.submit(0.0, {"a", 3.0, 4.0, 100.0});
  const PodId second = sim.submit(1.0, {"b", 1.0, 4.0, 100.0});
  sim.run_until_idle();
  // Second pod lands on a node already at 75% CPU -> inflated runtime.
  EXPECT_GT(sim.record(second).inflation, 1.0);
  EXPECT_GT(sim.record(second).runtime_s(), 100.0);
}

TEST(ClusterSim, SoloPodOnWholeNodeHasNoContention) {
  std::vector<Node> nodes;
  nodes.emplace_back("solo", 4.0, 32.0);
  ClusterSim sim(std::move(nodes));
  const PodId pod = sim.submit(0.0, {"p", 4.0, 32.0, 10.0});
  sim.run_until_idle();
  EXPECT_DOUBLE_EQ(sim.record(pod).inflation, 1.0);
  EXPECT_DOUBLE_EQ(sim.record(pod).runtime_s(), 10.0);
}

TEST(ClusterSim, BestFitPacksTightNodes) {
  // best-fit should pick the node with the least leftover CPU.
  ClusterSim sim(two_nodes(), PlacementPolicy::kBestFit);
  const PodId pod = sim.submit(0.0, {"p", 3.0, 4.0, 1.0});
  sim.run_until(0.5);
  EXPECT_EQ(sim.record(pod).node, std::optional<std::size_t>{0});  // 4-cpu node
}

TEST(ClusterSim, WorstFitSpreadsLoad) {
  ClusterSim sim(two_nodes(), PlacementPolicy::kWorstFit);
  const PodId pod = sim.submit(0.0, {"p", 3.0, 4.0, 1.0});
  sim.run_until(0.5);
  EXPECT_EQ(sim.record(pod).node, std::optional<std::size_t>{1});  // 8-cpu node
}

TEST(ClusterSim, RunUntilAdvancesPartially) {
  ClusterSim sim(two_nodes());
  const PodId pod = sim.submit(0.0, {"p", 1.0, 1.0, 10.0});
  sim.run_until(5.0);
  EXPECT_EQ(sim.record(pod).phase, PodPhase::kRunning);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until_idle();
  EXPECT_EQ(sim.record(pod).phase, PodPhase::kCompleted);
}

TEST(ClusterSim, StatsAggregateCompletedPods) {
  ClusterSim sim(two_nodes());
  sim.submit(0.0, {"a", 1.0, 1.0, 10.0});
  sim.submit(0.0, {"b", 1.0, 1.0, 20.0});
  sim.run_until_idle();
  const ClusterStats stats = sim.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_runtime_s, 15.0);
  EXPECT_DOUBLE_EQ(stats.makespan_s, 20.0);
}

TEST(ClusterSim, ManyPodsConserveResources) {
  ClusterSim sim(two_nodes(), PlacementPolicy::kBestFit);
  for (int i = 0; i < 50; ++i) {
    sim.submit(static_cast<double>(i) * 0.25,
               {std::string("p").append(std::to_string(i)), 1.5, 2.0, 3.0});
  }
  sim.run_until_idle();
  EXPECT_EQ(sim.stats().completed, 50u);
  // After the run every node must be fully released.
  for (const auto& node : sim.nodes()) {
    EXPECT_NEAR(node.cpu_used(), 0.0, 1e-9);
    EXPECT_NEAR(node.memory_used_gb(), 0.0, 1e-9);
  }
}

TEST(ClusterSim, NeedsAtLeastOneNode) {
  EXPECT_THROW(ClusterSim({}), InvalidArgument);
}

TEST(PlacementPolicy, NamesAreStable) {
  EXPECT_EQ(to_string(PlacementPolicy::kFirstFit), "first-fit");
  EXPECT_EQ(to_string(PlacementPolicy::kBestFit), "best-fit");
  EXPECT_EQ(to_string(PlacementPolicy::kWorstFit), "worst-fit");
}

}  // namespace
}  // namespace bw::cluster
