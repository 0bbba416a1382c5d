// Microbenchmarks (google-benchmark) for the "lightweight, online" claim:
// per-decision select/observe latency of Algorithm 1, batch least-squares
// refits vs. incremental RLS updates, and tolerant selection itself.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/epsilon_greedy.hpp"
#include "core/linucb.hpp"
#include "core/tolerant.hpp"
#include "hardware/catalog.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/rls.hpp"

namespace {

bw::core::FeatureVector random_features(std::size_t dims, bw::Rng& rng) {
  bw::core::FeatureVector x(dims);
  for (double& v : x) v = rng.uniform(0.0, 10.0);
  return x;
}

void BM_EpsilonGreedySelect(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  bw::core::DecayingEpsilonGreedy policy(bw::hw::ndp_catalog(), dims, {});
  bw::Rng rng(1);
  // Warm the models so select() exercises real predictions.
  for (int i = 0; i < 30; ++i) {
    const auto x = random_features(dims, rng);
    policy.observe(rng.index(3), x, rng.uniform(10.0, 100.0));
  }
  const auto x = random_features(dims, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select(x, rng));
  }
}
BENCHMARK(BM_EpsilonGreedySelect)->Arg(1)->Arg(7)->Arg(32);

void BM_EpsilonGreedyObserve(benchmark::State& state) {
  // observe() is the incremental RLS form of the Alg. 1 line 11 refit;
  // its cost stays flat as the history grows. The history is built once
  // and copied per iteration (the copy is untimed).
  const auto history = static_cast<std::size_t>(state.range(0));
  bw::Rng rng(2);
  bw::core::DecayingEpsilonGreedy base(bw::hw::ndp_catalog(), 7, {});
  for (std::size_t i = 0; i < history; ++i) {
    base.observe(0, random_features(7, rng), rng.uniform(10.0, 100.0));
  }
  const auto x = random_features(7, rng);
  for (auto _ : state) {
    state.PauseTiming();
    bw::core::DecayingEpsilonGreedy policy = base;
    state.ResumeTiming();
    policy.observe(0, x, 50.0);
  }
}
BENCHMARK(BM_EpsilonGreedyObserve)->Arg(10)->Arg(100)->Arg(1000);

void BM_RlsUpdate(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  bw::linalg::RecursiveLeastSquares rls(dims);
  bw::Rng rng(3);
  const auto x = random_features(dims, rng);
  for (auto _ : state) {
    rls.update(x, 42.0);
  }
}
BENCHMARK(BM_RlsUpdate)->Arg(1)->Arg(7)->Arg(32);

void BM_BatchLeastSquares(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  bw::Rng rng(4);
  bw::linalg::Matrix x(n, 7);
  bw::linalg::Vector y(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 7; ++c) x(r, c) = rng.uniform(0.0, 10.0);
    y[r] = rng.uniform(10.0, 100.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bw::linalg::fit_linear(x, y));
  }
}
BENCHMARK(BM_BatchLeastSquares)->Arg(25)->Arg(100)->Arg(1000);

void BM_TolerantSelect(benchmark::State& state) {
  const auto arms = static_cast<std::size_t>(state.range(0));
  bw::Rng rng(5);
  std::vector<double> predictions(arms);
  std::vector<double> costs(arms);
  for (std::size_t i = 0; i < arms; ++i) {
    predictions[i] = rng.uniform(10.0, 100.0);
    costs[i] = rng.uniform(1.0, 8.0);
  }
  bw::core::ToleranceParams tolerance;
  tolerance.ratio = 0.05;
  tolerance.seconds = 20.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bw::core::tolerant_select(predictions, costs, tolerance));
  }
}
BENCHMARK(BM_TolerantSelect)->Arg(3)->Arg(16)->Arg(128);

void BM_LinUcbSelect(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  bw::core::LinUcb policy(bw::hw::ndp_catalog(), dims, {});
  bw::Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    policy.observe(rng.index(3), random_features(dims, rng), rng.uniform(10.0, 100.0));
  }
  const auto x = random_features(dims, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select(x, rng));
  }
}
BENCHMARK(BM_LinUcbSelect)->Arg(1)->Arg(7)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
