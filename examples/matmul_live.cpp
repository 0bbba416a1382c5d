// Live-kernel scenario (paper Experiment 3, but measured for real): the
// tiled matrix-squaring kernel actually executes on thread pools of
// different widths, and BanditWare learns online from wall-clock
// measurements — no simulation in the loop.
//
// Sizes are kept small so the example finishes in seconds; pass
// --max-size to stress it harder.
//
//   ./examples/matmul_live [--runs=24] [--max-size=160] [--threads=4]

#include <cstdio>

#include "apps/matmul.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/banditware.hpp"

int main(int argc, char** argv) {
  bw::CliParser cli("Live tiled-matmul hardware recommendation");
  cli.add_flag("runs", "24", "number of live kernel executions");
  cli.add_flag("min-size", "64", "smallest matrix size");
  cli.add_flag("max-size", "160", "largest matrix size");
  cli.add_flag("threads", "4", "thread count of the widest configuration");
  cli.add_flag("seed", "3", "random seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto max_threads = static_cast<std::size_t>(cli.get_int("threads"));
  // Thread-count arms: 1, max/2, max (deduplicated, ascending).
  std::vector<std::size_t> widths = {1};
  if (max_threads / 2 > 1) widths.push_back(max_threads / 2);
  if (max_threads > widths.back()) widths.push_back(max_threads);

  bw::hw::HardwareCatalog catalog;
  std::vector<std::unique_ptr<bw::ThreadPool>> pools;
  for (std::size_t w : widths) {
    catalog.add({std::string("T").append(std::to_string(w)), static_cast<int>(w),
                 static_cast<double>(w)});
    pools.push_back(std::make_unique<bw::ThreadPool>(w));
  }
  std::printf("arms (thread pools): %s\n", catalog.to_string().c_str());

  bw::core::BanditWare bandit(catalog, {"size"}, {});
  bw::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));

  const long runs = cli.get_int("runs");
  const long min_size = cli.get_int("min-size");
  const long max_size = cli.get_int("max-size");
  for (long i = 0; i < runs; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(min_size, max_size));
    const bw::core::FeatureVector x = {static_cast<double>(n)};
    const auto decision = bandit.next(x, rng);

    // The real kernel runs here; seconds are wall-clock.
    const double seconds =
        bw::apps::measure_tiled_square_seconds(n, *pools[decision.arm]);
    bandit.observe(decision.arm, x, seconds);
    std::printf("run %2ld: n=%4zu on %-3s -> %8.4f s %s\n", i, n,
                decision.spec->name.c_str(), seconds,
                decision.explored ? "(explore)" : "");
  }

  std::puts("\nlearned models (seconds = w * size + b):");
  bw::Table table({"arm", "w (s/row)", "b (s)", "observations"});
  for (std::size_t arm = 0; arm < catalog.size(); ++arm) {
    const auto& model = bandit.arm_model(arm).model();
    table.add_row({catalog[arm].name, bw::format_double(model.weights[0], 6),
                   bw::format_double(model.bias, 4),
                   std::to_string(model.n_observations)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\nrecommendation for n=%ld: %s\n", max_size,
              bandit.recommend({static_cast<double>(max_size)}).name.c_str());
  std::puts("(on a single-core machine the pools time-slice, so the arms look");
  std::puts(" similar — exactly the regime where the tolerance parameters matter)");
  return 0;
}
