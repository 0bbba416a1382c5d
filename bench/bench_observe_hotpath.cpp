// bench_observe_hotpath — observations/sec of the per-arm learning hot path
// as a function of history length: the O(d^2) incremental (RLS) arm the
// bank builds (core::ArmBank::make_arm) vs the paper-literal Alg. 1 line
// 11, a per-observation linalg::fit_linear batch-QR refit over the whole
// history (written here, as the reference).
// Self-timed (std::chrono) so it runs anywhere the library builds. The
// incremental win grows linearly with n: batch observe i costs O(i d^2),
// incremental observe costs O(d^2) flat.
//
//   ./bench/bench_observe_hotpath [--history=500,1000,2000,5000] [--dim=4]
//       [--json=BENCH_observe_hotpath.json]
//       [--check-n=2000 --min-speedup=5]   # exit 1 if the gate fails (CI)
//
// Emits a machine-readable BENCH_*.json so the perf trajectory is tracked
// across PRs.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/arm_bank.hpp"
#include "linalg/lstsq.hpp"

namespace {

struct Stream {
  std::vector<bw::core::FeatureVector> xs;
  std::vector<double> ys;
};

/// One deterministic observation stream shared by both learners.
Stream make_stream(std::size_t n, std::size_t dim, std::uint64_t seed) {
  bw::Rng rng(seed);
  std::vector<double> w(dim);
  for (double& v : w) v = rng.uniform(0.5, 3.0);
  Stream stream;
  stream.xs.reserve(n);
  stream.ys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    bw::core::FeatureVector x(dim);
    double y = 2.0;
    for (std::size_t c = 0; c < dim; ++c) {
      x[c] = rng.uniform(1.0, 10.0);
      y += w[c] * x[c];
    }
    stream.xs.push_back(std::move(x));
    stream.ys.push_back(y + rng.normal(0.0, 0.25));
  }
  return stream;
}

double time_incremental(const Stream& stream, std::size_t dim) {
  bw::linalg::RecursiveLeastSquares arm = bw::core::ArmBank::make_arm(dim, {});
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.xs.size(); ++i) {
    arm.update(stream.xs[i], stream.ys[i]);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

/// Alg. 1 line 11 taken literally: after every observation, rebuild the
/// design matrix from the whole history and refit it with QR.
double time_batch_refit(const Stream& stream, std::size_t dim) {
  std::vector<double> ys;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.xs.size(); ++i) {
    ys.push_back(stream.ys[i]);
    bw::linalg::Matrix design(ys.size(), dim);
    for (std::size_t r = 0; r < ys.size(); ++r) {
      for (std::size_t c = 0; c < dim; ++c) design(r, c) = stream.xs[r][c];
    }
    bw::linalg::fit_linear(design, ys);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

struct Row {
  std::size_t history = 0;
  double incremental_obs_per_s = 0.0;
  double batch_obs_per_s = 0.0;
  double speedup = 0.0;
};

void write_json(const std::string& path, std::size_t dim, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"observe_hotpath\",\n  \"dim\": %zu,\n", dim);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"history\": %zu, \"incremental_obs_per_s\": %.1f, "
                 "\"batch_obs_per_s\": %.1f, \"speedup\": %.2f}%s\n",
                 row.history, row.incremental_obs_per_s, row.batch_obs_per_s,
                 row.speedup, i + 1 < rows.size() ? "," : "");
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
  bw::CliParser cli("learning hot path: observations/sec, incremental vs batch refit");
  cli.add_flag("history", "500,1000,2000,5000", "history lengths to sweep");
  cli.add_flag("dim", "4", "feature dimension d");
  cli.add_flag("json", "BENCH_observe_hotpath.json", "machine-readable output path");
  cli.add_flag("check-n", "0", "history length the speedup gate applies to (0 = off)");
  cli.add_flag("min-speedup", "0", "fail (exit 1) if speedup at check-n is below this");
  if (!cli.parse(argc, argv)) return 0;

  const auto history_lengths = bw::parse_size_list(cli.get("history"));
  if (cli.get_int("dim") <= 0 || cli.get_int("check-n") < 0) {
    std::fprintf(stderr, "--dim must be positive and --check-n non-negative\n");
    return 1;
  }
  const auto dim = static_cast<std::size_t>(cli.get_int("dim"));
  const auto check_n = static_cast<std::size_t>(cli.get_int("check-n"));
  const double min_speedup = cli.get_double("min-speedup");

  std::vector<Row> rows;
  bw::Table table({"history n", "incremental obs/s", "batch obs/s", "speedup"});
  for (std::size_t n : history_lengths) {
    const Stream stream = make_stream(n, dim, /*seed=*/17);
    // Warm up allocators / caches on a short prefix before timing.
    const Stream warmup = make_stream(std::min<std::size_t>(n, 64), dim, 17);
    time_incremental(warmup, dim);

    Row row;
    row.history = n;
    row.incremental_obs_per_s = static_cast<double>(n) / time_incremental(stream, dim);
    row.batch_obs_per_s = static_cast<double>(n) / time_batch_refit(stream, dim);
    row.speedup = row.incremental_obs_per_s / row.batch_obs_per_s;
    rows.push_back(row);
    table.add_row({std::to_string(n), bw::format_double(row.incremental_obs_per_s, 0),
                   bw::format_double(row.batch_obs_per_s, 0),
                   bw::format_double(row.speedup, 1) + "x"});
  }
  std::printf(
      "observe() hot path, d=%zu (incremental RLS vs per-observation QR refit)\n\n",
      dim);
  std::fputs(table.to_string().c_str(), stdout);
  write_json(cli.get("json"), dim, rows);

  if (check_n > 0) {
    for (const Row& row : rows) {
      if (row.history != check_n) continue;
      if (row.speedup < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: incremental speedup %.2fx at n=%zu is below the %.2fx gate\n",
                     row.speedup, check_n, min_speedup);
        return 1;
      }
      std::printf("gate OK: %.2fx >= %.2fx at n=%zu\n", row.speedup, min_speedup,
                  check_n);
      return 0;
    }
    std::fprintf(stderr, "FAIL: gate history length %zu was not benchmarked\n", check_n);
    return 1;
  }
  return 0;
}
