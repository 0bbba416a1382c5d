// bench_state_io — serialization throughput of the io layer: binary
// container vs text snapshots for BanditWare state, and binary .bwt run
// tables vs per-hardware CSV ingest for replay data. Self-timed with
// std::chrono (no google-benchmark dependency).
//
//   ./bench/bench_state_io [--arms=2000] [--dims=4,8] [--rows=100000]
//       [--repeats=3] [--min-speedup=0] [--json=BENCH_state_io.json]
//
// State cells build an engine with --arms hardware settings (d feature
// dimensions each, trained past the identifiable point) and time
// save/load through io::save_state / io::load_state for both formats —
// at thousands of arms the text path is dominated by 17-significant-digit
// double formatting/parsing, the binary path by memcpy. Table cells write
// the same --rows-row run table as per-hardware CSVs and as one .bwt, then
// time the full ingest (CSV parse + inner-join merge vs streaming block
// reads); --rows scales to millions for soak runs.
//
// --min-speedup=S (0 = report only) exits nonzero unless binary load is
// >= S x faster than text load for every dimension, and .bwt ingest is
// >= S x faster than CSV ingest — the CI perf-smoke gate (S=10).
//
// Emits machine-readable BENCH_state_io.json so the perf trajectory is
// tracked across PRs.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/banditware.hpp"
#include "core/run_table.hpp"
#include "dataframe/csv.hpp"
#include "experiments/datasets.hpp"
#include "hardware/catalog.hpp"
#include "io/run_table_io.hpp"
#include "io/state_io.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

bw::hw::HardwareCatalog synthetic_catalog(std::size_t arms) {
  bw::hw::HardwareCatalog catalog;
  for (std::size_t i = 0; i < arms; ++i) {
    catalog.add({std::string("h").append(std::to_string(i)), static_cast<int>(2 + i % 14),
                 16.0 + static_cast<double>(i % 8) * 8.0, static_cast<int>(i % 2)});
  }
  return catalog;
}

std::vector<std::string> synthetic_features(std::size_t d) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < d; ++i) {
    names.push_back(std::string("f").append(std::to_string(i)));
  }
  return names;
}

/// Trains every arm past the identifiable point so the snapshot carries
/// fitted models (realistic double entropy, not zeros).
bw::core::BanditWare build_state(std::size_t arms, std::size_t d) {
  bw::core::BanditWare bandit(synthetic_catalog(arms), synthetic_features(d), {});
  bw::Rng rng(7);
  bw::core::FeatureVector x(d);
  for (std::size_t arm = 0; arm < arms; ++arm) {
    for (std::size_t obs = 0; obs < d + 3; ++obs) {
      for (double& v : x) v = rng.uniform(1.0, 10.0);
      double load = 0.0;
      for (double v : x) load += v;
      bandit.observe(static_cast<bw::core::ArmIndex>(arm), x,
                     5.0 + load / (1.0 + static_cast<double>(arm % 14)));
    }
  }
  return bandit;
}

bw::core::RunTable build_table(std::size_t rows, std::size_t d, std::size_t arms) {
  bw::Rng rng(13);
  bw::linalg::Matrix features(rows, d);
  bw::linalg::Matrix runtimes(rows, arms);
  for (std::size_t r = 0; r < rows; ++r) {
    double load = 0.0;
    for (std::size_t f = 0; f < d; ++f) {
      const double v = rng.uniform(1.0, 10.0);
      features(r, f) = v;
      load += v;
    }
    for (std::size_t arm = 0; arm < arms; ++arm) {
      runtimes(r, arm) = 5.0 + load / (1.0 + static_cast<double>(arm));
    }
  }
  return bw::core::RunTable(synthetic_features(d), std::move(features),
                            std::move(runtimes), synthetic_catalog(arms));
}

struct CellResult {
  std::string cell;    ///< e.g. "state_save", "table_ingest"
  std::size_t d = 0;   ///< feature dimensions (0 for table cells)
  double text_s = 0.0;
  double binary_s = 0.0;
  double text_bytes = 0.0;
  double binary_bytes = 0.0;
  double speedup() const { return binary_s > 0.0 ? text_s / binary_s : 0.0; }
};

/// Best-of-N timing: state files fit in memory, so each repeat re-runs the
/// full serialize/parse and the minimum discards scheduler noise.
template <typename F>
double best_of(std::size_t repeats, F&& body) {
  double best = 0.0;
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const double elapsed = seconds_since(start);
    if (i == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

void write_json(const std::string& path, std::size_t arms, std::size_t rows,
                const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"state_io\",\n  \"arms\": %zu,\n"
               "  \"rows\": %zu,\n  \"results\": [\n",
               arms, rows);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    std::fprintf(f,
                 "    {\"cell\": \"%s\", \"d\": %zu, \"text_s\": %.6f, "
                 "\"binary_s\": %.6f, \"text_bytes\": %.0f, \"binary_bytes\": %.0f, "
                 "\"speedup\": %.2f}%s\n",
                 cell.cell.c_str(), cell.d, cell.text_s, cell.binary_s,
                 cell.text_bytes, cell.binary_bytes, cell.speedup(),
                 i + 1 < cells.size() ? "," : "");
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
  bw::CliParser cli("state/run-table serialization throughput: binary vs text/CSV");
  cli.add_flag("arms", "2000", "hardware settings in the state cells");
  cli.add_flag("dims", "4,8", "feature dimensions to sweep");
  cli.add_flag("rows", "100000", "run-table rows in the ingest cells");
  cli.add_flag("table-arms", "4", "hardware settings in the ingest cells");
  cli.add_flag("repeats", "3", "timing repeats per cell (best-of)");
  cli.add_flag("min-speedup", "0",
               "fail unless binary beats text/CSV by this factor in the "
               "state-load and table-ingest cells (0 = report only)");
  cli.add_flag("json", "BENCH_state_io.json", "machine-readable output path");
  if (!cli.parse(argc, argv)) return 0;

  const auto arms = static_cast<std::size_t>(cli.get_int("arms"));
  const auto rows = static_cast<std::size_t>(cli.get_int("rows"));
  const auto table_arms = static_cast<std::size_t>(cli.get_int("table-arms"));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  const double min_speedup = cli.get_double("min-speedup");
  const auto dims = bw::parse_size_list(cli.get("dims"));
  if (arms == 0 || rows == 0 || table_arms == 0 || repeats == 0) {
    std::fprintf(stderr, "--arms/--rows/--table-arms/--repeats must be positive\n");
    return 1;
  }

  std::vector<CellResult> cells;
  bool gate_failed = false;
  bw::Table table({"cell", "d", "text (s)", "binary (s)", "binary speedup",
                   "text MB", "binary MB"});

  for (const std::size_t d : dims) {
    const bw::core::BanditWare bandit = build_state(arms, d);

    std::string text_blob;
    std::string binary_blob;
    CellResult save;
    save.cell = "state_save";
    save.d = d;
    save.text_s = best_of(repeats, [&] {
      std::ostringstream os;
      bw::io::save_state(os, bandit, bw::io::Format::kText);
      text_blob = os.str();
    });
    save.binary_s = best_of(repeats, [&] {
      std::ostringstream os(std::ios::binary);
      bw::io::save_state(os, bandit, bw::io::Format::kBinary);
      binary_blob = os.str();
    });
    save.text_bytes = static_cast<double>(text_blob.size());
    save.binary_bytes = static_cast<double>(binary_blob.size());
    cells.push_back(save);

    CellResult load;
    load.cell = "state_load";
    load.d = d;
    load.text_s = best_of(repeats, [&] {
      std::istringstream is(text_blob, std::ios::binary);
      const bw::core::BanditWare loaded = bw::io::load_state(is);
      if (loaded.num_arms() != arms) std::abort();  // keep the load live
    });
    load.binary_s = best_of(repeats, [&] {
      std::istringstream is(binary_blob, std::ios::binary);
      const bw::core::BanditWare loaded = bw::io::load_state(is);
      if (loaded.num_arms() != arms) std::abort();
    });
    load.text_bytes = save.text_bytes;
    load.binary_bytes = save.binary_bytes;
    cells.push_back(load);

    for (const CellResult& cell : {save, load}) {
      table.add_row({cell.cell, std::to_string(cell.d),
                     bw::format_double(cell.text_s, 4),
                     bw::format_double(cell.binary_s, 4),
                     bw::format_double(cell.speedup(), 1) + "x",
                     bw::format_double(cell.text_bytes / 1e6, 1),
                     bw::format_double(cell.binary_bytes / 1e6, 1)});
    }
    if (min_speedup > 0.0 && load.speedup() < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: d=%zu binary state load is only %.1fx faster than text "
                   "(limit %.1fx)\n",
                   d, load.speedup(), min_speedup);
      gate_failed = true;
    }
  }

  // Table-ingest cell: the full replay intake — CSV parse + inner-join
  // merge vs the streaming .bwt reader — through real files, since that is
  // the path `banditware_cli serve --data` takes.
  {
    const std::size_t d = dims.front();
    const bw::core::RunTable source = build_table(rows, d, table_arms);
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "bench_state_io";
    fs::create_directories(dir);

    std::vector<std::string> csv_paths;
    std::vector<std::int64_t> run_ids(source.num_groups());
    for (std::size_t r = 0; r < run_ids.size(); ++r) {
      run_ids[r] = static_cast<std::int64_t>(r);
    }
    for (std::size_t arm = 0; arm < table_arms; ++arm) {
      bw::df::DataFrame frame;
      frame.add_column("run_id", bw::df::Column(run_ids));
      for (std::size_t f = 0; f < d; ++f) {
        std::vector<double> column(source.num_groups());
        for (std::size_t r = 0; r < column.size(); ++r) {
          column[r] = source.features()(r, f);
        }
        frame.add_column(source.feature_names()[f], bw::df::Column(std::move(column)));
      }
      std::vector<double> runtime(source.num_groups());
      for (std::size_t r = 0; r < runtime.size(); ++r) {
        runtime[r] = source.runtimes()(r, arm);
      }
      frame.add_column("runtime", bw::df::Column(std::move(runtime)));
      const fs::path csv = dir / ("runs_" + std::to_string(arm) + ".csv");
      bw::df::write_csv_file(frame, csv.string());
      csv_paths.push_back(csv.string());
    }
    const fs::path bwt = dir / "runs.bwt";
    {
      std::ofstream out(bwt, std::ios::binary);
      bw::io::write_run_table(out, source);
    }

    CellResult ingest;
    ingest.cell = "table_ingest";
    ingest.text_s = best_of(repeats, [&] {
      std::vector<bw::df::DataFrame> frames;
      for (const std::string& path : csv_paths) {
        frames.push_back(bw::df::read_csv_file(path));
      }
      const bw::core::RunTable loaded = bw::exp::merge_frames_to_table(
          frames, "run_id", source.feature_names(), source.catalog());
      if (loaded.num_groups() != rows) std::abort();
    });
    ingest.binary_s = best_of(repeats, [&] {
      std::ifstream in(bwt, std::ios::binary);
      const bw::core::RunTable loaded = bw::io::read_run_table(in);
      if (loaded.num_groups() != rows) std::abort();
    });
    for (const std::string& path : csv_paths) {
      ingest.text_bytes += static_cast<double>(fs::file_size(path));
    }
    ingest.binary_bytes = static_cast<double>(fs::file_size(bwt));
    cells.push_back(ingest);
    table.add_row({ingest.cell, std::to_string(d),
                   bw::format_double(ingest.text_s, 4),
                   bw::format_double(ingest.binary_s, 4),
                   bw::format_double(ingest.speedup(), 1) + "x",
                   bw::format_double(ingest.text_bytes / 1e6, 1),
                   bw::format_double(ingest.binary_bytes / 1e6, 1)});
    if (min_speedup > 0.0 && ingest.speedup() < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: .bwt ingest is only %.1fx faster than CSV ingest "
                   "(limit %.1fx)\n",
                   ingest.speedup(), min_speedup);
      gate_failed = true;
    }
    fs::remove_all(dir);
  }

  std::printf("state cells: %zu arms; ingest cell: %zu rows x %zu arms\n\n", arms,
              rows, table_arms);
  std::fputs(table.to_string().c_str(), stdout);
  write_json(cli.get("json"), arms, rows, cells);
  return gate_failed ? 1 : 0;
}
