// banditware_cli — command-line front end for the BanditWare framework.
//
// A downstream user brings per-hardware run tables as CSV files (one per
// hardware setting, sharing a run-id column) or a binary .bwt run table,
// trains a recommender by online replay, saves its state, and queries
// recommendations later:
//
//   banditware_cli train
//     --data "H0=(2,16):runs_h0.csv,H1=(3,24):runs_h1.csv"
//     --features num_tasks --rounds 100 --tolerance-seconds 20
//     --state-out model.bw [--format=binary]
//
//   banditware_cli recommend --state-in model.bw --x 350
//   banditware_cli inspect --state-in model.bw      # any format, any kind
//   banditware_cli convert --state-in model.bw --state-out model.bwb --format=binary
//   banditware_cli serve --data runs.bwt --shards 4 --batch 64
//   banditware_cli demo        # self-contained end-to-end walkthrough
//
// Every state file round-trips through src/io/: saves honour
// --format={auto,text,binary} (auto = text), loads auto-detect from the
// leading bytes — text v1..v4 snapshots and the binary container all load
// through the same flag. `--state` is a deprecated alias for
// --state-in/--state-out and prints a warning. A --data value without '='
// is read as a binary run table (csv2bw converts CSVs).
//
// Exit codes: 0 success, 1 usage error, 2 data/state error.

#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/cycles.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/banditware.hpp"
#include "core/decision_log.hpp"
#include "dataframe/csv.hpp"
#include "experiments/datasets.hpp"
#include "io/fleet_wire.hpp"
#include "io/run_table_io.hpp"
#include "io/state_io.hpp"
#include "serve/bandit_server.hpp"
#include "serve/replay.hpp"

namespace {

using bw::core::BanditWare;

struct DataSource {
  bw::hw::HardwareSpec spec;
  std::string path;
};

/// Parses "H0=(2,16):runs_h0.csv,H1=(3,24,1):runs_h1.csv".
std::vector<DataSource> parse_data_flag(const std::string& value) {
  std::vector<DataSource> sources;
  // Entries are comma-separated, but specs contain commas inside (...)
  // — split on commas that are outside parentheses.
  std::vector<std::string> entries;
  int depth = 0;
  std::string current;
  for (char ch : value) {
    if (ch == '(') ++depth;
    if (ch == ')') --depth;
    if (ch == ',' && depth == 0) {
      entries.push_back(current);
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) entries.push_back(current);

  for (const std::string& item : entries) {
    const auto eq = item.find('=');
    const auto colon = item.find(':', eq == std::string::npos ? 0 : eq);
    if (eq == std::string::npos || colon == std::string::npos) {
      throw bw::InvalidArgument("--data entries must look like NAME=(cpus,mem):file.csv");
    }
    DataSource source;
    source.spec = bw::hw::parse_spec(item.substr(0, eq), item.substr(eq + 1, colon - eq - 1));
    source.path = item.substr(colon + 1);
    sources.push_back(std::move(source));
  }
  if (sources.empty()) throw bw::InvalidArgument("--data lists no sources");
  return sources;
}

std::vector<std::string> split_commas(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream stream(value);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

/// Registers the unified state flags plus the deprecated --state alias.
void add_state_flag(bw::CliParser& cli, const std::string& name, const std::string& help) {
  cli.add_flag(name, "", help);
  cli.add_flag("state", "", "deprecated alias for --" + name);
}

/// Resolves --state-in/--state-out against the deprecated --state alias.
std::string state_path(const bw::CliParser& cli, const std::string& name,
                       const std::string& fallback) {
  std::string value = cli.get(name);
  const std::string legacy = cli.get("state");
  if (!legacy.empty()) {
    std::fprintf(stderr, "warning: --state is deprecated; use --%s\n", name.c_str());
    if (value.empty()) value = legacy;
  }
  return value.empty() ? fallback : value;
}

std::ifstream open_state_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw bw::ParseError("cannot open state file: " + path);
  return in;
}

BanditWare load_state_file(const std::string& path) {
  std::ifstream in = open_state_file(path);
  bw::io::LoadInfo info;
  BanditWare bandit = bw::io::load_state(in, &info);
  if (info.truncated) {
    std::fprintf(stderr, "warning: %s is truncated; loaded the recoverable prefix\n",
                 path.c_str());
  }
  return bandit;
}

template <typename State>
void write_state_file(const std::string& path, const State& state, bw::io::Format format) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw bw::ParseError("cannot write state file: " + path);
  bw::io::save_state(out, state, format);
  if (!out) throw bw::ParseError("failed writing state file: " + path);
  const bw::io::Format actual =
      format == bw::io::Format::kAuto ? bw::io::Format::kText : format;
  std::printf("state saved to %s (%s)\n", path.c_str(), bw::io::to_string(actual).c_str());
}

/// --data dispatch: entries with '=' are per-hardware CSVs merged on the
/// --key column; a bare path is a binary .bwt run table (header carries the
/// catalog and feature names, so --features/--key are ignored).
bw::core::RunTable load_table(const bw::CliParser& cli) {
  const std::string data = cli.get("data");
  if (data.empty()) throw bw::InvalidArgument("--data is required");
  if (data.find('=') == std::string::npos) {
    std::ifstream in(data, std::ios::binary);
    if (!in) throw bw::ParseError("cannot open run table: " + data);
    bw::io::LoadInfo info;
    bw::core::RunTable table = bw::io::read_run_table(in, &info);
    if (info.truncated) {
      std::fprintf(stderr, "warning: %s is truncated; loaded %zu complete rows\n",
                   data.c_str(), table.num_groups());
    }
    std::printf("loaded binary run table %s: %zu run groups x %zu hardware settings\n",
                data.c_str(), table.num_groups(), table.num_arms());
    return table;
  }

  const auto sources = parse_data_flag(data);
  const auto features = split_commas(cli.get("features"));
  if (features.empty()) throw bw::InvalidArgument("--features must name at least one column");
  bw::hw::HardwareCatalog catalog;
  std::vector<bw::df::DataFrame> frames;
  for (const auto& source : sources) {
    catalog.add(source.spec);
    frames.push_back(bw::df::read_csv_file(source.path));
    std::printf("loaded %s: %zu runs from %s\n", source.spec.name.c_str(),
                frames.back().num_rows(), source.path.c_str());
  }
  bw::core::RunTable table =
      bw::exp::merge_frames_to_table(frames, cli.get("key"), features, catalog);
  std::printf("merged table: %zu run groups x %zu hardware settings\n",
              table.num_groups(), table.num_arms());
  return table;
}

int cmd_train(int argc, char** argv) {
  bw::CliParser cli("banditware_cli train — fit a recommender from run tables");
  cli.add_flag("data", "",
               "NAME=(cpus,mem[,gpus]):file.csv per hardware (comma separated), "
               "or one binary .bwt run table");
  cli.add_flag("key", "run_id", "shared run-id column (CSV data only)");
  cli.add_flag("features", "", "comma-separated feature column names (CSV data only)");
  cli.add_flag("rounds", "100", "replay rounds");
  cli.add_flag("tolerance-seconds", "0", "tolerance_seconds of Algorithm 1");
  cli.add_flag("tolerance-ratio", "0", "tolerance_ratio of Algorithm 1");
  cli.add_flag("epsilon0", "1.0", "initial exploration rate");
  cli.add_flag("decay", "0.99", "epsilon decay factor");
  cli.add_flag("lambda", "1.0",
               "RLS forgetting factor in (0, 1]; < 1 discounts old observations");
  cli.add_flag("seed", "42", "replay seed");
  add_state_flag(cli, "state-out", "output state file");
  cli.add_flag("format", "auto", "state file format: auto | text | binary");
  cli.add_flag("log", "", "optional CSV decision-audit log to write");
  if (!cli.parse(argc, argv)) return 0;

  const bw::core::RunTable table = load_table(cli);

  bw::core::BanditWareConfig config;
  config.policy.initial_epsilon = cli.get_double("epsilon0");
  config.policy.decay = cli.get_double("decay");
  config.policy.tolerance.seconds = cli.get_double("tolerance-seconds");
  config.policy.tolerance.ratio = cli.get_double("tolerance-ratio");
  const double lambda = cli.get_double("lambda");
  if (!std::isfinite(lambda) || lambda <= 0.0 || lambda > 1.0) {
    throw bw::InvalidArgument("--lambda must be in (0, 1]");
  }
  config.policy.fit.forgetting = lambda;
  BanditWare bandit(table.catalog(), table.feature_names(), config);

  bw::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  bw::core::DecisionLog log(table.feature_names());
  const long rounds = cli.get_int("rounds");
  for (long round = 0; round < rounds; ++round) {
    const std::size_t group = rng.index(table.num_groups());
    const bw::core::FeatureVector x = table.features_of(group);
    const double epsilon = bandit.epsilon();
    const auto decision = bandit.next(x, rng);
    const double runtime = table.runtime(group, decision.arm);
    bandit.observe(decision.arm, x, runtime);
    log.record(decision, x, runtime, epsilon);
  }
  std::printf("trained for %ld rounds; epsilon=%.3f exploration-rate=%.2f\n", rounds,
              bandit.epsilon(), log.exploration_rate());
  if (!cli.get("log").empty()) {
    bw::df::write_csv_file(log.to_frame(), cli.get("log"));
    std::printf("decision audit log written to %s\n", cli.get("log").c_str());
  }

  write_state_file(state_path(cli, "state-out", "banditware_state.bw"), bandit,
                   bw::io::parse_format(cli.get("format")));
  return 0;
}

int cmd_recommend(int argc, char** argv) {
  bw::CliParser cli("banditware_cli recommend — query a trained recommender");
  add_state_flag(cli, "state-in", "state file from `train` (any format)");
  cli.add_flag("x", "", "comma-separated feature values, in training order");
  if (!cli.parse(argc, argv)) return 0;

  const BanditWare bandit =
      load_state_file(state_path(cli, "state-in", "banditware_state.bw"));
  const auto tokens = split_commas(cli.get("x"));
  if (tokens.size() != bandit.feature_names().size()) {
    std::ostringstream os;
    os << "--x needs " << bandit.feature_names().size() << " values (";
    for (const auto& name : bandit.feature_names()) os << name << ' ';
    os << ")";
    throw bw::InvalidArgument(os.str());
  }
  bw::core::FeatureVector x;
  for (const auto& token : tokens) x.push_back(std::stod(token));

  const auto predictions = bandit.predictions(x);
  const auto& chosen = bandit.recommend(x);
  bw::Table table({"hardware", "spec", "predicted runtime (s)", "recommended"});
  for (std::size_t arm = 0; arm < bandit.num_arms(); ++arm) {
    const auto& spec = bandit.catalog()[arm];
    table.add_row({spec.name, spec.to_string(), bw::format_double(predictions[arm], 2),
                   spec.name == chosen.name ? "<==" : ""});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}

void inspect_header(const bw::io::ProbeResult& probe, const std::string& path) {
  const char* kind = "?";
  switch (probe.kind) {
    case bw::io::PayloadKind::kBanditWareState:
      kind = "banditware-state";
      break;
    case bw::io::PayloadKind::kBanditServerState:
      kind = "banditserver-state";
      break;
    case bw::io::PayloadKind::kRunTable:
      kind = "run-table";
      break;
    case bw::io::PayloadKind::kFleetDelta:
      kind = "fleet-delta";
      break;
    case bw::io::PayloadKind::kFleetNode:
      kind = "fleet-node";
      break;
  }
  std::printf("file: %s\nkind: %s\nformat: %s v%d\n", path.c_str(), kind,
              bw::io::to_string(probe.format).c_str(), probe.version);
}

void inspect_bandit(const BanditWare& bandit) {
  std::printf("features:");
  for (const auto& name : bandit.feature_names()) std::printf(" %s", name.c_str());
  std::printf("\npolicy: %s\nepsilon: %.4f\nobservations: %zu\n",
              bw::core::to_string(bandit.policy_kind()).c_str(), bandit.epsilon(),
              bandit.num_observations());
  bw::Table table({"hardware", "spec", "observations", "learned model"});
  for (std::size_t arm = 0; arm < bandit.num_arms(); ++arm) {
    const auto& spec = bandit.catalog()[arm];
    const auto& model = bandit.arm_model(arm);
    table.add_row({spec.name, spec.to_string(), std::to_string(model.n_observations()),
                   model.model().to_string()});
  }
  std::fputs(table.to_string().c_str(), stdout);
}

void inspect_server(const bw::serve::BanditServer& server) {
  const auto& config = server.config();
  std::printf("shards: %zu\nsharding: %s\npolicy: %s\n", server.num_shards(),
              bw::serve::to_string(config.sharding).c_str(),
              bw::core::to_string(config.bandit.policy_kind).c_str());
  const auto counts = server.shard_observation_counts();
  for (std::size_t s = 0; s < counts.size(); ++s) {
    std::printf("shard %zu observations: %zu\n", s, counts[s]);
  }
}

void print_table_rows(const char* label, const std::deque<std::vector<double>>& rows,
                      std::uint64_t first_index) {
  if (rows.empty()) return;
  std::printf("%s:\n", label);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("  row %llu:", static_cast<unsigned long long>(first_index + i));
    for (double v : rows[i]) std::printf(" %g", v);
    std::printf("\n");
  }
}

/// Streams a binary run table: header summary, the first --head rows, the
/// total count, and the last --tail rows (kept in a ring buffer — the file
/// is never loaded whole).
void inspect_run_table(std::istream& in, std::size_t head, std::size_t tail) {
  bw::io::RunTableReader reader(in);
  std::printf("features:");
  for (const auto& name : reader.feature_names()) std::printf(" %s", name.c_str());
  std::printf("\narms:");
  for (const auto& spec : reader.catalog().specs()) {
    std::printf(" %s%s", spec.name.c_str(), spec.to_string().c_str());
  }
  std::printf("\n");

  std::deque<std::vector<double>> head_rows;
  std::deque<std::vector<double>> tail_rows;
  std::vector<double> features;
  std::vector<double> runtimes;
  while (reader.next_row(features, runtimes)) {
    std::vector<double> row = features;
    row.insert(row.end(), runtimes.begin(), runtimes.end());
    if (head_rows.size() < head) {
      head_rows.push_back(std::move(row));
    } else if (tail > 0) {
      tail_rows.push_back(std::move(row));
      if (tail_rows.size() > tail) tail_rows.pop_front();
    }
  }
  std::printf("rows: %llu%s\n", static_cast<unsigned long long>(reader.rows_read()),
              reader.truncated() ? " (truncated file — complete rows only)" : "");
  print_table_rows("head", head_rows, 0);
  // Rows that fell inside the head window are not repeated in the tail.
  print_table_rows("tail", tail_rows, reader.rows_read() - tail_rows.size());
}

std::string slurp(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void print_fleet_origins(const std::vector<bw::io::FleetOriginBlock>& origins) {
  bw::Table table({"origin", "incarnation", "arms", "observations"});
  for (const auto& block : origins) {
    std::size_t n = 0;
    for (const auto& entry : block.arms) n += entry.stats.n;
    table.add_row({std::to_string(block.origin.node),
                   std::to_string(block.origin.incarnation),
                   std::to_string(block.arms.size()), std::to_string(n)});
  }
  std::fputs(table.to_string().c_str(), stdout);
}

void inspect_fleet_delta(std::istream& in, bw::io::LoadInfo& info) {
  bool truncated = false;
  const bw::io::FleetDelta delta = bw::io::load_fleet_delta(slurp(in), &truncated);
  info.truncated = truncated;
  std::printf("sender: node %u incarnation %u\npolicy: %s\nlambda: %g\n",
              delta.sender, delta.sender_incarnation,
              bw::core::to_string(delta.config.policy).c_str(), delta.config.lambda);
  std::printf("features: %u, arms: %u, origin blocks: %zu, version vector: %zu\n",
              delta.config.num_features, delta.config.num_arms, delta.origins.size(),
              delta.version_vector.size());
  print_fleet_origins(delta.origins);
}

void inspect_fleet_node(std::istream& in, bw::io::LoadInfo& info) {
  bool truncated = false;
  const bw::io::FleetNodeState state = bw::io::load_fleet_node(slurp(in), &truncated);
  info.truncated = truncated;
  std::printf("node: %u incarnation %u\npolicy: %s\nlambda: %g\n", state.node,
              state.incarnation, bw::core::to_string(state.config.policy).c_str(),
              state.config.lambda);
  std::printf("features: %u, arms: %u, origins: %zu, server blob: %zu bytes\n",
              state.config.num_features, state.config.num_arms, state.origins.size(),
              state.server_blob.size());
  print_fleet_origins(state.origins);
}

int cmd_inspect(int argc, char** argv) {
  bw::CliParser cli(
      "banditware_cli inspect — identify and summarize any state or run-table file");
  add_state_flag(cli, "state-in", "file to inspect (any format, any kind)");
  cli.add_flag("head", "5", "run tables: rows to print from the start");
  cli.add_flag("tail", "5", "run tables: rows to print from the end");
  if (!cli.parse(argc, argv)) return 0;

  // `inspect <file>` is the natural spelling; --state-in wins if both given.
  std::string path = state_path(cli, "state-in", "");
  if (path.empty() && !cli.positional().empty()) path = cli.positional().front();
  if (path.empty()) path = "banditware_state.bw";
  std::ifstream in = open_state_file(path);
  bw::io::ProbeResult probe;
  if (!bw::io::probe(in, probe)) {
    throw bw::ParseError("unrecognized state file: " + path);
  }
  inspect_header(probe, path);
  bw::io::LoadInfo info;
  switch (probe.kind) {
    case bw::io::PayloadKind::kBanditWareState:
      inspect_bandit(bw::io::load_state(in, &info));
      break;
    case bw::io::PayloadKind::kBanditServerState:
      inspect_server(bw::io::load_server_state(in, &info));
      break;
    case bw::io::PayloadKind::kRunTable:
      inspect_run_table(in, static_cast<std::size_t>(cli.get_int("head")),
                        static_cast<std::size_t>(cli.get_int("tail")));
      return 0;
    case bw::io::PayloadKind::kFleetDelta:
      inspect_fleet_delta(in, info);
      break;
    case bw::io::PayloadKind::kFleetNode:
      inspect_fleet_node(in, info);
      break;
  }
  if (info.truncated) {
    std::printf("note: file is truncated — recoverable prefix shown\n");
  }
  return 0;
}

int cmd_convert(int argc, char** argv) {
  bw::CliParser cli("banditware_cli convert — re-encode a state file (text <-> binary)");
  add_state_flag(cli, "state-in", "input state file (format auto-detected)");
  cli.add_flag("state-out", "", "output state file");
  cli.add_flag("format", "binary", "output format: text | binary");
  if (!cli.parse(argc, argv)) return 0;

  const std::string in_path = state_path(cli, "state-in", "");
  const std::string out_path = cli.get("state-out");
  if (in_path.empty()) throw bw::InvalidArgument("--state-in is required");
  if (out_path.empty()) throw bw::InvalidArgument("--state-out is required");
  const bw::io::Format format = bw::io::parse_format(cli.get("format"));
  if (format == bw::io::Format::kAuto) {
    throw bw::InvalidArgument("convert needs an explicit --format (text or binary)");
  }

  std::ifstream in = open_state_file(in_path);
  bw::io::ProbeResult probe;
  if (!bw::io::probe(in, probe)) {
    throw bw::ParseError("unrecognized state file: " + in_path);
  }
  switch (probe.kind) {
    case bw::io::PayloadKind::kBanditWareState:
      write_state_file(out_path, bw::io::load_state(in), format);
      break;
    case bw::io::PayloadKind::kBanditServerState:
      write_state_file(out_path, bw::io::load_server_state(in), format);
      break;
    case bw::io::PayloadKind::kRunTable:
      throw bw::InvalidArgument("run tables convert via csv2bw / bw2csv, not convert");
    case bw::io::PayloadKind::kFleetDelta:
    case bw::io::PayloadKind::kFleetNode:
      throw bw::InvalidArgument("fleet wire formats are binary-only; nothing to convert");
  }
  return 0;
}

int cmd_serve(int argc, char** argv) {
  bw::CliParser cli(
      "banditware_cli serve — batched throughput replay through the sharded engine");
  cli.add_flag("data", "",
               "NAME=(cpus,mem[,gpus]):file.csv per hardware (comma separated), "
               "or one binary .bwt run table");
  cli.add_flag("key", "run_id", "shared run-id column (CSV data only)");
  cli.add_flag("features", "", "comma-separated feature column names (CSV data only)");
  cli.add_flag("shards", "4", "serving shards (independent bandit replicas)");
  cli.add_flag("sharding", "feature-hash", "routing: feature-hash | round-robin");
  cli.add_flag("batch", "64", "workflows per recommend/observe batch");
  cli.add_flag("rounds", "100", "batches to replay");
  cli.add_flag("threads", "0", "batch-execution threads (0 = shards)");
  cli.add_flag("sync-every", "0",
               "fuse all shard models every K observe batches (0 = never)");
  cli.add_flag("sync-mode", "inline",
               "inline (stop-the-world fusion) | async (background fuser, "
               "observes never block on fusion math)");
  cli.add_flag("policy", "epsilon-greedy",
               "learning policy: epsilon-greedy | linucb | thompson");
  cli.add_flag("alpha", "1.0", "linucb confidence width (policy=linucb)");
  cli.add_flag("posterior-scale", "1.0",
               "thompson sampling scale v (policy=thompson)");
  cli.add_flag("tolerance-seconds", "0", "tolerance_seconds of Algorithm 1");
  cli.add_flag("tolerance-ratio", "0", "tolerance_ratio of Algorithm 1");
  cli.add_flag("epsilon0", "1.0", "initial exploration rate (policy=epsilon-greedy)");
  cli.add_flag("decay", "0.99", "epsilon decay factor (policy=epsilon-greedy)");
  cli.add_flag("lambda", "1.0",
               "RLS forgetting factor in (0, 1]; < 1 discounts old observations");
  cli.add_flag("seed", "42", "replay + exploration seed");
  add_state_flag(cli, "state-out", "optional output file for the engine snapshot");
  cli.add_flag("format", "auto", "snapshot format: auto | text | binary");
  if (!cli.parse(argc, argv)) return 0;

  const bw::core::RunTable table = load_table(cli);
  std::printf("replaying %zu run groups x %zu hardware settings\n", table.num_groups(),
              table.num_arms());

  const long shards = cli.get_int("shards");
  const long batch = cli.get_int("batch");
  const long threads = cli.get_int("threads");
  const long rounds = cli.get_int("rounds");
  const long sync_every = cli.get_int("sync-every");
  if (shards < 1) throw bw::InvalidArgument("--shards must be >= 1");
  if (batch < 1) throw bw::InvalidArgument("--batch must be >= 1");
  if (threads < 0) throw bw::InvalidArgument("--threads must be >= 0");
  if (rounds < 0) throw bw::InvalidArgument("--rounds must be >= 0");
  if (sync_every < 0) throw bw::InvalidArgument("--sync-every must be >= 0");

  bw::serve::BanditServerConfig config;
  config.num_shards = static_cast<std::size_t>(shards);
  config.sharding = bw::serve::parse_sharding_policy(cli.get("sharding"));
  config.num_threads = static_cast<std::size_t>(threads);
  config.sync_every = static_cast<std::size_t>(sync_every);
  config.sync_mode = bw::serve::parse_sync_mode(cli.get("sync-mode"));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.bandit.policy_kind = bw::core::parse_policy_kind(cli.get("policy"));
  config.bandit.alpha = cli.get_double("alpha");
  config.bandit.posterior_scale = cli.get_double("posterior-scale");
  config.bandit.policy.initial_epsilon = cli.get_double("epsilon0");
  config.bandit.policy.decay = cli.get_double("decay");
  config.bandit.policy.tolerance.seconds = cli.get_double("tolerance-seconds");
  config.bandit.policy.tolerance.ratio = cli.get_double("tolerance-ratio");
  const double lambda = cli.get_double("lambda");
  if (!std::isfinite(lambda) || lambda <= 0.0 || lambda > 1.0) {
    throw bw::InvalidArgument("--lambda must be in (0, 1]");
  }
  config.bandit.policy.fit.forgetting = lambda;
  bw::serve::BanditServer server(table.catalog(), table.feature_names(), config);

  bw::serve::ReplayOptions options;
  options.batch = static_cast<std::size_t>(batch);
  options.rounds = rounds;
  options.seed = config.seed;
  const bw::serve::ReplayReport result = bw::serve::replay_run_table(server, table, options);
  // Quiesce the background fuser so the report (and any saved snapshot)
  // reflects every requested fusion.
  server.drain_sync();

  bw::Table report({"metric", "value"});
  report.add_row({"shards", std::to_string(server.num_shards())});
  report.add_row({"sharding", bw::serve::to_string(config.sharding)});
  report.add_row({"policy", bw::core::to_string(config.bandit.policy_kind)});
  if (config.sync_every > 0) {
    report.add_row({"shard syncs", std::to_string(server.sync_count()) + " (every " +
                                       std::to_string(config.sync_every) + " batches, " +
                                       bw::serve::to_string(config.sync_mode) + ")"});
  }
  report.add_row({"decisions served", std::to_string(result.decisions)});
  report.add_row({"wall time (s)", bw::format_double(result.wall_s, 3)});
  report.add_row({"decisions/sec", bw::format_double(result.decisions_per_s, 0)});
  report.add_row({"mean regret (s)", bw::format_double(result.mean_regret_s, 3)});
  report.add_row({"batch p50 (ms)", bw::format_double(result.batch_p50_ms, 3)});
  report.add_row({"batch p95 (ms)", bw::format_double(result.batch_p95_ms, 3)});
  report.add_row({"batch p99 (ms)", bw::format_double(result.batch_p99_ms, 3)});
  std::fputs(report.to_string().c_str(), stdout);

  for (std::size_t s = 0; s < result.shard_observations.size(); ++s) {
    std::printf("shard %zu observations: %zu\n", s, result.shard_observations[s]);
  }

  const std::string snapshot = state_path(cli, "state-out", "");
  if (!snapshot.empty()) {
    write_state_file(snapshot, server, bw::io::parse_format(cli.get("format")));
  }
  return 0;
}

int cmd_demo(int argc, char** argv) {
  bw::CliParser cli("banditware_cli demo — end-to-end walkthrough on generated data");
  cli.add_flag("dir", "", "working directory (default: a temp directory)");
  if (!cli.parse(argc, argv)) return 0;

  namespace fs = std::filesystem;
  const fs::path dir = cli.get("dir").empty()
                           ? fs::temp_directory_path() / "banditware_demo"
                           : fs::path(cli.get("dir"));
  fs::create_directories(dir);
  std::printf("demo directory: %s\n\n", dir.string().c_str());

  // 1. Generate per-hardware Cycles run tables and write them as CSV.
  const auto catalog = bw::hw::synthetic_cycles_catalog();
  bw::apps::CyclesDatasetOptions options;
  options.num_groups = 120;
  const auto frames =
      bw::apps::build_cycles_frames(catalog, bw::apps::CyclesConfig{}, options);
  std::string data_flag;
  for (std::size_t arm = 0; arm < frames.size(); ++arm) {
    const fs::path csv = dir / ("runs_" + catalog[arm].name + ".csv");
    bw::df::write_csv_file(frames[arm], csv.string());
    if (arm) data_flag += ',';
    data_flag += catalog[arm].name + "=" + catalog[arm].to_string() + ":" + csv.string();
  }
  std::printf("wrote 4 per-hardware CSV tables under %s\n\n", dir.string().c_str());

  // 2. Train.
  const fs::path state = dir / "model.bw";
  {
    std::string rounds = "--rounds=150";
    std::string tolerance = "--tolerance-seconds=20";
    std::string data = "--data=" + data_flag;
    std::string state_flag = "--state-out=" + state.string();
    const char* train_argv[] = {"train",          data.c_str(),      "--features=num_tasks",
                                rounds.c_str(),   tolerance.c_str(), state_flag.c_str()};
    const int rc = cmd_train(6, const_cast<char**>(train_argv));
    if (rc != 0) return rc;
  }

  // 3. Recommend for a few workflow sizes.
  for (const char* size : {"120", "300", "480"}) {
    std::printf("\nrecommend --x %s:\n", size);
    std::string x = std::string("--x=") + size;
    std::string state_flag = "--state-in=" + state.string();
    const char* rec_argv[] = {"recommend", state_flag.c_str(), x.c_str()};
    const int rc = cmd_recommend(3, const_cast<char**>(rec_argv));
    if (rc != 0) return rc;
  }
  std::puts("\ndemo complete — state file and CSVs left in the demo directory.");
  return 0;
}

void print_usage() {
  std::puts("banditware_cli — hardware recommendation from run-table CSVs");
  std::puts(
      "usage: banditware_cli <train|recommend|inspect|convert|serve|demo> [flags]");
  std::puts("       banditware_cli <command> --help for per-command flags");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "train") return cmd_train(argc - 1, argv + 1);
    if (command == "recommend") return cmd_recommend(argc - 1, argv + 1);
    if (command == "inspect") return cmd_inspect(argc - 1, argv + 1);
    if (command == "convert") return cmd_convert(argc - 1, argv + 1);
    if (command == "serve") return cmd_serve(argc - 1, argv + 1);
    if (command == "demo") return cmd_demo(argc - 1, argv + 1);
    print_usage();
    return 1;
  } catch (const bw::InvalidArgument& error) {
    std::fprintf(stderr, "usage error: %s\n", error.what());
    return 1;
  } catch (const bw::Error& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
