// bw_perfbench — the repository benchmark. One process runs one workload:
//
//   bw_perfbench --workload serve-mixed|catalog-wide|fleet-churn
//                --seed N --seconds S --trace 0|1
//
// Every input is generated from the seed before timing. A run repeats
// episodes (set-up, then one fixed stream) until S seconds have passed; the
// streams are identical, so their deterministic outputs (regret, sync and
// byte counts) must repeat bit for bit and feed the output checks.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced, each for S seconds, and prints the per-layer
// span metrics, each parent span's explained share, and the tracing
// overhead (the drop in decisions_per_s between the two passes). The last
// stdout line is always one JSON object: correct, attempted, failed,
// metrics. The exit code is 0 only when every output check passed.
//
// End-to-end metric definitions, per workload:
//   recommend_*: one greedy read (serve-mixed), one 32-context lookup
//     batch (catalog-wide), one node recommend_batch (fleet-churn).
//   observe_*: one feedback call including the fusion its cadence triggers.
//   sync_*: one state-propagation round — sync_shards() (serve-mixed), one
//     binary checkpoint (catalog-wide, whose single shard has nothing to
//     fuse), one ring gossip round of encode, decode and apply
//     (fleet-churn). Every workload reports every metric.
//   decisions_per_s: median over the run's episodes of decisions served,
//     greedy plus exploring, per second of the episode's stream.
//   setup_s: median over the run's episodes of engine construction plus
//     durable-state restore.
//   peak_rss_mb: the peak resident memory an untimed episode (set-up plus
//     one stream, run after the warm-up) adds above what the process holds
//     when it starts: the generated inputs, the code, and nothing of the
//     warm-up, whose freed heap is handed back first. So it is the engine's
//     memory and its set-up's, not the inputs'. The largest of five such
//     episodes is reported.
// The p99s are printed with their sample counts but kept out of the JSON
// metric set: on a shared 4-vCPU host their quartile spread across five
// seeds was 10-170% of the median, so the traced run reports them per layer
// and per request type instead. failed_frac and gossip_bytes_per_decision
// are printed in the report block; they are 0 or absent on some workloads,
// so they are not part of the JSON metric set either.
//
// Before the measured run the workload runs untimed for kWarmupSeconds, so
// a run that starts on an idle machine does not time the ramp-up.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

constexpr double kWarmupSeconds = 2.0;
constexpr int kMemoryProbes = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: bw_perfbench --workload serve-mixed|catalog-wide|fleet-churn "
               "--seed N --seconds S --trace 0|1\n");
}

/// Every flag is required, once.
bool parse_args(int argc, char** argv, Args& args) {
  if (argc != 9) return false;
  unsigned seen = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    unsigned bit = 0;
    if (flag == "--workload") {
      bit = 1;
      args.workload = value;
    } else if (flag == "--seed") {
      bit = 2;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      bit = 4;
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0)) return false;
    } else if (flag == "--trace") {
      bit = 8;
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
    if ((seen & bit) != 0) return false;
    seen |= bit;
  }
  return seen == 15;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double decisions_per_s(const RunResult& r) { return median(r.episode_rate); }

std::vector<Metric> end_to_end(const RunResult& r, double peak_rss_mb) {
  return {
      {"decisions_per_s", decisions_per_s(r), "1/s"},
      {"recommend_p50_us", r.recommend.quantile_us(0.50), "us"},
      {"observe_p50_us", r.observe.quantile_us(0.50), "us"},
      {"sync_p50_us", r.sync.quantile_us(0.50), "us"},
      {"regret_pct", r.regret_pct, "%"},
      {"setup_s", median(r.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::vector<Metric> per_layer(const RunResult& traced, double overhead_pct) {
  using perfbench::Counter;
  using perfbench::Parent;
  using perfbench::Span;
  const perfbench::Trace& t = traced.trace;
  std::vector<Metric> out;
  for (int s = 0; s < static_cast<int>(Span::kCount); ++s) {
    const auto span = static_cast<Span>(s);
    const perfbench::SpanStats& stats = t.span(span);
    const std::string name = perfbench::span_name(span);
    out.push_back({name + ".count", static_cast<double>(stats.latency.count()), "count"});
    out.push_back({name + ".busy_us", static_cast<double>(stats.latency.sum_ns()) / 1000.0,
                   "us"});
    out.push_back({name + ".p50_us", stats.latency.quantile_us(0.50), "us"});
    out.push_back({name + ".p99_us", stats.latency.quantile_us(0.99), "us"});
    out.push_back({name + ".failed", static_cast<double>(stats.failed), "count"});
  }
  for (int c = 0; c < static_cast<int>(Counter::kCount); ++c) {
    const auto counter = static_cast<Counter>(c);
    const std::string name = perfbench::counter_name(counter);
    const char* unit = name.ends_with(".bytes") ? "B" : "count";
    out.push_back({name, static_cast<double>(t.counter(counter)), unit});
  }
  const std::uint64_t applied = t.counter(Counter::kApplyApplied);
  out.push_back({"fleet.apply_delta.useful_frac",
                 ratio(applied, applied + t.counter(Counter::kApplyStale)), "ratio"});

  std::uint64_t parent_ns = 0;
  std::uint64_t children_ns = 0;
  for (int p = 0; p < static_cast<int>(Parent::kCount); ++p) {
    const auto parent = static_cast<Parent>(p);
    const perfbench::ParentStats& stats = t.parent(parent);
    const std::string name = perfbench::parent_name(parent);
    parent_ns += stats.latency.sum_ns();
    children_ns += stats.children_ns;
    out.push_back({name + ".count", static_cast<double>(stats.latency.count()), "count"});
    out.push_back({name + ".p50_us", stats.latency.quantile_us(0.50), "us"});
    out.push_back({name + ".p99_us", stats.latency.quantile_us(0.99), "us"});
    out.push_back({name + ".explained_frac", ratio(stats.children_ns, stats.latency.sum_ns()),
                   "ratio"});
  }
  out.push_back({"trace.explained_frac", ratio(children_ns, parent_ns), "ratio"});
  out.push_back({"trace.overhead_pct", overhead_pct, "%"});
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const Args& args) {
  perfbench::pin_main_thread();
  std::unique_ptr<perfbench::Workload> workload;
  if (args.workload == "serve-mixed") {
    workload = perfbench::make_serve_mixed(args.seed);
  } else if (args.workload == "catalog-wide") {
    workload = perfbench::make_catalog_wide(args.seed);
  } else if (args.workload == "fleet-churn") {
    workload = perfbench::make_fleet_churn(args.seed);
  } else {
    usage();
    return 2;
  }

  const std::string host = "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                           " cpu=" + json_string(cpu_model()) + " compiler=" +
                           json_string(BW_PERFBENCH_COMPILER) + " build=" +
                           BW_PERFBENCH_BUILD_TYPE + " seed=" + std::to_string(args.seed);
  std::printf("perfbench %s seconds=%g trace=%d\nhost: %s\n", args.workload.c_str(),
              args.seconds, args.trace ? 1 : 0, host.c_str());

  workload->run(kWarmupSeconds, false);
  // Memory is measured over untimed episodes, each starting from a trimmed
  // heap with a reset high-water mark. How much an episode faults in afresh
  // varies by up to 10% with which freed pages the allocator hands out, so
  // the metric is the largest of kMemoryProbes episodes. The peak over a
  // timed run would instead grow with its variable episode count.
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (int i = 0; i < kMemoryProbes; ++i) {
    perfbench::RssProbe rss;
    rss.start();
    const RunResult probe = workload->run(0.0, false);
    peak_rss_mb = std::max(peak_rss_mb, rss.peak_mb());
    attempted += probe.attempted;
    failed += probe.failed;
  }
  const RunResult plain = workload->run(args.seconds, false);
  attempted += plain.attempted;
  failed += plain.failed;
  std::printf("untraced: %zu episodes, %llu decisions in %.3f s of streams\n",
              plain.setup_s.size(), static_cast<unsigned long long>(plain.decisions),
              plain.stream_s);
  const std::vector<Metric> e2e = end_to_end(plain, peak_rss_mb);
  print_table(e2e);
  const std::pair<const char*, const perfbench::Histogram*> latencies[] = {
      {"recommend", &plain.recommend}, {"observe", &plain.observe}, {"sync", &plain.sync}};
  for (const auto& [name, h] : latencies) {
    std::printf("  %-9s p50 %12.3f us  p99 %12.3f us  (%llu samples)\n", name,
                h->quantile_us(0.50), h->quantile_us(0.99),
                static_cast<unsigned long long>(h->count()));
  }
  std::vector<Metric> report = plain.extras;
  report.push_back({"failed_frac", ratio(plain.failed, plain.attempted), "ratio"});
  print_table(report);
  std::string extras = "{";
  for (std::size_t i = 0; i < report.size(); ++i) {
    extras += (i > 0 ? ", " : "") + json_string(report[i].name) + ": " +
              json_number(report[i].value);
  }
  std::printf("report: %s}\n", extras.c_str());

  std::vector<Metric> metrics = e2e;
  if (args.trace) {
    const RunResult traced = workload->run(args.seconds, true);
    attempted += traced.attempted;
    failed += traced.failed;
    const double base = decisions_per_s(plain);
    const double overhead =
        base > 0.0 ? 100.0 * (base - decisions_per_s(traced)) / base : 0.0;
    metrics = per_layer(traced, overhead);
    std::printf("traced: %zu episodes, decisions_per_s %.1f (untraced %.1f)\n",
                traced.setup_s.size(), decisions_per_s(traced), base);
    print_table(metrics);
  }
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bw_perfbench: %s\n", e.what());
    return 1;
  }
}
