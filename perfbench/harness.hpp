#pragma once
// Measurement plumbing shared by the three perfbench workloads: fixed-size
// log-linear latency histograms, in-memory layer spans, and the per-run
// result every workload fills in.
//
// Nothing here allocates per sample. Histograms are fixed-size, allocated
// on their first sample and owned per thread (merged once at the end), and
// spans aggregate into per-thread tables indexed by span id, so the
// harness's memory is constant in run length, an untraced run's span
// tables hold no buckets, and peak RSS measures the engine, not the harness.

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Log-linear histogram of nanosecond samples: exact below 128 ns, then 128
/// linear sub-buckets per power of two (under 0.8% relative width). Quantiles
/// interpolate by rank inside the bucket, so reported values move with the
/// sample distribution instead of snapping to bucket edges. The buckets
/// (43 KB) are allocated on the first sample.
class Histogram {
 public:
  void record(std::uint64_t ns);
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ns() const { return sum_ns_; }
  /// Quantile q in [0, 1] in microseconds; 0 for an empty histogram.
  double quantile_us(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;
  static constexpr int kMaxExponent = 47;  ///< clamps samples above ~39 hours
  static constexpr std::size_t kBuckets = kSub + (kMaxExponent - kSubBits + 1) * kSub;

  static std::size_t bucket_of(std::uint64_t ns);
  static void bucket_range(std::size_t bucket, double& lo, double& width);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

// ---------------------------------------------------------------- tracing

/// One span per call into a layer, recorded from the benchmark's side of
/// the call. Order fixes the output order.
enum class Span : int {
  kServeRoute,
  kServeSnapshotAcquire,
  kCoreDecide,
  kCoreDecideBatch,
  kServeRecommendBatch,
  kServeObserveBatch,
  kServeSyncShards,
  kIoIngestRunTable,
  kIoLoadServerState,
  kIoSaveState,
  kIoSaveFleetDelta,
  kIoLoadFleetDelta,
  kFleetMakeDelta,
  kFleetApplyDelta,
  kFleetRecommendBatch,
  kFleetObserveBatch,
  kFleetSaveSnapshot,
  kFleetRestore,
  kCount,
};

/// Work counts recorded at the same boundaries as the spans.
enum class Counter : int {
  kIngestRows,
  kLoadServerStateBytes,
  kSaveStateBytes,
  kSaveFleetDeltaBytes,
  kMakeDeltaEntries,
  kApplyApplied,
  kApplyStale,
  kApplyRefolds,
  kSaveSnapshotBytes,
  kRestoreBytes,
  kFleetOrigins,  ///< origins held by the largest store when the run ends
  kCount,
};

/// One request type: a parent span whose children are the layer spans
/// opened while it is open on the same thread.
enum class Parent : int {
  kServeMixedRead,
  kServeMixedFeedback,
  kCatalogWideRound,
  kFleetChurnRound,
  kFleetChurnGossip,
  kCount,
};

const char* span_name(Span span);
const char* counter_name(Counter counter);
const char* parent_name(Parent parent);

struct SpanStats {
  Histogram latency;  ///< its sum is the layer's busy time
  std::uint64_t failed = 0;
};

struct ParentStats {
  Histogram latency;              ///< one sample per request
  std::uint64_t children_ns = 0;  ///< summed durations of their child spans
};

/// Per-thread span table. A thread records into its own Trace with no
/// synchronisation; traces merge once the threads have joined.
class Trace {
 public:
  Trace();

  void record_span(Span span, std::uint64_t ns, bool failed);
  void add(Counter counter, std::uint64_t n) {
    counters_[static_cast<int>(counter)] += n;
  }
  /// Records one request timed from clock reads shared with its children
  /// (no parent scope open while they were recorded).
  void add_parent(Parent parent, std::uint64_t total_ns, std::uint64_t children_ns);
  void merge(const Trace& other);

  const SpanStats& span(Span s) const { return spans_[static_cast<int>(s)]; }
  std::uint64_t counter(Counter c) const { return counters_[static_cast<int>(c)]; }
  const ParentStats& parent(Parent p) const { return parents_[static_cast<int>(p)]; }

 private:
  friend class ParentScope;
  std::vector<SpanStats> spans_;
  std::vector<std::uint64_t> counters_;
  std::vector<ParentStats> parents_;
  /// The parent open on this thread, if any; its children add their time.
  ParentStats* open_parent_ = nullptr;
};

/// Times one call into a layer. A null trace makes it a no-op, so the
/// untraced run pays one branch. A scope left by an exception counts the
/// call as failed.
class SpanScope {
 public:
  SpanScope(Trace* trace, Span span)
      : trace_(trace), span_(span),
        start_(trace != nullptr ? now_ns() : 0),
        exceptions_(trace != nullptr ? std::uncaught_exceptions() : 0) {}
  ~SpanScope() {
    if (trace_ != nullptr) {
      trace_->record_span(span_, now_ns() - start_,
                          std::uncaught_exceptions() > exceptions_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Trace* trace_;
  Span span_;
  std::uint64_t start_;
  int exceptions_;
};

/// Opens one request's parent span on this thread (no-op on a null trace).
class ParentScope {
 public:
  ParentScope(Trace* trace, Parent parent);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  Trace* trace_;
  ParentStats* stats_ = nullptr;
  std::uint64_t start_ = 0;
};

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run of one workload measured. Latency histograms and
/// counts are summed over every episode of the run; the deterministic
/// quantities (regret, per-stream counts) are those of one stream, and
/// every later stream must reproduce them exactly.
struct RunResult {
  Histogram recommend;
  Histogram observe;
  Histogram sync;
  std::vector<double> setup_s;  ///< one per episode
  /// Decisions per second of each episode's stream (set-up excluded). The
  /// run reports their median: an episode hit by a burst of CPU steal from
  /// other tenants of the host moves the median far less than the total.
  std::vector<double> episode_rate;
  std::uint64_t decisions = 0;
  double stream_s = 0.0;
  double regret_pct = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Workload-specific deterministic counts for the report block; repeat
  /// checks compare them across runs of one seed.
  std::vector<Metric> extras;
  Trace trace;  ///< merged spans (traced runs only)

  void add_episode(std::uint64_t episode_decisions, std::uint64_t stream_ns) {
    const double seconds = static_cast<double>(stream_ns) * 1e-9;
    episode_rate.push_back(static_cast<double>(episode_decisions) / seconds);
    decisions += episode_decisions;
    stream_s += seconds;
  }
};

/// Tracks that every stream of a run reproduces the first stream's
/// deterministic outputs bit for bit.
class RepeatCheck {
 public:
  /// Returns false when `value` differs from the first value seen.
  bool check(double value);

 private:
  bool has_ = false;
  double first_ = 0.0;
};

/// One workload: the constructor builds every input from the seed (not
/// timed); run() repeats set-up + one fixed stream until `seconds` pass,
/// at least once, so run(0.0, ...) runs exactly one episode.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual RunResult run(double seconds, bool traced) = 0;
};

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed);
std::unique_ptr<Workload> make_catalog_wide(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_churn(std::uint64_t seed);

/// Thread placement. The main thread — and with it every pool worker of the
/// engines it builds, since a new thread inherits its creator's affinity —
/// runs on one CPU: the main thread always waits while a worker runs, so
/// the pair never needs two CPUs, and each hand-off stays on that CPU
/// instead of waking a second, possibly halted vCPU, whose wake-up latency
/// depends on the load other tenants put on the host. Client threads get
/// the remaining CPUs. With fewer than two usable CPUs nothing is pinned.
/// pin_main_thread() must run first, before any thread is started.
void pin_main_thread();
void pin_client();

/// Resident memory of the work done between start() and peak_mb(). start()
/// hands freed heap pages back to the kernel and resets its high-water mark
/// (VmHWM); peak_mb() is then the peak added above the resident size at
/// start(), which holds the generated inputs, so the figure is the
/// engine's and its set-up's.
class RssProbe {
 public:
  void start();
  double peak_mb() const;

 private:
  std::uint64_t base_kib_ = 0;
};

}  // namespace perfbench
