#include "harness.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::size_t Histogram::bucket_of(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  int exponent = std::bit_width(ns) - 1;  // >= kSubBits
  if (exponent > kMaxExponent) return kBuckets - 1;
  const std::uint64_t sub = (ns >> (exponent - kSubBits)) - kSub;
  return kSub + static_cast<std::size_t>(exponent - kSubBits) * kSub +
         static_cast<std::size_t>(sub);
}

void Histogram::bucket_range(std::size_t bucket, double& lo, double& width) {
  if (bucket < kSub) {
    lo = static_cast<double>(bucket);
    width = 1.0;
    return;
  }
  const std::size_t octave = (bucket - kSub) / kSub;
  const std::size_t sub = (bucket - kSub) % kSub;
  width = static_cast<double>(1ULL << octave);
  lo = static_cast<double>(kSub + sub) * width;
}

void Histogram::record(std::uint64_t ns) {
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++buckets_[bucket_of(ns)];
  ++count_;
  sum_ns_ += ns;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

double Histogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  // Rank of the quantile among the sorted samples (0-based, as a real),
  // then linear interpolation across the samples of the bucket holding it.
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (static_cast<double>(below + n) > rank) {
      double lo = 0.0;
      double width = 0.0;
      bucket_range(i, lo, width);
      const double within = (rank - static_cast<double>(below) + 0.5) / static_cast<double>(n);
      return (lo + within * width) / 1000.0;
    }
    below += n;
  }
  return 0.0;
}

// ---------------------------------------------------------------- tracing

const char* span_name(Span span) {
  switch (span) {
    case Span::kServeRoute: return "serve.route";
    case Span::kServeSnapshotAcquire: return "serve.snapshot_acquire";
    case Span::kCoreDecide: return "core.decide";
    case Span::kCoreDecideBatch: return "core.decide_batch";
    case Span::kServeRecommendBatch: return "serve.recommend_batch";
    case Span::kServeObserveBatch: return "serve.observe_batch";
    case Span::kServeSyncShards: return "serve.sync_shards";
    case Span::kIoIngestRunTable: return "io.ingest_run_table";
    case Span::kIoLoadServerState: return "io.load_server_state";
    case Span::kIoSaveState: return "io.save_state";
    case Span::kIoSaveFleetDelta: return "io.save_fleet_delta";
    case Span::kIoLoadFleetDelta: return "io.load_fleet_delta";
    case Span::kFleetMakeDelta: return "fleet.make_delta";
    case Span::kFleetApplyDelta: return "fleet.apply_delta";
    case Span::kFleetRecommendBatch: return "fleet.recommend_batch";
    case Span::kFleetObserveBatch: return "fleet.observe_batch";
    case Span::kFleetSaveSnapshot: return "fleet.save_snapshot";
    case Span::kFleetRestore: return "fleet.restore";
    case Span::kCount: break;
  }
  return "?";
}

const char* counter_name(Counter counter) {
  switch (counter) {
    case Counter::kIngestRows: return "io.ingest_run_table.rows";
    case Counter::kLoadServerStateBytes: return "io.load_server_state.bytes";
    case Counter::kSaveStateBytes: return "io.save_state.bytes";
    case Counter::kSaveFleetDeltaBytes: return "io.save_fleet_delta.bytes";
    case Counter::kMakeDeltaEntries: return "fleet.make_delta.entries";
    case Counter::kApplyApplied: return "fleet.apply_delta.applied";
    case Counter::kApplyStale: return "fleet.apply_delta.stale";
    case Counter::kApplyRefolds: return "fleet.apply_delta.refolds";
    case Counter::kSaveSnapshotBytes: return "fleet.save_snapshot.bytes";
    case Counter::kRestoreBytes: return "fleet.restore.bytes";
    case Counter::kFleetOrigins: return "fleet.origins";
    case Counter::kCount: break;
  }
  return "?";
}

const char* parent_name(Parent parent) {
  switch (parent) {
    case Parent::kServeMixedRead: return "serve-mixed.read";
    case Parent::kServeMixedFeedback: return "serve-mixed.feedback";
    case Parent::kCatalogWideRound: return "catalog-wide.round";
    case Parent::kFleetChurnRound: return "fleet-churn.round";
    case Parent::kFleetChurnGossip: return "fleet-churn.gossip";
    case Parent::kCount: break;
  }
  return "?";
}

Trace::Trace()
    : spans_(static_cast<std::size_t>(Span::kCount)),
      counters_(static_cast<std::size_t>(Counter::kCount), 0),
      parents_(static_cast<std::size_t>(Parent::kCount)) {}

void Trace::record_span(Span span, std::uint64_t ns, bool failed) {
  SpanStats& stats = spans_[static_cast<int>(span)];
  stats.latency.record(ns);
  if (failed) ++stats.failed;
  if (open_parent_ != nullptr) open_parent_->children_ns += ns;
}

void Trace::add_parent(Parent parent, std::uint64_t total_ns, std::uint64_t children_ns) {
  ParentStats& stats = parents_[static_cast<int>(parent)];
  stats.latency.record(total_ns);
  stats.children_ns += children_ns;
}

void Trace::merge(const Trace& other) {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    spans_[i].latency.merge(other.spans_[i].latency);
    spans_[i].failed += other.spans_[i].failed;
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i] += other.counters_[i];
  for (std::size_t i = 0; i < parents_.size(); ++i) {
    parents_[i].latency.merge(other.parents_[i].latency);
    parents_[i].children_ns += other.parents_[i].children_ns;
  }
}

ParentScope::ParentScope(Trace* trace, Parent parent) : trace_(trace) {
  if (trace_ == nullptr) return;
  stats_ = &trace_->parents_[static_cast<int>(parent)];
  trace_->open_parent_ = stats_;
  start_ = now_ns();
}

ParentScope::~ParentScope() {
  if (trace_ == nullptr) return;
  stats_->latency.record(now_ns() - start_);
  trace_->open_parent_ = nullptr;
}

// ---------------------------------------------------------------- misc

bool RepeatCheck::check(double value) {
  if (!has_) {
    has_ = true;
    first_ = value;
    return true;
  }
  return std::memcmp(&value, &first_, sizeof(double)) == 0;
}

namespace {

/// The CPUs the process may use, as it started (before any pinning).
const std::vector<int>& usable_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

void pin_current_thread(std::vector<int>::const_iterator first,
                        std::vector<int>::const_iterator last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (auto it = first; it != last; ++it) CPU_SET(*it, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

void pin_main_thread() {
  const std::vector<int>& cpus = usable_cpus();
  if (cpus.size() >= 2) pin_current_thread(cpus.end() - 1, cpus.end());
}

void pin_client() {
  const std::vector<int>& cpus = usable_cpus();
  if (cpus.size() >= 2) pin_current_thread(cpus.begin(), cpus.end() - 1);
}

namespace {

/// One "Vm...:" field of /proc/self/status, in KiB.
std::uint64_t status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::uint64_t kib = 0;
  while (status >> key) {
    if (key == field + ":" && status >> kib) return kib;
    status.ignore(1 << 10, '\n');
  }
  throw std::runtime_error("/proc/self/status has no " + field);
}

}  // namespace

void RssProbe::start() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!(clear_refs << "5" << std::flush)) {
    throw std::runtime_error("cannot reset the peak RSS mark (/proc/self/clear_refs)");
  }
  base_kib_ = status_kib("VmRSS");
}

double RssProbe::peak_mb() const {
  const std::uint64_t peak_kib = std::max(status_kib("VmHWM"), base_kib_);
  return static_cast<double>(peak_kib - base_kib_) / 1024.0;
}

}  // namespace perfbench
