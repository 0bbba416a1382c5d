#include "serve/bandit_server.hpp"

#include <cmath>
#include <cstring>
#include <future>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "io/state_io.hpp"
#include "linalg/matrix.hpp"
#include "linalg/rls.hpp"

namespace bw::serve {

namespace {

/// FNV-1a over the bit patterns of the feature values — deterministic
/// within a build, unlike std::hash<double>.
std::uint64_t hash_features(const core::FeatureVector& x) {
  std::uint64_t h = 14695981039346656037ULL;
  for (double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::vector<core::BanditWare> make_replicas(const hw::HardwareCatalog& catalog,
                                            const std::vector<std::string>& feature_names,
                                            const BanditServerConfig& config) {
  BW_CHECK_MSG(config.num_shards >= 1, "BanditServer needs at least one shard");
  std::vector<core::BanditWare> replicas;
  replicas.reserve(config.num_shards);
  for (std::size_t i = 0; i < config.num_shards; ++i) {
    replicas.emplace_back(catalog, feature_names, config.bandit);
  }
  return replicas;
}

/// Round-robin tickets are claimed from the shared counter in blocks of
/// this size and consumed thread-locally, so the hot path pays one
/// fetch_add per kRrTicketBlock requests instead of one per request.
constexpr std::uint64_t kRrTicketBlock = 16;

/// Per-thread cache of the current ticket block. `tag` names the server
/// instance that issued it (see BanditServer::instance_tag_); a mismatch —
/// a different server, or the same address recycled — refills from that
/// server's own counter.
struct RrCursor {
  std::uint64_t tag = 0;  ///< 0 = empty (valid tags start at 1)
  std::uint64_t next = 0;
  std::uint64_t end = 0;
};
thread_local RrCursor t_rr_cursor;

/// Per-thread cache of one server's published snapshots, one entry per
/// shard (see BanditServer::snapshot). `tag` names the server instance the
/// entries belong to; a read of any other server drops them all, so a
/// thread holds at most one snapshot per shard of one server.
struct SnapshotCache {
  /// Never a real epoch: an entry with it is empty and always misses.
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};
  struct Entry {
    std::uint64_t epoch = kNoEpoch;
    std::shared_ptr<const core::FrozenModel> model;
  };
  std::uint64_t tag = 0;  ///< 0 = empty (valid tags start at 1)
  std::vector<Entry> shards;
};
thread_local SnapshotCache t_snapshots;

std::uint64_t next_instance_tag() {
  static std::atomic<std::uint64_t> source{0};
  return source.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

std::string to_string(ShardingPolicy policy) {
  switch (policy) {
    case ShardingPolicy::kFeatureHash:
      return "feature-hash";
    case ShardingPolicy::kRoundRobin:
      return "round-robin";
  }
  return "unknown";
}

ShardingPolicy parse_sharding_policy(const std::string& name) {
  if (name == "feature-hash") return ShardingPolicy::kFeatureHash;
  if (name == "round-robin") return ShardingPolicy::kRoundRobin;
  throw InvalidArgument("unknown sharding policy: " + name);
}

std::string to_string(SyncMode mode) {
  switch (mode) {
    case SyncMode::kInline:
      return "inline";
    case SyncMode::kAsync:
      return "async";
  }
  return "unknown";
}

SyncMode parse_sync_mode(const std::string& name) {
  if (name == "inline") return SyncMode::kInline;
  if (name == "async") return SyncMode::kAsync;
  throw InvalidArgument("unknown sync mode: " + name);
}

void BanditServer::SyncStaging::clear() {
  staged = false;
  fused_ready = false;
  generation = 0;
  base = core::BanditWareStats{};
  shard_stats.clear();
  snapshots.clear();
  fused.reset();
}

BanditServer::BanditServer(hw::HardwareCatalog catalog,
                           std::vector<std::string> feature_names,
                           BanditServerConfig config)
    : BanditServer(config, make_replicas(catalog, feature_names, config)) {}

BanditServer::BanditServer(BanditServerConfig config,
                           std::vector<core::BanditWare> replicas,
                           std::unique_ptr<core::BanditWare> sync_base)
    : config_(config), instance_tag_(next_instance_tag()) {
  BW_CHECK_MSG(!replicas.empty(), "BanditServer needs at least one shard replica");
  // The first replica defines the engine; every other replica and the
  // baseline must match it, so a stitched snapshot fails here, at load.
  config_.num_shards = replicas.size();
  config_.bandit = replicas.front().config();
  feature_names_ = replicas.front().feature_names();
  num_arms_ = replicas.front().num_arms();
  catalog_ = replicas.front().catalog();
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    check_shape(replicas[i], "shard " + std::to_string(i));
  }
  // The sync baseline defaults to the untrained prior (correct for fresh
  // servers and for legacy snapshots, which predate cross-shard sync).
  if (sync_base != nullptr) {
    check_shape(*sync_base, "sync baseline");
    sync_base_ = std::move(sync_base);
  } else {
    sync_base_ =
        std::make_unique<core::BanditWare>(catalog_, feature_names_, config_.bandit);
  }
  base_obs_count_.store(sync_base_->num_observations(), std::memory_order_relaxed);
  Rng seeder(config_.seed);
  shards_.reserve(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    shards_.push_back(
        std::make_unique<Shard>(std::move(replicas[i]), seeder.child_seed(i)));
  }
  const std::size_t threads =
      config_.num_threads == 0 ? shards_.size() : config_.num_threads;
  pool_ = std::make_unique<ThreadPool>(threads);
}

BanditServer::~BanditServer() { stop_fuser(); }

BanditServer::BanditServer(BanditServer&& other) noexcept
    : config_([&other] {
        // Quiesce the source before stealing its members: the fuser thread
        // captures `this` and must not outlive the move.
        other.stop_fuser();
        return std::move(other.config_);
      }()),
      feature_names_(std::move(other.feature_names_)),
      num_arms_(other.num_arms_),
      catalog_(std::move(other.catalog_)),
      shards_(std::move(other.shards_)),
      pool_(std::move(other.pool_)),
      rr_counter_(other.rr_counter_.load(std::memory_order_relaxed)),
      // A fresh tag, not other's: threads holding blocks claimed from the
      // source must refill here instead of striding a moved-from counter,
      // and threads caching the source's snapshots must miss here.
      instance_tag_(next_instance_tag()),
      sync_base_(std::move(other.sync_base_)),
      base_obs_count_(other.base_obs_count_.load(std::memory_order_relaxed)),
      observe_batches_(other.observe_batches_.load(std::memory_order_relaxed)),
      sync_count_(other.sync_count_.load(std::memory_order_relaxed)),
      generation_(other.generation_.load(std::memory_order_relaxed)),
      staging_(std::move(other.staging_)) {
  // stop_fuser left a not-yet-claimed request pending on the source (its
  // contract: the work is picked back up, not dropped). Carry the flag
  // across; the destination's fuser is re-armed lazily by the next
  // request_sync or drain_sync — spawning a thread here could throw, which
  // must not cross this noexcept constructor. No lock on other's mutex
  // needed: its fuser is joined and moving implies exclusive access.
  sync_pending_ = other.sync_pending_;
  other.sync_pending_ = false;
}

std::size_t BanditServer::shard_of(const core::FeatureVector& x) const {
  return hash_features(x) % shards_.size();
}

std::size_t BanditServer::route(const core::FeatureVector& x) {
  if (config_.sharding == ShardingPolicy::kRoundRobin) {
    return next_rr_ticket() % shards_.size();
  }
  return shard_of(x);
}

std::uint64_t BanditServer::next_rr_ticket() {
  // Per-thread block striding: consume the cached block, refill with one
  // fetch_add when it runs dry or belongs to another server. Tickets are
  // handed out in counter order within a thread, so a single-threaded
  // caller still sees the exact 0,1,2,… rotation the tests pin; across
  // threads each claims disjoint blocks and the per-shard spread stays
  // fair to within one block per thread (a thread's unused tail is at most
  // kRrTicketBlock-1 tickets, each landing on a distinct shard).
  RrCursor& cursor = t_rr_cursor;
  if (cursor.tag != instance_tag_ || cursor.next == cursor.end) {
    cursor.tag = instance_tag_;
    cursor.next = rr_counter_.fetch_add(kRrTicketBlock, std::memory_order_relaxed);
    cursor.end = cursor.next + kRrTicketBlock;
  }
  return cursor.next++;
}

ServeDecision BanditServer::decide_locked(Shard& shard, std::size_t shard_index,
                                          const core::FeatureVector& x) {
  ServeDecision out;
  out.shard = shard_index;
  const auto decision = shard.bandit.next(x, shard.rng);
  out.arm = decision.arm;
  // Point at the server-held catalog, not the replica's: callers read the
  // spec after the shard lock is released, and a sync publication
  // copy-assigns the replica (catalog included) in place — a pointer into
  // it would race. catalog_ is immutable for the server's lifetime.
  out.spec = &catalog_[decision.arm];
  out.explored = decision.explored;
  out.predicted_runtime_s = decision.predicted_runtime_s;
  return out;
}

ServeDecision BanditServer::decide_frozen(const core::FrozenModel& model,
                                          std::size_t shard_index,
                                          const core::FeatureVector& x) const {
  const core::TolerantChoice choice = model.recommend_choice(x);
  ServeDecision out;
  out.shard = shard_index;
  out.arm = choice.arm;
  out.spec = &catalog_[choice.arm];
  out.explored = false;
  out.predicted_runtime_s = choice.predicted_runtime;
  return out;
}

const std::shared_ptr<const core::FrozenModel>& BanditServer::snapshot(
    std::size_t index) const {
  SnapshotCache& cache = t_snapshots;
  if (cache.tag != instance_tag_) {
    // First read of this server on this thread: let go of the previous
    // server's snapshots.
    cache.shards.assign(shards_.size(), SnapshotCache::Entry{});
    cache.tag = instance_tag_;
  }
  SnapshotCache::Entry& entry = cache.shards[index];
  const Shard& shard = *shards_[index];
  // The hit path is one acquire load of a cache line that only publishes
  // write. It pairs with publish_locked's release store, so a thread that
  // sees a new epoch also sees the slot holding that epoch's snapshot.
  if (entry.epoch != shard.epoch.load(std::memory_order_acquire)) {
    std::shared_ptr<const core::FrozenModel> fresh;
    {
      std::lock_guard lock(shard.slot_mutex);
      fresh = shard.slot;
    }
    entry.epoch = fresh->epoch();
    // Drops this thread's reference to the replaced snapshot (usually the
    // last one) outside the slot mutex.
    entry.model = std::move(fresh);
  }
  return entry.model;
}

void BanditServer::publish_locked(Shard& shard,
                                  std::shared_ptr<const core::FrozenModel> model) {
  {
    std::lock_guard lock(shard.slot_mutex);
    shard.slot.swap(model);
    shard.epoch.store(shard.slot->epoch(), std::memory_order_release);
  }
  // `model` now holds the replaced snapshot; whatever this releases is
  // freed here, outside the slot mutex (readers still caching it keep it).
}

void BanditServer::republish_locked(Shard& shard) {
  // The exclusive shard lock makes this the only publisher, so the epoch
  // and the slot can be read without the slot mutex.
  const std::uint64_t next = shard.epoch.load(std::memory_order_relaxed) + 1;
  publish_locked(shard, shard.bandit.freeze(next));
}

ServeDecision BanditServer::recommend_greedy(const core::FeatureVector& x) {
  const std::size_t index = route(x);
  // The lock-free read path: this thread's cached snapshot, revalidated
  // by one epoch load, and a predict against frozen immutable state. The
  // shard mutex is never touched, so greedy reads scale with client
  // threads and never wait out a sync swap.
  return decide_frozen(*snapshot(index), index, x);
}

std::shared_ptr<const core::FrozenModel> BanditServer::published_model(
    std::size_t shard) const {
  BW_CHECK_MSG(shard < shards_.size(), "published_model: unknown shard");
  return snapshot(shard);
}

std::uint64_t BanditServer::published_epoch(std::size_t shard) const {
  BW_CHECK_MSG(shard < shards_.size(), "published_epoch: unknown shard");
  return snapshot(shard)->epoch();
}

ServeDecision BanditServer::recommend_one(const core::FeatureVector& x) {
  // Exploration mutates the shard RNG and policy diagnostics, so it needs
  // the exclusive lock; pure exploitation reads the published snapshot.
  if (!config_.explore) return recommend_greedy(x);
  const std::size_t index = route(x);
  Shard& shard = *shards_[index];
  std::unique_lock lock(shard.mutex);
  return decide_locked(shard, index, x);
}

std::vector<ServeDecision> BanditServer::recommend_batch(
    const std::vector<core::FeatureVector>& xs) {
  std::vector<ServeDecision> results(xs.size());
  if (xs.empty()) return results;

  if (!config_.explore) return recommend_greedy_batch(xs);

  // Exploring batch: route serially (keeps round-robin deterministic for a
  // batch), then fan out one task per non-empty shard under its exclusive
  // lock. Tasks write to disjoint result slots.
  std::vector<std::vector<std::size_t>> by_shard(shards_.size());
  for (std::size_t i = 0; i < xs.size(); ++i) by_shard[route(xs[i])].push_back(i);

  std::vector<std::future<void>> futures;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    futures.push_back(pool_->submit([this, s, &by_shard, &xs, &results] {
      Shard& shard = *shards_[s];
      std::unique_lock lock(shard.mutex);
      for (std::size_t i : by_shard[s]) {
        results[i] = decide_locked(shard, s, xs[i]);
      }
    }));
  }
  wait_all(futures);
  return results;
}

std::vector<ServeDecision> BanditServer::recommend_greedy_batch(
    const std::vector<core::FeatureVector>& xs) {
  std::vector<ServeDecision> results(xs.size());
  if (xs.empty()) return results;

  // Lock-free read path, served inline: route serially (ascending i keeps
  // round-robin deterministic for a batch), group per shard, then serve
  // each group from one cached-snapshot lookup with one blocked
  // score_block pass over the snapshot's coefficient plane. No locks, no
  // pool dispatch — read-heavy deployments bring their concurrency as
  // client threads; the win here is amortizing the weight-plane traversal
  // across the group.
  // Reused across calls: a serving thread issues batches back-to-back, and
  // re-growing a vector-of-vectors per batch showed up in the decide bench.
  static thread_local std::vector<std::vector<std::size_t>> by_shard;
  static thread_local std::vector<core::TolerantChoice> choices;
  by_shard.resize(shards_.size());
  for (auto& group : by_shard) group.clear();
  if (shards_.size() == 1) {
    // Single shard: every item routes to shard 0 — skip the per-item route
    // hash and build the identity list directly.
    std::vector<std::size_t>& group = by_shard[0];
    group.resize(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) group[i] = i;
  } else {
    for (std::size_t i = 0; i < xs.size(); ++i) by_shard[route(xs[i])].push_back(i);
  }

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<std::size_t>& items = by_shard[s];
    if (items.empty()) continue;
    choices.resize(items.size());
    snapshot(s)->recommend_greedy_batch(xs, items, choices);
    for (std::size_t j = 0; j < items.size(); ++j) {
      const core::TolerantChoice& choice = choices[j];
      ServeDecision& out = results[items[j]];
      out.shard = s;
      out.arm = choice.arm;
      out.spec = &catalog_[choice.arm];
      out.explored = false;
      out.predicted_runtime_s = choice.predicted_runtime;
    }
  }
  return results;
}

void BanditServer::validate_observation(const ServeObservation& obs) const {
  // A stale shard id (e.g. a decision served before the engine was resized
  // or restored with a different shard count) must fail loudly instead of
  // training an arbitrary replica — or indexing out of bounds.
  BW_CHECK_MSG(obs.shard < shards_.size(),
               "observation routed to unknown shard " + std::to_string(obs.shard) +
                   " (engine has " + std::to_string(shards_.size()) + ")");
  // Validate against engine-level immutables only (num_arms_ is fixed at
  // construction): touching a replica here would race sync publication,
  // which copy-assigns shard.bandit under the shard lock this path
  // deliberately does not take.
  BW_CHECK_MSG(obs.arm < num_arms_,
               "observation names unknown arm " + std::to_string(obs.arm));
  BW_CHECK_MSG(obs.x.size() == feature_names_.size(),
               "observation feature size mismatch");
  // The arm model rejects these too, but only inside the shard task, after
  // the batch's earlier observations were applied and with the shard left
  // unpublished: reject them here so a batch stays all-or-nothing.
  BW_CHECK_MSG(linalg::all_finite(obs.x), "observation has a non-finite feature");
  BW_CHECK_MSG(std::isfinite(obs.runtime_s), "observation has a non-finite runtime");
  // Feature-hash routing is recomputable, so a mis-echoed shard id is
  // detectable: the feedback must land on the replica that served it.
  // Round-robin ids cannot be recomputed; the range check above is all the
  // validation possible there.
  if (config_.sharding == ShardingPolicy::kFeatureHash) {
    BW_CHECK_MSG(obs.shard == shard_of(obs.x),
                 "observation shard " + std::to_string(obs.shard) +
                     " does not match feature-hash routing");
  }
}

void BanditServer::observe_one(const ServeObservation& obs) {
  validate_observation(obs);
  Shard& shard = *shards_[obs.shard];
  std::unique_lock lock(shard.mutex);
  shard.bandit.observe(obs.arm, obs.x, obs.runtime_s);
  republish_locked(shard);
}

void BanditServer::observe_batch(const std::vector<ServeObservation>& observations) {
  if (observations.empty()) return;
  // Validate the whole batch before touching any shard so a bad observation
  // cannot leave the batch half-applied.
  std::vector<std::vector<std::size_t>> by_shard(shards_.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    validate_observation(observations[i]);
    by_shard[observations[i].shard].push_back(i);
  }
  std::vector<std::future<void>> futures;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    futures.push_back(pool_->submit([this, s, &by_shard, &observations] {
      Shard& shard = *shards_[s];
      std::unique_lock lock(shard.mutex);
      for (std::size_t i : by_shard[s]) {
        const ServeObservation& obs = observations[i];
        shard.bandit.observe(obs.arm, obs.x, obs.runtime_s);
      }
      // Coalesce: one freeze + swap per shard per batch.
      republish_locked(shard);
    }));
  }
  wait_all(futures);
  // Single-shard engines have nothing to fuse: the cadence is skipped
  // entirely so sync_every > 0 costs nothing (pinned by test_serve).
  if (config_.sync_every > 0 && shards_.size() > 1) {
    const std::uint64_t batches =
        observe_batches_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (batches % config_.sync_every == 0) request_sync();
  }
}

void BanditServer::sync_shards() {
  // Lock order everywhere: fuse_mutex_, then shard locks ascending. The
  // serving hot path never takes fuse_mutex_, so observes/recommends only
  // wait while their own shard is held.
  std::unique_lock fuse_lock(fuse_mutex_);
  if (shards_.size() > 1) {
    std::vector<std::unique_lock<std::shared_mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

    // Fold each replica's evidence since the last sync into the baseline:
    // fused = base + sum_s (shard_s - base). Passing the baseline keeps the
    // algebra exact across repeated syncs (shared ancestry counted once).
    core::BanditWare fused = *sync_base_;
    for (const auto& shard : shards_) fused.merge_from(shard->bandit, sync_base_.get());
    for (const auto& shard : shards_) {
      shard->bandit = fused;
      // Every arm may have moved: full re-freeze before the lock drops so
      // lock-free readers flip straight to the fused generation.
      republish_locked(*shard);
    }
    *sync_base_ = std::move(fused);
    base_obs_count_.store(sync_base_->num_observations(), std::memory_order_relaxed);
    // The baseline moved: any async round staged against the previous
    // generation must abandon at publish (its evidence was folded here).
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  sync_count_.fetch_add(1, std::memory_order_relaxed);
}

void BanditServer::check_shape(const hw::HardwareCatalog& catalog,
                               const std::vector<std::string>& feature_names,
                               const core::BanditWareConfig& theirs,
                               const std::string& what) const {
  const core::BanditWareConfig& mine = config_.bandit;
  const auto require = [&what](bool same, const char* field) {
    if (!same) throw InvalidArgument(what + ": " + field + " differs from the engine's");
  };
  require(catalog.specs() == catalog_.specs(), "catalog");
  require(feature_names == feature_names_, "feature names");
  require(theirs.policy_kind == mine.policy_kind, "policy kind");
  // Only the scalars the kind reads, as in merge_from: the policy
  // constructors validated those, while a field no policy reads may hold
  // anything, NaN included, which would not even match itself.
  switch (mine.policy_kind) {
    case core::PolicyKind::kEpsilonGreedy:
      require(theirs.policy.initial_epsilon == mine.policy.initial_epsilon &&
                  theirs.policy.decay == mine.policy.decay,
              "exploration schedule");
      break;
    case core::PolicyKind::kLinUcb:
      require(theirs.alpha == mine.alpha, "alpha");
      break;
    case core::PolicyKind::kThompson:
      require(theirs.posterior_scale == mine.posterior_scale, "posterior scale");
      break;
  }
  require(theirs.policy.tolerance.ratio == mine.policy.tolerance.ratio &&
              theirs.policy.tolerance.seconds == mine.policy.tolerance.seconds,
          "tolerance");
  require(theirs.policy.fit.ridge == mine.policy.fit.ridge, "ridge prior");
  require(theirs.policy.fit.forgetting == mine.policy.fit.forgetting,
          "forgetting factor");
}

void BanditServer::adopt_model(const core::BanditWare& model) {
  // A foreign model must fail loudly, not serve from a catalog the routing
  // layer knows nothing about.
  check_shape(model, "adopt_model");
  adopt_stats(model.export_stats(), std::vector<bool>(num_arms_, true));
}

void BanditServer::adopt_stats(const core::BanditWareStats& stats,
                               const std::vector<bool>& arms) {
  // Everything a restore would reject is checked before any lock, so a
  // rejected adopt moves no shard, baseline or epoch; past this point only
  // a republished snapshot's allocation can throw.
  if (stats.arms.size() != num_arms_ || arms.size() != num_arms_) {
    throw InvalidArgument("adopt: arm count differs from the engine's");
  }
  const std::size_t dim = feature_names_.size();
  for (std::size_t arm = 0; arm < num_arms_; ++arm) {
    if (!arms[arm]) continue;
    const core::ArmStats& evidence = stats.arms[arm];
    if (!linalg::RecursiveLeastSquares::valid_evidence(dim, evidence.r, evidence.z)) {
      throw InvalidArgument("adopt: arm " + std::to_string(arm) +
                            " holds invalid evidence");
    }
  }
  std::unique_lock fuse_lock(fuse_mutex_);
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  for (const auto& shard : shards_) {
    shard->bandit.restore_stats(stats, arms);
    republish_locked(*shard);
  }
  sync_base_->restore_stats(stats, arms);
  base_obs_count_.store(sync_base_->num_observations(), std::memory_order_relaxed);
  // Any async round staged against the previous baseline would publish
  // pre-adoption evidence the caller already fused into `stats`: move the
  // generation so it abandons.
  generation_.fetch_add(1, std::memory_order_relaxed);
}

void BanditServer::request_sync() {
  if (shards_.size() <= 1) return;  // nothing to fuse
  if (config_.sync_mode == SyncMode::kInline) {
    sync_shards();
    return;
  }
  {
    std::lock_guard<std::mutex> guard(async_mutex_);
    sync_pending_ = true;
    ensure_fuser_locked();
  }
  async_cv_.notify_all();
}

void BanditServer::drain_sync() {
  if (config_.sync_mode != SyncMode::kAsync) return;
  std::unique_lock<std::mutex> lock(async_mutex_);
  // A pending request may have been carried across a move with no fuser
  // running (the noexcept move cannot spawn threads); arm one so the wait
  // below can actually finish.
  if (sync_pending_) ensure_fuser_locked();
  async_cv_.notify_all();
  async_cv_.wait(lock, [this] { return !sync_pending_ && !sync_in_round_; });
}

void BanditServer::fuser_loop() {
  std::unique_lock<std::mutex> lock(async_mutex_);
  for (;;) {
    async_cv_.wait(lock, [this] { return sync_pending_ || fuser_shutdown_; });
    if (fuser_shutdown_) break;
    // Claim every pending request: one round serves them all (coalescing).
    sync_pending_ = false;
    sync_in_round_ = true;
    lock.unlock();
    try {
      if (sync_stage()) {
        sync_fuse();
        sync_publish();  // false = abandoned (stale generation); evidence
                         // stays in the shards and re-folds next round
      }
    } catch (...) {
      // A failed round (bad_alloc under pressure, a numerical failure in
      // the fusion) must not escape the thread entry and std::terminate
      // the serving process: the round's evidence is still safely in the
      // shards, so drop the staging and let a future request retry. This
      // mirrors inline mode, where the same failure throws to a caller who
      // can handle it.
      staging_.clear();
    }
    lock.lock();
    sync_in_round_ = false;
    async_cv_.notify_all();  // wake drain_sync waiters
  }
}

void BanditServer::ensure_fuser_locked() {
  if (!fuser_.joinable()) {
    fuser_shutdown_ = false;
    fuser_ = std::thread(&BanditServer::fuser_loop, this);
  }
}

void BanditServer::stop_fuser() noexcept {
  {
    std::lock_guard<std::mutex> guard(async_mutex_);
    if (!fuser_.joinable()) return;
    fuser_shutdown_ = true;
  }
  async_cv_.notify_all();
  fuser_.join();
  fuser_ = std::thread();
  fuser_shutdown_ = false;
  // Pending-but-unstarted requests are dropped: their evidence is still in
  // the shards, merely unfused. sync_pending_ stays as-is so a restarted
  // fuser (next request_sync) picks the work back up.
}

bool BanditServer::sync_stage() {
  if (shards_.size() <= 1) return false;
  staging_.clear();
  std::shared_lock fuse_lock(fuse_mutex_);
  staging_.generation = generation_.load(std::memory_order_relaxed);
  staging_.base = sync_base_->export_stats();
  staging_.shard_stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // Brief shared lock per shard: O(arms * d^2) stats copy, no fusion
    // math. Readers (pure-exploitation recommends) share it; observes wait
    // only for the copy, not for any factorization.
    std::shared_lock lock(shard->mutex);
    staging_.shard_stats.push_back(shard->bandit.export_stats());
  }
  staging_.staged = true;
  return true;
}

void BanditServer::sync_fuse() {
  BW_CHECK_MSG(staging_.staged, "sync_fuse: no staged round (run sync_stage first)");
  // Entirely lock-free: reconstruct replicas from the staged statistics and
  // run the information-form fusion (summed information, baseline
  // subtraction, one factorization per arm) on private copies. Yield
  // between per-shard merges so the fuser's CPU bursts stay short: on a
  // machine with fewer cores than
  // threads a long uninterrupted burst would preempt the serving hot path
  // and show up as observe tail latency.
  core::BanditWare base = core::BanditWare::from_stats(catalog_, feature_names_,
                                                       config_.bandit, staging_.base);
  staging_.snapshots.clear();
  staging_.snapshots.reserve(staging_.shard_stats.size());
  for (const auto& stats : staging_.shard_stats) {
    staging_.snapshots.push_back(
        core::BanditWare::from_stats(catalog_, feature_names_, config_.bandit, stats));
    std::this_thread::yield();
  }
  auto fused = std::make_unique<core::BanditWare>(base);
  for (const auto& snapshot : staging_.snapshots) {
    fused->merge_from(snapshot, &base);
    std::this_thread::yield();
  }
  staging_.fused = std::move(fused);
  staging_.fused_ready = true;
}

bool BanditServer::sync_publish() {
  BW_CHECK_MSG(staging_.fused_ready,
               "sync_publish: no fused round (run sync_fuse first)");
  std::unique_lock fuse_lock(fuse_mutex_);
  if (generation_.load(std::memory_order_relaxed) != staging_.generation) {
    // The baseline moved while this round was in flight (an inline
    // sync_shards won the race). The staged fusion is against a stale
    // ancestor — publishing it would double-count everything the inline
    // sync already folded. Abandon: the shards still hold every
    // observation, so nothing is lost; the next round re-folds it.
    staging_.clear();
    return false;
  }
  // Prepare the per-shard publication copies before touching any shard
  // lock: the copies are the allocation-heavy part of publishing, and they
  // only depend on the (private) fused model.
  std::vector<core::BanditWare> published;
  published.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    published.push_back(*staging_.fused);
  }
  // Short exclusive swap window: every shard lock, but only for the tiny
  // late-delta folds and the no-throw move-assigns — the O(arms * d^3 * N)
  // fleet fusion already ran off the hot path in sync_fuse. Folding each
  // shard's delta (observations since its stage snapshot) re-folds them
  // into the new generation, never lost, never double-counted. Everything
  // that can throw (the merges) happens BEFORE the first swap, so a
  // failure — e.g. bad_alloc — leaves every shard and the baseline
  // untouched: a half-published generation would permanently corrupt the
  // merge accounting (shard = base + own delta would no longer hold).
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  try {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      published[s].merge_from(shards_[s]->bandit, &staging_.snapshots[s]);
    }
  } catch (...) {
    staging_.clear();  // round dropped whole; evidence intact in the shards
    throw;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->bandit = std::move(published[s]);  // move-assigns: no-throw
    // Re-freeze inside the exclusive window: a freeze only copies the
    // O(arms * d) fitted weights, so the window stays short, and lock-free
    // readers never observe a half-published generation — they flip from
    // the old snapshot to the fully fused one at a single epoch store.
    republish_locked(*shards_[s]);
  }
  *sync_base_ = std::move(*staging_.fused);
  base_obs_count_.store(sync_base_->num_observations(), std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_relaxed);
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  staging_.clear();
  return true;
}

std::size_t BanditServer::sync_count() const {
  return sync_count_.load(std::memory_order_relaxed);
}

std::uint64_t BanditServer::generation() const {
  return generation_.load(std::memory_order_relaxed);
}

std::vector<double> BanditServer::predictions(std::size_t shard_index,
                                              const core::FeatureVector& x) const {
  BW_CHECK_MSG(shard_index < shards_.size(), "predictions: unknown shard");
  const Shard& shard = *shards_[shard_index];
  std::shared_lock lock(shard.mutex);
  return shard.bandit.predictions(x);
}

std::size_t BanditServer::num_observations() const {
  // After a sync every shard's model carries the fused stream; summing raw
  // counts would multiply the shared baseline by N. Discount it so the
  // total stays "distinct observations absorbed". Counts and baseline must
  // come from one consistent cut — the fuse lock excludes a mid-publish
  // generation, the shard locks exclude in-flight observes.
  std::shared_lock fuse_lock(fuse_mutex_);
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->bandit.num_observations();
  return total - (shards_.size() - 1) * base_obs_count_.load(std::memory_order_relaxed);
}

std::vector<std::size_t> BanditServer::shard_observation_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    counts.push_back(shard->bandit.num_observations());
  }
  return counts;
}

std::string BanditServer::save_state() const {
  // Thin wrapper over the io layer (src/io/), which owns every snapshot
  // codec and takes the consistent-cut locks itself.
  std::ostringstream os;
  io::save_state(os, *this, io::Format::kText);
  return os.str();
}

BanditServer BanditServer::load_state(const std::string& text) {
  // Thin wrapper over io::load_server_state, which auto-detects text v1-v5
  // and the binary container from the leading bytes.
  std::istringstream is(text, std::ios::binary);
  return io::load_server_state(is);
}

}  // namespace bw::serve
