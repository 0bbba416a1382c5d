#pragma once
// BanditServer — sharded, thread-safe serving engine around the BanditWare
// facade. The single-threaded facade handles one decision at a time; a
// production deployment (the ROADMAP's "heavy traffic" north star) needs
// many concurrent recommend/observe streams. The server keeps N independent
// BanditWare replicas (shards), routes every request to one shard, and
// executes batches on a thread pool — shards never share mutable state, so
// throughput scales with shard count.
//
// Routing must be stable between a recommendation and its feedback so that
// the shard that served a decision also learns from it:
//   * kFeatureHash — shard = FNV-1a(feature bits) % N. Deterministic in x,
//     so repeat workflows always hit (and train) the same replica.
//   * kRoundRobin  — a shared ticket counter spreads load evenly; the
//     decision carries its shard id and the caller echoes it back with the
//     runtime. Threads claim tickets in per-thread blocks (one fetch_add
//     per 16 requests instead of one per request), so concurrent round-robin
//     routing does not serialize on a single contended cacheline. A
//     single-threaded caller sees the exact historical sequence 0,1,2,…;
//     across threads the spread stays fair to within one block per thread.
//
// Shards never share mutable state while serving, but they can be fused:
// sync_shards() merges every replica's evidence into one model (exact —
// summing information matrices and moment vectors reproduces the
// single-stream ridge solution) and redistributes it, so N-shard serving is
// statistically equivalent to one big learner. `sync_every` automates this
// at a fixed observe-batch cadence.
//
// Fusion runs in one of two modes (SyncMode):
//   * kInline — sync_shards() stops the world: every shard lock is held
//     exclusive while the fleet fuses. Exact and deterministic, but at
//     sync_every=1 the whole fleet stalls on O(arms * d^3) fusion work
//     (one factorization per arm per replica) each batch.
//   * kAsync  — a background fuser thread runs the same algebra off the hot
//     path in three steps: sync_stage() copies per-shard evidence under
//     brief shared locks into a staging buffer,
//     sync_fuse() performs the information-form fusion with no locks held,
//     sync_publish() swaps the fused model back into every shard during
//     one short exclusive window (delta folds + no-throw moves only — the
//     fleet-wide fusion never runs under the shard locks).
//     Observations that arrived after the stage snapshot
//     (a "late" delta against the staged generation) are re-folded into the
//     published model per shard — never lost, never double-counted. A
//     generation counter guards the baseline: if an inline sync lands while
//     a round is in flight, the staged round is abandoned (its evidence is
//     still in the shards and re-folds next round). recommends and observes
//     never block on fusion math.
//
// Read publication (RCU-style lock-free reads): each shard additionally
// publishes its model's greedy surface as an immutable core::FrozenModel,
// and every reader thread keeps its own cached reference to each shard's
// snapshot, revalidated by one acquire load of the shard's publication
// epoch. A pure-exploitation recommend whose shard has not republished
// since the thread's last read is that epoch load plus a predict against
// frozen state — it writes no shared memory and never touches the shard
// mutex, so read-heavy throughput scales with client threads instead of
// serializing on refcount or lock cacheline traffic. Only a read that
// finds the epoch moved takes the shard's small slot mutex to copy the new
// snapshot. Every writer funnels through one build-and-swap idiom under
// the exclusive shard lock: after the write it freezes the shard — one
// copy of the model's (d+1) x arms coefficient plane, the cost table
// shared by pointer — and batch observes coalesce into one freeze per
// shard per batch. The sync paths (inline sync_shards and the async
// fuser's publish window) do the same after swapping in the fused model.
// The swap stores the new snapshot under the slot mutex and then
// release-stores its epoch; a retired snapshot is one free.
// Readers therefore see either the old or the new snapshot, never a
// half-published one, and each thread's snapshot sequence per shard is
// monotone in epoch. The shared lock still guards everything that is not
// a frozen read: exploring recommends (they consume the shard RNG),
// predictions(), counts, and snapshots.
//
// Snapshots are atomic (all shard locks held) and built on the facade's
// plain-text snapshots, so save -> load -> save is byte-identical. Like
// BanditWare::save_state, exploration RNG state is not serialized — a
// restored server resumes with reseeded exploration streams but identical
// learned models, ridge prior and forgetting factor. Every engine writes
// `banditserver-state v6` (sync baseline, cadence phase, sync mode, and
// λ, ridge and policy tokens cross-checked against the shard blobs);
// v1-v5 still load (missing fields default: ε-greedy, λ = 1, the default
// ridge, prior baseline, inline mode). Snapshots taken mid-async-sync are
// consistent cuts: publishing holds the fuse lock exclusive across the
// whole swap, so a snapshot never observes a half-published generation.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/banditware.hpp"
#include "core/frozen_model.hpp"

namespace bw::io {
struct StateAccess;  // src/io/: the snapshot codecs' window into internals
}

namespace bw::serve {

enum class ShardingPolicy {
  kFeatureHash,  ///< stable hash of the feature vector
  kRoundRobin,   ///< atomic counter, even spread
};

std::string to_string(ShardingPolicy policy);
ShardingPolicy parse_sharding_policy(const std::string& name);

enum class SyncMode {
  kInline,  ///< sync_shards() fuses under all shard locks (stop-the-world)
  kAsync,   ///< a background fuser stages/fuses/publishes off the hot path
};

std::string to_string(SyncMode mode);
SyncMode parse_sync_mode(const std::string& name);

struct BanditServerConfig {
  std::size_t num_shards = 1;
  ShardingPolicy sharding = ShardingPolicy::kFeatureHash;
  core::BanditWareConfig bandit{};  ///< applied to every shard replica
  std::uint64_t seed = 42;          ///< root seed; shard RNGs use child seeds
  std::size_t num_threads = 0;      ///< batch-execution threads (0 = num_shards)
  bool explore = true;              ///< false = pure-exploitation serving
  /// Auto-run a cross-shard sync after every K non-empty observe_batch()
  /// calls. Semantics (pinned by tests/test_serve.cpp):
  ///   * 0 — never sync automatically (manual sync_shards()/request_sync()
  ///     still work). This is the default.
  ///   * K > 0 with num_shards > 1 — fuse every K batches so round-robin
  ///     sharding converges like a single learner.
  ///   * K > 0 with num_shards == 1 — no-op: there is nothing to fuse, so
  ///     the cadence is skipped entirely and no fusion cost is paid.
  std::size_t sync_every = 0;
  /// How sync_every (and request_sync) fuses: inline stop-the-world, or
  /// async off the hot path.
  SyncMode sync_mode = SyncMode::kInline;
};

/// One served decision. `shard` must be echoed back in the matching
/// ServeObservation (kFeatureHash recomputes it, kRoundRobin cannot).
struct ServeDecision {
  std::size_t shard = 0;
  core::ArmIndex arm = 0;
  const hw::HardwareSpec* spec = nullptr;
  bool explored = false;
  double predicted_runtime_s = 0.0;
};

/// Feedback for one served decision.
struct ServeObservation {
  std::size_t shard = 0;
  core::ArmIndex arm = 0;
  core::FeatureVector x;
  double runtime_s = 0.0;
};

class BanditServer {
 public:
  BanditServer(hw::HardwareCatalog catalog, std::vector<std::string> feature_names,
               BanditServerConfig config = {});

  /// Joins the background fuser (if running) after its in-flight round
  /// completes; pending but unstarted sync requests are dropped (their
  /// evidence still lives in the shards — nothing is lost, only unfused).
  ~BanditServer();

  /// Movable (so load_state can return by value) but not copyable: shards
  /// own mutexes and the engine owns its thread pool. Moving stops the
  /// source's fuser thread first (drained semantics as in ~BanditServer);
  /// the destination restarts it lazily on the next request.
  BanditServer(BanditServer&& other) noexcept;
  BanditServer(const BanditServer&) = delete;
  BanditServer& operator=(const BanditServer&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  const BanditServerConfig& config() const { return config_; }
  const std::vector<std::string>& feature_names() const { return feature_names_; }
  const hw::HardwareCatalog& catalog() const { return catalog_; }

  /// Shard a feature vector routes to under kFeatureHash (stable within a
  /// build). For kRoundRobin routing happens per request; use the decision's
  /// `shard` field instead.
  std::size_t shard_of(const core::FeatureVector& x) const;

  /// Serves one decision. Pure-exploitation engines (config.explore ==
  /// false) serve from the shard's published snapshot through the calling
  /// thread's snapshot cache, no lock; exploring engines lock their shard
  /// exclusively (the pick consumes the shard RNG).
  ServeDecision recommend_one(const core::FeatureVector& x);

  /// Serves a batch. Pure-exploitation engines serve inline on the calling
  /// thread from one cached-snapshot lookup per shard-group — no locks, no
  /// pool dispatch (the per-item work is an O(arms * d) prediction pass;
  /// client-side concurrency supplies the parallelism in read-heavy
  /// serving). Exploring engines group per shard and fan out on the
  /// internal pool under exclusive locks. Result i corresponds to xs[i].
  std::vector<ServeDecision> recommend_batch(const std::vector<core::FeatureVector>& xs);

  /// The lock-free read path, independent of config.explore: routes x and
  /// serves the tolerant-greedy recommendation from the shard's published
  /// immutable snapshot (`explored` is always false). The snapshot comes
  /// from the calling thread's cache: one acquire load of the shard's
  /// publication epoch, plus a slot-mutex copy only when the shard has
  /// republished since this thread last read it. This is what
  /// recommend_one/recommend_batch run in pure-exploitation mode; exposed
  /// so mixed deployments (and the publication-protocol tests) can issue
  /// greedy reads against an exploring engine without touching its locks.
  ///
  /// Snapshot lifetime: a thread's cache holds at most one snapshot per
  /// shard of one server. A cached snapshot the shard has since replaced is
  /// released on the thread's next read of that shard, on its first read
  /// of another server, or at thread exit.
  ServeDecision recommend_greedy(const core::FeatureVector& x);

  /// Batched lock-free reads: routes every context, groups per shard, takes
  /// each group's snapshot from the thread's cache once (as in
  /// recommend_greedy), and scores the whole group with
  /// one blocked GEMM-shaped pass over the snapshot's coefficient plane
  /// (core::FrozenModel::recommend_greedy_batch) — amortizing one traversal
  /// of the arms x (d+1) weight matrix across the group instead of
  /// re-walking it per item. Decisions are byte-identical to calling
  /// recommend_greedy per item; result i corresponds to xs[i]. This is what
  /// recommend_batch runs in pure-exploitation mode.
  std::vector<ServeDecision> recommend_greedy_batch(
      const std::vector<core::FeatureVector>& xs);

  /// The shard's currently published snapshot / its publication epoch,
  /// read through the same per-thread cache as recommend_greedy, so one
  /// thread sees one monotone snapshot sequence per shard across all four
  /// read entry points. Monitoring + test hooks.
  std::shared_ptr<const core::FrozenModel> published_model(std::size_t shard) const;
  std::uint64_t published_epoch(std::size_t shard) const;

  /// Feeds one observed runtime back into its shard. The observation is
  /// validated first: shard in range, arm known, feature size matching,
  /// every feature and the runtime finite, and (under kFeatureHash) shard
  /// consistent with the routing of `x`.
  /// Throws InvalidArgument on a stale or malformed observation.
  void observe_one(const ServeObservation& obs);

  /// Batched feedback, grouped per shard and executed concurrently. Every
  /// observation is validated (as in observe_one) before any is applied.
  /// Triggers a sync request every config.sync_every non-empty batches
  /// (skipped entirely for single-shard engines — nothing to fuse).
  void observe_batch(const std::vector<ServeObservation>& observations);

  /// Cross-shard model merge, inline: takes every shard lock, fuses each
  /// replica's evidence since the last sync into one model (exact
  /// sufficient-statistics fusion — see core::BanditWare::merge_from), and
  /// redistributes the fused model to every shard. Afterwards each replica
  /// predicts as if it had seen the full observation stream. The fused
  /// state is remembered as the next sync's baseline, so repeated syncs
  /// never double-count shared evidence. Works in either sync mode (in
  /// async mode it is the quiesce/stop-the-world path; an in-flight async
  /// round that staged before this call is abandoned by its generation
  /// check and its evidence re-folds on the next round).
  void sync_shards();

  /// Requests a cross-shard sync. Inline mode: runs sync_shards() before
  /// returning. Async mode: marks a sync pending and wakes the background
  /// fuser — returns immediately, never blocking on fusion math. Multiple
  /// pending requests coalesce into one round. No-op for 1-shard engines.
  void request_sync();

  /// Blocks until no async sync is pending or in flight (async mode; no-op
  /// inline). After drain_sync() returns, all evidence observed before the
  /// last request_sync() has been published (or re-folds on the next
  /// round if the round was abandoned by a concurrent inline sync).
  void drain_sync();

  /// Number of completed fusions (manual + auto, inline + async published).
  std::size_t sync_count() const;

  /// Fusion generation: bumped once per published baseline swap (inline
  /// sync or async publish). Async rounds staged against a generation that
  /// moved before publish are abandoned, never published stale.
  std::uint64_t generation() const;

  // --- Stepwise async pipeline -------------------------------------------
  // Exactly what the background fuser runs, exposed so the deterministic
  // schedule harness in tests/ can interleave the phases with serving
  // calls. Single-driver: at most one of {fuser thread, external caller}
  // may step the pipeline (the fuser only starts once request_sync() runs
  // in async mode, so a harness that never calls request_sync() owns it).

  /// Stage: snapshots the baseline and every shard's evidence under brief
  /// shared locks. Returns false (and stages nothing) for
  /// 1-shard engines.
  bool sync_stage();

  /// Fuse: information-form fusion of the staged statistics against the
  /// staged baseline. Pure math — no locks held. Requires a staged round.
  void sync_fuse();

  /// Publish: one short all-exclusive window that folds each shard's
  /// late-arriving delta (observations since its stage snapshot) into the
  /// fused model it receives, swaps every shard with no-throw moves, then
  /// swaps the baseline. The window holds every shard lock but only pays
  /// the tiny delta folds — the fleet-wide fusion already ran off-lock in
  /// sync_fuse — and it is failure-atomic: a throw before the swaps leaves
  /// every shard and the baseline untouched. Returns false if the round
  /// was abandoned because the generation moved since staging (e.g. a
  /// concurrent inline sync_shards()).
  bool sync_publish();

  /// Fleet apply hook, in place: for every arm `arms` flags, replaces that
  /// arm's evidence with stats.arms[arm] on every shard replica and on the
  /// sync baseline, and sets ε from stats.epsilon on all of them (ε-greedy
  /// only); unflagged arms keep their evidence and plane columns bit for
  /// bit. Each shard republishes its read snapshot once, and the generation
  /// moves, so a staged async round abandons (its evidence is assumed
  /// folded into `stats` by the caller). The shard-vs-baseline delta
  /// algebra restarts from the adopted state, so local evidence keeps
  /// accumulating on top without double-counting. Everything a restore
  /// would reject — `stats` or `arms` not sized to the catalog, a flagged
  /// arm whose evidence is not RLS::valid_evidence for the engine's
  /// features — throws InvalidArgument before any lock is taken, leaving
  /// every shard, the baseline and every epoch as they were. Nothing is
  /// allocated but the lock list and the republished snapshots. This is
  /// how a fleet node adopts its refolded arms.
  void adopt_stats(const core::BanditWareStats& stats, const std::vector<bool>& arms);

  /// adopt_stats of a whole model, every arm flagged: the model must match
  /// the engine's shape (check_shape; throws InvalidArgument otherwise).
  /// Afterwards the engine serves `model`.
  void adopt_model(const core::BanditWare& model);

  /// R̂ per arm from one shard's replica (locks that shard).
  std::vector<double> predictions(std::size_t shard, const core::FeatureVector& x) const;

  /// Distinct observations absorbed by the engine (consistent cut: fuse
  /// lock + every shard lock, shared) / raw per-shard model counts (locks
  /// each shard briefly). After a sync every shard's model carries the full
  /// fused stream, so the total discounts the shared baseline:
  /// sum(shard counts) - (N-1) * baseline count.
  std::size_t num_observations() const;
  std::vector<std::size_t> shard_observation_counts() const;

  /// Atomic whole-engine snapshot: the fuse lock plus every shard lock is
  /// held (shared) while the text is assembled, so the state is a
  /// consistent cut — even mid-async-sync it captures one generation.
  /// Back-compat convenience over the io layer: equivalent to
  /// `io::save_state(os, *this, io::Format::kText)`; the binary format
  /// lives in src/io/state_io.hpp.
  std::string save_state() const;

  /// Rebuilds a server from a serialized snapshot, any format (text v1-v5
  /// or binary — a thin wrapper over `io::load_server_state`, which
  /// auto-detects from the leading bytes). Throws ParseError.
  static BanditServer load_state(const std::string& text);

 private:
  // The io-layer codecs (src/io/) take the consistent-cut locks and drive
  // the restore constructor; nothing else sees the internals.
  friend struct bw::io::StateAccess;

  // Concurrency model per shard:
  //   * Lock-free reads — pure-exploitation recommends take the shard's
  //     published snapshot from their thread's cache (snapshot()), which
  //     revalidates with one acquire load of `epoch`; only a read that
  //     finds the epoch moved copies `slot` under `slot_mutex`. They never
  //     touch `mutex`. Writers swap in a fresh snapshot before releasing
  //     the exclusive lock, so a read sees either the pre- or post-write
  //     model, never a torn one.
  //   * Exclusive mutex — observes, sync swaps, and exploring recommends.
  //     Exploring recommends must stay exclusive for every policy: ε-greedy
  //     flips the ε-coin and Thompson draws from the posterior (both
  //     advance the shard RNG), and LinUCB rides the same path for
  //     uniformity (explore mode is a per-engine, not per-policy, switch).
  //   * Shared mutex — predictions(), counts, snapshots, and the async
  //     fuser's stage copies: consistent reads of the *live* model (the
  //     published snapshot only carries the greedy surface).
  struct Shard {
    mutable std::shared_mutex mutex;
    core::BanditWare bandit;
    Rng rng;
    /// The published snapshot of `bandit`'s greedy surface. Written only
    /// with both `mutex` (exclusive) and `slot_mutex` held, so a writer may
    /// read it under `mutex` alone; reader cache misses copy it under
    /// `slot_mutex`, which nothing else takes.
    std::shared_ptr<const core::FrozenModel> slot;
    mutable std::mutex slot_mutex;
    /// slot->epoch(), release-stored after every swap. It sits alone on the
    /// struct's last cache line (alignas plus the padding that rounds the
    /// struct's size), so shard-lock and slot traffic never invalidate it.
    alignas(64) std::atomic<std::uint64_t> epoch{0};
    Shard(core::BanditWare b, std::uint64_t seed)
        : bandit(std::move(b)), rng(seed), slot(bandit.freeze(0)) {}
  };

  /// One in-flight async round: staged statistics, then their fused result.
  /// Touched only by the single pipeline driver (fuser thread or harness).
  struct SyncStaging {
    bool staged = false;       ///< sync_stage() completed
    bool fused_ready = false;  ///< sync_fuse() completed
    std::uint64_t generation = 0;  ///< generation_ at stage time
    core::BanditWareStats base;    ///< baseline at stage time
    std::vector<core::BanditWareStats> shard_stats;  ///< per-shard snapshots
    /// Reconstructed replicas (fuse step): per-shard snapshot models —
    /// the merge bases for the publish-time late-delta fold — and the
    /// fused model itself.
    std::vector<core::BanditWare> snapshots;
    std::unique_ptr<core::BanditWare> fused;

    void clear();
  };

  /// The restore path (and the public constructor's tail): the engine's
  /// bandit config, catalog and feature names come from the first replica,
  /// and every other replica and `sync_base` must match them (check_shape).
  BanditServer(BanditServerConfig config, std::vector<core::BanditWare> replicas,
               std::unique_ptr<core::BanditWare> sync_base = nullptr);

  /// core::check_same_shape against the engine, for a model this engine
  /// serves — every replica, the sync baseline, an adopted model, and what
  /// a binary snapshot header declares. Throws InvalidArgument naming
  /// `what` and the first field that differs.
  void check_shape(const hw::HardwareCatalog& catalog,
                   const std::vector<std::string>& feature_names,
                   const core::BanditWareConfig& config, const std::string& what) const;
  void check_shape(const core::BanditWare& model, const std::string& what) const {
    check_shape(model.catalog(), model.feature_names(), model.config(), what);
  }

  std::size_t route(const core::FeatureVector& x);
  std::uint64_t next_rr_ticket();
  /// An exploring decision under the shard's exclusive lock (it consumes
  /// the shard RNG); greedy reads go through decide_frozen instead.
  ServeDecision decide_locked(Shard& shard, std::size_t shard_index,
                              const core::FeatureVector& x);
  ServeDecision decide_frozen(const core::FrozenModel& model, std::size_t shard_index,
                              const core::FeatureVector& x) const;
  /// The read side of publication: the calling thread's cached snapshot of
  /// shard `index`, refreshed if the shard republished since this thread
  /// last read it. The reference stays valid until this thread's next
  /// snapshot() call on another server or on this shard.
  const std::shared_ptr<const core::FrozenModel>& snapshot(std::size_t index) const;
  /// Build-and-swap: the one write-side publication idiom, run with the
  /// shard mutex held exclusive after any write. It freezes the shard's
  /// model (one copy of its coefficient plane) under the next epoch and
  /// swaps it into the slot.
  void republish_locked(Shard& shard);
  static void publish_locked(Shard& shard,
                             std::shared_ptr<const core::FrozenModel> model);
  void validate_observation(const ServeObservation& obs) const;
  void fuser_loop();
  void ensure_fuser_locked();
  void stop_fuser() noexcept;

  BanditServerConfig config_;
  std::vector<std::string> feature_names_;
  std::size_t num_arms_ = 0;  ///< catalog size, identical and immutable per shard
  /// Server-held catalog copy: replicas are constructed identically and
  /// redistribution never widens them, so this stays equal to every
  /// shard's catalog and is readable without any lock (immutable).
  hw::HardwareCatalog catalog_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  /// Round-robin ticket allocator. Threads reserve tickets in blocks (see
  /// next_rr_ticket), so this counts tickets *allocated* — a high-water
  /// mark, not a request count. Snapshots persist it so a restored engine
  /// keeps rotating from where it left off.
  std::atomic<std::uint64_t> rr_counter_{0};
  /// Process-unique identity for the thread-local caches (round-robin
  /// ticket blocks and published snapshots): a cached entry is only valid
  /// for the server instance that filled it (fresh per construction and
  /// per move, so a recycled address or a moved-from engine can never leak
  /// another server's tickets or snapshots).
  std::uint64_t instance_tag_ = 0;

  /// Generation lock. Exclusive: anything that swaps the baseline and the
  /// published models (inline sync_shards, async sync_publish). Shared:
  /// consistent-cut readers (save_state, num_observations) and sync_stage.
  /// Lock order: fuse_mutex_ before shard mutexes (ascending index); the
  /// serving hot path (recommend/observe) never takes fuse_mutex_.
  mutable std::shared_mutex fuse_mutex_;
  /// Fused state at the last sync (initially the untrained prior).
  /// Guarded by fuse_mutex_.
  std::unique_ptr<core::BanditWare> sync_base_;
  /// Inline sync's fusion model, kept between syncs and swapped with
  /// sync_base_ at the end of each: created by the first multi-shard
  /// sync_shards(), so a 1-shard engine never holds one. Its contents are
  /// scratch. Guarded by fuse_mutex_.
  std::unique_ptr<core::BanditWare> sync_fused_;
  /// Observation count of sync_base_, readable without any lock.
  std::atomic<std::size_t> base_obs_count_{0};
  std::atomic<std::uint64_t> observe_batches_{0};  ///< non-empty batches seen
  std::atomic<std::size_t> sync_count_{0};
  std::atomic<std::uint64_t> generation_{0};  ///< published baseline swaps
  SyncStaging staging_;  ///< single-driver (fuser thread or test harness)

  // Background fuser plumbing (async mode; thread starts lazily on the
  // first request_sync so harness-driven servers never spawn it).
  std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::thread fuser_;
  bool sync_pending_ = false;   ///< guarded by async_mutex_
  bool sync_in_round_ = false;  ///< guarded by async_mutex_
  bool fuser_shutdown_ = false;  ///< guarded by async_mutex_
};

}  // namespace bw::serve
