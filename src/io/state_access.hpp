#pragma once
// Internal to src/io/: the one friend the core/serve classes grant so the
// codecs can live outside them. Serialization needs three things the public
// API deliberately hides — the mutable policy bank (to restore stats and
// replay histories), the server's consistent-cut locking, and the server's
// restore constructor. Keeping them behind this single struct means the
// classes stay sealed to everyone else and the codecs stay out of core.

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/banditware.hpp"
#include "serve/bandit_server.hpp"

namespace bw::io {

struct StateAccess {
  // ---- BanditWare ------------------------------------------------------
  static core::BankedPolicy& banked(core::BanditWare& bandit) {
    return bandit.banked();
  }
  static const core::BankedPolicy& banked(const core::BanditWare& bandit) {
    return bandit.banked();
  }
  static core::DecayingEpsilonGreedy* eps_greedy(core::BanditWare& bandit) {
    return bandit.eps_greedy();
  }

  // ---- BanditServer ----------------------------------------------------
  /// Consistent-cut read lock for snapshotting: the fuse lock plus every
  /// shard lock, shared — an async publish (which holds the fuse lock
  /// exclusive across all its swaps) can never be half-visible. Lock order
  /// is fuse lock then shard index ascending, matching every other
  /// multi-lock path in the server.
  struct ServerReadLock {
    std::shared_lock<std::shared_mutex> fuse;
    std::vector<std::shared_lock<std::shared_mutex>> shards;
  };
  static ServerReadLock lock_snapshot(const serve::BanditServer& server) {
    ServerReadLock lock;
    lock.fuse = std::shared_lock(server.fuse_mutex_);
    lock.shards.reserve(server.shards_.size());
    for (const auto& shard : server.shards_) lock.shards.emplace_back(shard->mutex);
    return lock;
  }

  static std::size_t num_shards(const serve::BanditServer& server) {
    return server.shards_.size();
  }
  static const core::BanditWare& shard_bandit(const serve::BanditServer& server,
                                              std::size_t shard) {
    return server.shards_[shard]->bandit;
  }
  static const core::BanditWare& sync_base(const serve::BanditServer& server) {
    return *server.sync_base_;
  }
  static std::uint64_t rr_counter(const serve::BanditServer& server) {
    return server.rr_counter_.load(std::memory_order_relaxed);
  }
  static std::uint64_t observe_batches(const serve::BanditServer& server) {
    return server.observe_batches_.load(std::memory_order_relaxed);
  }
  /// The engine's shape rule, applied to what a snapshot header declares.
  static void check_shape(const serve::BanditServer& server,
                          const hw::HardwareCatalog& catalog,
                          const std::vector<std::string>& feature_names,
                          const core::BanditWareConfig& config, const std::string& what) {
    server.check_shape(catalog, feature_names, config, what);
  }

  /// The restore path: builds a server around pre-loaded replicas (and an
  /// optional sync baseline) and reinstates the routing/cadence counters.
  /// `config.bandit` is not read: the engine takes its shape from the first
  /// replica and rejects any replica or `base` that differs (InvalidArgument,
  /// which the io entry points turn into ParseError).
  static serve::BanditServer make_server(serve::BanditServerConfig config,
                                         std::vector<core::BanditWare> replicas,
                                         std::unique_ptr<core::BanditWare> base,
                                         std::uint64_t rr_counter,
                                         std::uint64_t observe_batches) {
    serve::BanditServer server(std::move(config), std::move(replicas), std::move(base));
    server.rr_counter_.store(rr_counter, std::memory_order_relaxed);
    server.observe_batches_.store(observe_batches, std::memory_order_relaxed);
    return server;
  }
};

}  // namespace bw::io
