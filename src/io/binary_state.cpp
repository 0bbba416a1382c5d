// Binary snapshot codec: the same models the text formats carry, encoded
// as checksummed packets of raw little-endian doubles (docs/FORMATS.md).
// Save/load is bit-exact (no 17-digit decimal round trip) and an order of
// magnitude faster at production sizes (bench/bench_state_io.cpp gates
// this in CI). Writers emit one packet set; the legacy packet shapes load
// only.
//
// Packet types, `banditware-state` payload (kind 1):
//   0x04 fit        λ f64, ridge f64 — always written first, before the
//                   header; legacy blobs have none (λ = 1, default ridge)
//                   or λ alone (default ridge)
//   0x01 header     config + epsilon + feature names + arm catalog
//   0x05 evidence   arm index, n, R's upper triangle packed row-major
//                   [(d+1)(d+2)/2], z[d+1]
//   0x02 arm stats  arm index, n, theta[d+1], P[(d+1)^2]; load-only,
//                   converted once by the RLS (rejects a P that is not
//                   positive definite)
//   0x03 arm rows   arm index, row count, rows of [x..., y]; load-only,
//                   replayed (legacy snapshots with the exact_history flag)
//   0x7F end        number of arm packets written
//
// `banditserver-state` payload (kind 2):
//   0x13 fit        λ f64, ridge f64 — same contract as 0x04, checked
//                   against the restored engine
//   0x10 header     server config + counters + bandit config + catalog
//   0x11 shard      shard index + nested banditware-state container
//   0x12 base       nested banditware-state container (sync baseline)
//   0x7F end        number of shard + base packets written
//
// Truncation contract: a torn or checksum-failing packet ends the stream
// tolerantly — everything before it is restored (missing arms stay at the
// prior, missing shards restore as fresh replicas) and LoadInfo::truncated
// is set. The missing-end-packet case (a file torn exactly at a packet
// boundary) is caught by the end sentinel. A semantic contradiction inside
// a checksum-valid packet is a hard ParseError: those bytes were written
// that way.

#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "io/codec.hpp"
#include "io/state_access.hpp"

namespace bw::io::detail {
namespace {

using core::ArmIndex;
using core::BanditWare;
using core::PolicyKind;

// Packet types (see the format map above).
constexpr std::uint8_t kBanditHeader = 0x01;
constexpr std::uint8_t kArmStats = 0x02;
constexpr std::uint8_t kArmRows = 0x03;
constexpr std::uint8_t kBanditFit = 0x04;
constexpr std::uint8_t kArmEvidence = 0x05;
constexpr std::uint8_t kServerHeader = 0x10;
constexpr std::uint8_t kShard = 0x11;
constexpr std::uint8_t kBase = 0x12;
constexpr std::uint8_t kServerFit = 0x13;
constexpr std::uint8_t kEnd = 0x7F;

[[noreturn]] void fail(const std::string& what) {
  throw ParseError("BanditWare::load_state: " + what);
}

[[noreturn]] void fail_server(const std::string& what) {
  throw ParseError("BanditServer::load_state: " + what);
}

void put_spec(std::string& out, const hw::HardwareSpec& spec) {
  put_string(out, spec.name);
  put_i32(out, spec.cpus);
  put_f64(out, spec.memory_gb);
  put_i32(out, spec.gpus);
}

hw::HardwareSpec get_spec(PayloadReader& reader) {
  hw::HardwareSpec spec;
  spec.name = reader.get_string();
  spec.cpus = reader.get_i32();
  spec.memory_gb = reader.get_f64();
  spec.gpus = reader.get_i32();
  return spec;
}

/// The BanditWareConfig scalars both header packets share. λ and the ridge
/// ride in the fit packet ahead of the header; the resource weights are a
/// construction parameter, not serialized, matching the text formats.
void put_bandit_config(std::string& out, const core::BanditWareConfig& config) {
  put_u8(out, static_cast<std::uint8_t>(config.policy_kind));
  put_f64(out, config.alpha);
  put_f64(out, config.posterior_scale);
  put_f64(out, config.policy.initial_epsilon);
  put_f64(out, config.policy.decay);
  put_f64(out, config.policy.tolerance.ratio);
  put_f64(out, config.policy.tolerance.seconds);
  put_u8(out, 0);  // legacy exact_history flag: row packets are load-only
}

/// `fit` comes from the fit packet that precedes the header; `exact_history`
/// receives the legacy flag announcing 0x03 row packets.
core::BanditWareConfig get_bandit_config(PayloadReader& reader,
                                         const linalg::FitOptions& fit,
                                         bool& exact_history,
                                         void (*raise)(const std::string&)) {
  core::BanditWareConfig config;
  config.policy.fit = fit;
  const std::uint8_t kind = reader.get_u8();
  if (kind > static_cast<std::uint8_t>(PolicyKind::kThompson)) {
    raise("unknown policy kind");
  }
  config.policy_kind = static_cast<PolicyKind>(kind);
  config.alpha = reader.get_f64();
  config.posterior_scale = reader.get_f64();
  config.policy.initial_epsilon = reader.get_f64();
  config.policy.decay = reader.get_f64();
  config.policy.tolerance.ratio = reader.get_f64();
  config.policy.tolerance.seconds = reader.get_f64();
  exact_history = reader.get_u8() != 0;
  // Row-carrying snapshots were only ever written for ε-greedy at λ = 1.
  if (exact_history &&
      (fit.forgetting != 1.0 || config.policy_kind != PolicyKind::kEpsilonGreedy)) {
    raise("exact_history rows require an epsilon-greedy snapshot with lambda 1");
  }
  return config;
}

void put_names(std::string& out, const std::vector<std::string>& names) {
  put_u32(out, static_cast<std::uint32_t>(names.size()));
  for (const auto& name : names) put_string(out, name);
}

std::vector<std::string> get_feature_names(PayloadReader& reader,
                                           void (*raise)(const std::string&)) {
  const std::uint32_t count = reader.get_u32();
  if (count == 0) raise("expected features");
  if (count > kMaxFeatures) raise("feature count exceeds limit");
  std::vector<std::string> names;
  names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) names.push_back(reader.get_string());
  return names;
}

void put_catalog(std::string& out, const hw::HardwareCatalog& catalog) {
  put_u32(out, static_cast<std::uint32_t>(catalog.size()));
  for (const auto& spec : catalog.specs()) put_spec(out, spec);
}

void put_fit(std::string& out, const linalg::FitOptions& fit) {
  put_f64(out, fit.forgetting);
  put_f64(out, fit.ridge);
}

/// Reads a fit packet's payload: λ, then the ridge. Older writers emitted
/// λ alone (and only when λ != 1); those load with the default ridge. The
/// ranges are the RLS constructor's rule.
linalg::FitOptions get_fit(PayloadReader& payload) {
  linalg::FitOptions fit;
  fit.forgetting = payload.get_f64();
  if (payload.remaining() != 0) fit.ridge = payload.get_f64();
  payload.expect_done("fit");
  return fit;
}

hw::HardwareCatalog get_catalog(PayloadReader& reader,
                                void (*raise)(const std::string&)) {
  const std::uint32_t count = reader.get_u32();
  if (count == 0) raise("expected arms");
  if (count > kMaxArms) raise("arm count exceeds limit");
  hw::HardwareCatalog catalog;
  for (std::uint32_t i = 0; i < count; ++i) catalog.add(get_spec(reader));
  return catalog;
}

void write_bandit_packets(std::ostream& os, const BanditWare& bandit) {
  const core::BanditWareConfig& config = bandit.config();

  write_container_magic(os, PayloadKind::kBanditWareState);

  std::string payload;
  put_fit(payload, config.policy.fit);
  write_packet(os, kBanditFit, payload);
  payload.clear();
  put_bandit_config(payload, config);
  // Like the text writer, the epsilon line is live state for ε-greedy and
  // the schedule origin for the other kinds.
  put_f64(payload, config.policy_kind == PolicyKind::kEpsilonGreedy
                       ? bandit.epsilon()
                       : config.policy.initial_epsilon);
  put_names(payload, bandit.feature_names());
  put_catalog(payload, bandit.catalog());
  write_packet(os, kBanditHeader, payload);

  for (ArmIndex arm = 0; arm < bandit.num_arms(); ++arm) {
    const auto& rls = bandit.arm_model(arm);
    payload.clear();
    put_u32(payload, static_cast<std::uint32_t>(arm));
    put_u64(payload, rls.n_observations());
    put_f64_array(payload, rls.r().data(), rls.r().size());
    put_f64_array(payload, rls.z().data(), rls.z().size());
    write_packet(os, kArmEvidence, payload);
  }

  payload.clear();
  put_u64(payload, bandit.num_arms());
  write_packet(os, kEnd, payload);
}

/// Appends one banditware-state container to `out`. A server snapshot's
/// shard and base blobs are written straight into their packet payloads,
/// so a save holds no second copy of a blob (a 2048-arm blob is 1.3 MB).
void append_bandit_binary(std::string& out, const BanditWare& bandit) {
  std::ostringstream os(std::move(out), std::ios::binary | std::ios::ate);
  write_bandit_packets(os, bandit);
  out = std::move(os).str();
}

}  // namespace

std::string bandit_state_binary(const BanditWare& bandit) {
  std::string out;
  append_bandit_binary(out, bandit);
  return out;
}

core::BanditWare load_bandit_binary(std::istream& is, LoadInfo* info) {
  PacketReader reader(is, PayloadKind::kBanditWareState);

  std::optional<BanditWare> bandit;
  double epsilon = 1.0;
  linalg::FitOptions fit;  // no fit packet: λ = 1, default ridge
  bool saw_fit = false;
  bool exact_history = false;
  std::size_t dim = 0;
  std::vector<bool> arm_seen;
  std::uint64_t arm_packets = 0;
  bool saw_end = false;
  // Scratch reused across arm packets (every arm has the same shape).
  core::ArmStats stats;
  linalg::Vector theta;
  linalg::Matrix p;

  Packet packet;
  while (!saw_end && reader.next(packet)) {
    PayloadReader payload(packet.payload);
    switch (packet.type) {
      case kBanditFit: {
        if (bandit.has_value()) fail("fit packet after header");
        if (saw_fit) fail("duplicate fit packet");
        fit = get_fit(payload);
        saw_fit = true;
        break;
      }
      case kBanditHeader: {
        if (bandit.has_value()) fail("duplicate header packet");
        const core::BanditWareConfig config =
            get_bandit_config(payload, fit, exact_history, &fail);
        epsilon = payload.get_f64();
        std::vector<std::string> feature_names = get_feature_names(payload, &fail);
        hw::HardwareCatalog catalog = get_catalog(payload, &fail);
        payload.expect_done("header");
        dim = feature_names.size();
        arm_seen.assign(catalog.size(), false);
        bandit.emplace(std::move(catalog), std::move(feature_names), config);
        break;
      }
      case kArmEvidence:
      case kArmStats:
      case kArmRows: {
        if (!bandit.has_value()) fail("arm packet before header");
        const std::uint32_t arm = payload.get_u32();
        if (arm >= arm_seen.size()) fail("arm packet names unknown arm");
        if (arm_seen[arm]) fail("duplicate arm packet");
        const bool exact = packet.type == kArmRows;
        if (exact != exact_history) {
          fail("arm record kind contradicts exact_history flag");
        }
        const std::uint64_t n = payload.get_u64();
        if (n > kMaxObservationsPerArm) fail("obs count exceeds limit");
        const std::size_t dim_aug = dim + 1;
        if (exact) {
          // Size check up front: the allocation below must be bounded by
          // the (checksummed) bytes actually present in the packet.
          const std::size_t row_bytes = (dim + 1) * sizeof(double);
          if (payload.remaining() != n * row_bytes) fail("truncated observation");
          core::FeatureVector x(dim);
          for (std::uint64_t i = 0; i < n; ++i) {
            payload.get_f64_array(x.data(), dim);
            const double y = payload.get_f64();
            StateAccess::banked(*bandit).observe(arm, x, y);
          }
        } else if (packet.type == kArmEvidence) {
          const std::size_t packed = linalg::RecursiveLeastSquares::packed_size(dim);
          if (payload.remaining() != (packed + dim_aug) * sizeof(double)) {
            fail("truncated evidence");
          }
          stats.r.resize(packed);
          stats.z.resize(dim_aug);
          payload.get_f64_array(stats.r.data(), packed);
          payload.get_f64_array(stats.z.data(), dim_aug);
        } else {
          if (payload.remaining() != (dim_aug + dim_aug * dim_aug) * sizeof(double)) {
            fail("truncated sufficient statistics");
          }
          if (theta.size() != dim_aug) {
            theta.resize(dim_aug);
            p = linalg::Matrix(dim_aug, dim_aug);
          }
          payload.get_f64_array(theta.data(), dim_aug);
          payload.get_f64_array(p.data().data(), dim_aug * dim_aug);
          if (!linalg::RecursiveLeastSquares::information_from_covariance(
                  p, theta, stats.r, stats.z)) {
            fail("covariance P is not positive definite");
          }
        }
        if (!exact) {
          stats.n = static_cast<std::size_t>(n);
          StateAccess::banked(*bandit).bank().restore_arm(arm, stats);
        }
        payload.expect_done("arm");
        arm_seen[arm] = true;
        ++arm_packets;
        break;
      }
      case kEnd: {
        if (!bandit.has_value()) fail("end packet before header");
        const std::uint64_t count = payload.get_u64();
        payload.expect_done("end");
        if (count != arm_packets) fail("end packet count mismatch");
        saw_end = true;
        break;
      }
      default:
        // Unknown packet types are skipped: a newer writer may append
        // packet kinds this reader predates.
        break;
    }
  }

  if (!bandit.has_value()) fail("truncated before header packet");
  if (auto* eps = StateAccess::eps_greedy(*bandit)) eps->set_epsilon(epsilon);
  if (info != nullptr) {
    info->format = Format::kBinary;
    info->version = kMagic[7];
    info->truncated = reader.truncated() || !saw_end;
  }
  return std::move(*bandit);
}

void save_server_binary(std::ostream& os, const serve::BanditServer& server) {
  // Same consistent cut as the text writer: fuse lock + every shard lock,
  // shared, across the whole serialization.
  const StateAccess::ServerReadLock lock = StateAccess::lock_snapshot(server);

  const serve::BanditServerConfig& config = server.config();
  const std::size_t num_shards = StateAccess::num_shards(server);

  write_container_magic(os, PayloadKind::kBanditServerState);

  std::string payload;
  put_fit(payload, config.bandit.policy.fit);
  write_packet(os, kServerFit, payload);
  payload.clear();
  put_u32(payload, static_cast<std::uint32_t>(num_shards));
  put_u8(payload, static_cast<std::uint8_t>(config.sharding));
  put_u64(payload, config.seed);
  put_u32(payload, static_cast<std::uint32_t>(config.num_threads));
  put_u8(payload, config.explore ? 1 : 0);
  put_u64(payload, config.sync_every);
  put_u8(payload, static_cast<std::uint8_t>(config.sync_mode));
  put_u64(payload, StateAccess::observe_batches(server));
  put_u64(payload, StateAccess::rr_counter(server));
  // The full bandit config + catalog ride in the header so a truncated
  // snapshot (torn shard packets) can still restore the engine shape with
  // fresh replicas where blobs are missing.
  put_bandit_config(payload, config.bandit);
  put_names(payload, server.feature_names());
  put_catalog(payload, StateAccess::shard_bandit(server, 0).catalog());
  write_packet(os, kServerHeader, payload);

  for (std::size_t s = 0; s < num_shards; ++s) {
    payload.clear();
    put_u32(payload, static_cast<std::uint32_t>(s));
    append_bandit_binary(payload, StateAccess::shard_bandit(server, s));
    write_packet(os, kShard, payload);
  }
  payload.clear();
  append_bandit_binary(payload, StateAccess::sync_base(server));
  write_packet(os, kBase, payload);

  payload.clear();
  put_u64(payload, num_shards + 1);
  write_packet(os, kEnd, payload);
}

serve::BanditServer load_server_binary(std::istream& is, LoadInfo* info) {
  PacketReader reader(is, PayloadKind::kBanditServerState);

  serve::BanditServerConfig config;
  std::uint64_t rr_counter = 0;
  std::uint64_t observe_batches = 0;
  std::vector<std::string> feature_names;
  hw::HardwareCatalog catalog;
  bool saw_header = false;
  bool saw_end = false;
  linalg::FitOptions header_fit;  // no fit packet: λ = 1, default ridge
  bool saw_fit = false;
  std::size_t num_shards = 0;
  std::vector<std::optional<BanditWare>> slots;
  std::unique_ptr<BanditWare> base;
  std::uint64_t blob_packets = 0;

  // A nested blob is itself a full banditware-state container; it sits
  // inside a checksum-valid packet, so any truncation inside it is a
  // writer-side defect, not a torn file — a hard error.
  auto load_blob = [](PayloadReader& payload, const char* what) -> BanditWare {
    std::istringstream blob(payload.rest(), std::ios::binary);
    LoadInfo nested;
    BanditWare loaded = load_bandit_binary(blob, &nested);
    if (nested.truncated) fail_server(std::string("truncated ") + what + " blob");
    return loaded;
  };

  Packet packet;
  while (!saw_end && reader.next(packet)) {
    PayloadReader payload(packet.payload);
    switch (packet.type) {
      case kServerFit: {
        if (saw_header) fail_server("fit packet after header");
        if (saw_fit) fail_server("duplicate fit packet");
        header_fit = get_fit(payload);
        saw_fit = true;
        break;
      }
      case kServerHeader: {
        if (saw_header) fail_server("duplicate header packet");
        num_shards = payload.get_u32();
        if (num_shards == 0) fail_server("expected shards");
        if (num_shards > kMaxShards) fail_server("shard count exceeds limit");
        const std::uint8_t sharding = payload.get_u8();
        if (sharding > static_cast<std::uint8_t>(serve::ShardingPolicy::kRoundRobin)) {
          fail_server("unknown sharding policy");
        }
        config.sharding = static_cast<serve::ShardingPolicy>(sharding);
        config.seed = payload.get_u64();
        config.num_threads = payload.get_u32();
        if (config.num_threads > kMaxShards) fail_server("thread count exceeds limit");
        config.explore = payload.get_u8() != 0;
        config.sync_every = payload.get_u64();
        const std::uint8_t sync_mode = payload.get_u8();
        if (sync_mode > static_cast<std::uint8_t>(serve::SyncMode::kAsync)) {
          fail_server("unknown sync mode");
        }
        config.sync_mode = static_cast<serve::SyncMode>(sync_mode);
        observe_batches = payload.get_u64();
        rr_counter = payload.get_u64();
        bool exact_history = false;  // shard blobs carry their own flag
        config.bandit =
            get_bandit_config(payload, header_fit, exact_history, &fail_server);
        feature_names = get_feature_names(payload, &fail_server);
        catalog = get_catalog(payload, &fail_server);
        payload.expect_done("header");
        slots.resize(num_shards);
        saw_header = true;
        break;
      }
      case kShard: {
        if (!saw_header) fail_server("shard packet before header");
        const std::uint32_t index = payload.get_u32();
        if (index >= num_shards) fail_server("shard packet names unknown shard");
        if (slots[index].has_value()) fail_server("duplicate shard packet");
        slots[index] = load_blob(payload, "shard");
        ++blob_packets;
        break;
      }
      case kBase: {
        if (!saw_header) fail_server("base packet before header");
        if (base != nullptr) fail_server("duplicate base packet");
        base = std::make_unique<BanditWare>(load_blob(payload, "base"));
        ++blob_packets;
        break;
      }
      case kEnd: {
        if (!saw_header) fail_server("end packet before header");
        const std::uint64_t count = payload.get_u64();
        payload.expect_done("end");
        if (count != blob_packets) fail_server("end packet count mismatch");
        saw_end = true;
        break;
      }
      default:
        break;  // forward compatibility: unknown packet types are skipped
    }
  }

  if (!saw_header) fail_server("truncated before header packet");

  // Missing shard blobs (torn snapshot) restore as fresh replicas: the
  // engine keeps its shape and every arm it did not lose.
  std::vector<BanditWare> replicas;
  replicas.reserve(num_shards);
  for (auto& slot : slots) {
    if (slot.has_value()) {
      replicas.push_back(std::move(*slot));
    } else {
      replicas.emplace_back(catalog, feature_names, config.bandit);
    }
  }

  // The restore constructor holds every blob to the first one; the shape
  // the header declares (0x10, with λ and the ridge from 0x13) meets the
  // same rule.
  serve::BanditServer server = StateAccess::make_server(
      config, std::move(replicas), std::move(base), rr_counter, observe_batches);
  StateAccess::check_shape(server, catalog, feature_names, config.bandit, "header");

  if (info != nullptr) {
    info->format = Format::kBinary;
    info->version = kMagic[7];
    info->truncated = reader.truncated() || !saw_end;
  }
  return server;
}

}  // namespace bw::io::detail
