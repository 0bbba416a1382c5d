#include "io/fleet_wire.hpp"

#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "io/container.hpp"

namespace bw::io {
namespace {

// Packet types — kind 4 (fleet delta). 0x4x for kind 5 (fleet node); the
// origin-block layout is shared between the two kinds.
constexpr std::uint8_t kPacketDeltaHeader = 0x30;
constexpr std::uint8_t kPacketOriginBlock = 0x31;
constexpr std::uint8_t kPacketVersionVector = 0x32;
constexpr std::uint8_t kPacketNodeHeader = 0x40;
constexpr std::uint8_t kPacketServerBlob = 0x41;
constexpr std::uint8_t kPacketNodeOriginBlock = 0x42;
constexpr std::uint8_t kPacketEnd = 0x7F;
/// Version 2 carries evidence (R, z) per entry; version 1's (θ, P)
/// entries are load-only, converted once by the RLS.
constexpr std::uint8_t kWireVersion = 2;
constexpr std::uint8_t kWireVersionCovariance = 1;

[[noreturn]] void fail(const std::string& what) {
  throw ParseError("fleet wire: " + what);
}

void put_wire_config(std::string& payload, const FleetWireConfig& config) {
  put_u8(payload, static_cast<std::uint8_t>(config.policy));
  put_f64(payload, config.alpha);
  put_f64(payload, config.posterior_scale);
  put_f64(payload, config.initial_epsilon);
  put_f64(payload, config.decay);
  put_f64(payload, config.lambda);
  put_f64(payload, config.ridge);
  put_u32(payload, config.num_features);
  put_u32(payload, config.num_arms);
}

FleetWireConfig get_wire_config(PayloadReader& payload) {
  FleetWireConfig config;
  const std::uint8_t policy = payload.get_u8();
  switch (policy) {
    case static_cast<std::uint8_t>(core::PolicyKind::kEpsilonGreedy):
    case static_cast<std::uint8_t>(core::PolicyKind::kLinUcb):
    case static_cast<std::uint8_t>(core::PolicyKind::kThompson):
      config.policy = static_cast<core::PolicyKind>(policy);
      break;
    default:
      fail("unknown policy token " + std::to_string(policy));
  }
  config.alpha = payload.get_f64();
  config.posterior_scale = payload.get_f64();
  config.initial_epsilon = payload.get_f64();
  config.decay = payload.get_f64();
  config.lambda = payload.get_f64();
  config.ridge = payload.get_f64();
  if (!std::isfinite(config.alpha) || !std::isfinite(config.posterior_scale) ||
      !std::isfinite(config.initial_epsilon) || !std::isfinite(config.decay) ||
      !std::isfinite(config.ridge)) {
    fail("non-finite config scalar");
  }
  if (!(config.lambda > 0.0) || config.lambda > 1.0) {
    fail("forgetting factor out of (0, 1]");
  }
  config.num_features = payload.get_u32();
  config.num_arms = payload.get_u32();
  if (config.num_features > kMaxFeatures) fail("feature count exceeds limit");
  if (config.num_arms == 0 || config.num_arms > kMaxArms) {
    fail("arm count out of range");
  }
  return config;
}

void put_origin_block(std::string& payload, const FleetOriginBlock& block) {
  put_u32(payload, block.origin.node);
  put_u32(payload, block.origin.incarnation);
  put_u32(payload, static_cast<std::uint32_t>(block.arms.size()));
  for (const FleetArmEntry& entry : block.arms) {
    put_u32(payload, entry.arm);
    put_u64(payload, entry.stats.n);
    put_f64_array(payload, entry.stats.r.data(), entry.stats.r.size());
    put_f64_array(payload, entry.stats.z.data(), entry.stats.z.size());
  }
}

/// Reads a header's wire version byte: the current one, or version 1.
std::uint8_t get_wire_version(PayloadReader& payload) {
  const std::uint8_t version = payload.get_u8();
  if (version != kWireVersion && version != kWireVersionCovariance) {
    fail("unknown wire version");
  }
  return version;
}

/// Parses one origin block. The per-entry size is fixed by the header's
/// feature count (and the wire version), so the whole payload is
/// size-checked before any of it is decoded — a hostile entry count fails
/// here, not in an allocator. Each entry's evidence must be valid for the
/// RLS (finite, R's diagonal positive): a bad entry stored in a slot would
/// make every later refold of that arm throw.
FleetOriginBlock get_origin_block(PayloadReader& payload, const FleetWireConfig& config,
                                  std::uint8_t version) {
  FleetOriginBlock block;
  block.origin.node = payload.get_u32();
  block.origin.incarnation = payload.get_u32();
  const std::uint32_t count = payload.get_u32();
  if (count > config.num_arms) fail("origin block entry count exceeds arm count");
  const std::size_t dim = config.num_features;
  const std::size_t dim_aug = dim + 1;
  const std::size_t packed = linalg::RecursiveLeastSquares::packed_size(dim);
  const std::size_t stats_doubles =
      version == kWireVersion ? packed + dim_aug : dim_aug + dim_aug * dim_aug;
  const std::size_t entry_bytes =
      sizeof(std::uint32_t) + sizeof(std::uint64_t) + stats_doubles * sizeof(double);
  if (payload.remaining() != count * entry_bytes) {
    fail("origin block size mismatch");
  }
  std::set<std::uint32_t> seen;
  block.arms.reserve(count);
  linalg::Vector theta;
  linalg::Matrix p;
  for (std::uint32_t i = 0; i < count; ++i) {
    FleetArmEntry entry;
    entry.arm = payload.get_u32();
    if (entry.arm >= config.num_arms) fail("origin block names unknown arm");
    if (!seen.insert(entry.arm).second) fail("duplicate arm in origin block");
    const std::uint64_t n = payload.get_u64();
    if (n == 0) fail("origin block entry carries no observations");
    if (n > kMaxObservationsPerArm) fail("obs count exceeds limit");
    entry.stats.n = static_cast<std::size_t>(n);
    if (version == kWireVersion) {
      entry.stats.r.resize(packed);
      entry.stats.z.resize(dim_aug);
      payload.get_f64_array(entry.stats.r.data(), packed);
      payload.get_f64_array(entry.stats.z.data(), dim_aug);
      if (!linalg::RecursiveLeastSquares::valid_evidence(dim, entry.stats.r,
                                                         entry.stats.z)) {
        fail("invalid evidence (non-finite, or R's diagonal not positive)");
      }
    } else {
      theta.resize(dim_aug);
      p = linalg::Matrix(dim_aug, dim_aug);
      payload.get_f64_array(theta.data(), dim_aug);
      payload.get_f64_array(p.data().data(), dim_aug * dim_aug);
      if (!linalg::RecursiveLeastSquares::information_from_covariance(
              p, theta, entry.stats.r, entry.stats.z)) {
        fail("non-finite statistic, or covariance P not positive definite");
      }
    }
    block.arms.push_back(std::move(entry));
  }
  payload.expect_done("origin block");
  return block;
}

/// Duplicate-origin guard shared by both readers: a well-formed writer
/// emits at most one block per origin, so a repeat is corruption (or a
/// stitched message), not tolerable reordering.
struct OriginSeen {
  std::set<std::pair<std::uint32_t, std::uint32_t>> keys;
  void check(const FleetOriginKey& origin) {
    if (!keys.insert({origin.node, origin.incarnation}).second) {
      fail("duplicate origin block");
    }
    if (keys.size() > kMaxFleetOrigins) fail("origin count exceeds limit");
  }
};

}  // namespace

std::string save_fleet_delta(const FleetDelta& delta) {
  std::ostringstream os(std::ios::binary);
  write_container_magic(os, PayloadKind::kFleetDelta);

  std::string payload;
  put_u8(payload, kWireVersion);
  put_u32(payload, delta.sender);
  put_u32(payload, delta.sender_incarnation);
  put_wire_config(payload, delta.config);
  write_packet(os, kPacketDeltaHeader, payload);

  for (const FleetOriginBlock& block : delta.origins) {
    payload.clear();
    put_origin_block(payload, block);
    write_packet(os, kPacketOriginBlock, payload);
  }

  payload.clear();
  put_u32(payload, static_cast<std::uint32_t>(delta.version_vector.size()));
  for (const FleetVvEntry& entry : delta.version_vector) {
    put_u32(payload, entry.origin.node);
    put_u32(payload, entry.origin.incarnation);
    BW_CHECK_MSG(entry.per_arm_n.size() == delta.config.num_arms,
                 "fleet wire: version vector entry arity mismatch");
    for (std::uint64_t n : entry.per_arm_n) put_u64(payload, n);
  }
  write_packet(os, kPacketVersionVector, payload);

  payload.clear();
  put_u64(payload, delta.origins.size());
  write_packet(os, kPacketEnd, payload);
  return os.str();
}

FleetDelta load_fleet_delta(const std::string& bytes, bool* truncated) {
  std::istringstream is(bytes, std::ios::binary);
  PacketReader reader(is, PayloadKind::kFleetDelta);

  FleetDelta delta;
  std::uint8_t version = kWireVersion;
  bool have_header = false;
  bool have_vv = false;
  bool clean_end = false;
  OriginSeen seen;
  Packet packet;
  while (reader.next(packet)) {
    if (clean_end) fail("data after end packet");
    PayloadReader payload(packet.payload);
    switch (packet.type) {
      case kPacketDeltaHeader: {
        if (have_header) fail("duplicate header");
        version = get_wire_version(payload);
        delta.sender = payload.get_u32();
        delta.sender_incarnation = payload.get_u32();
        delta.config = get_wire_config(payload);
        payload.expect_done("delta header");
        have_header = true;
        break;
      }
      case kPacketOriginBlock: {
        if (!have_header) fail("origin block before header");
        FleetOriginBlock block = get_origin_block(payload, delta.config, version);
        seen.check(block.origin);
        delta.origins.push_back(std::move(block));
        break;
      }
      case kPacketVersionVector: {
        if (!have_header) fail("version vector before header");
        if (have_vv) fail("duplicate version vector");
        const std::uint32_t count = payload.get_u32();
        if (count > kMaxFleetOrigins) fail("origin count exceeds limit");
        const std::size_t entry_bytes =
            2 * sizeof(std::uint32_t) +
            static_cast<std::size_t>(delta.config.num_arms) * sizeof(std::uint64_t);
        if (payload.remaining() != count * entry_bytes) {
          fail("version vector size mismatch");
        }
        std::set<std::pair<std::uint32_t, std::uint32_t>> vv_seen;
        delta.version_vector.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          FleetVvEntry entry;
          entry.origin.node = payload.get_u32();
          entry.origin.incarnation = payload.get_u32();
          if (!vv_seen.insert({entry.origin.node, entry.origin.incarnation}).second) {
            fail("duplicate origin in version vector");
          }
          entry.per_arm_n.resize(delta.config.num_arms);
          for (std::uint64_t& n : entry.per_arm_n) {
            n = payload.get_u64();
            if (n > kMaxObservationsPerArm) fail("obs count exceeds limit");
          }
          delta.version_vector.push_back(std::move(entry));
        }
        payload.expect_done("version vector");
        have_vv = true;
        break;
      }
      case kPacketEnd: {
        if (!have_header) fail("end packet before header");
        if (payload.get_u64() != delta.origins.size()) {
          fail("origin block count mismatch");
        }
        payload.expect_done("end packet");
        clean_end = true;
        break;
      }
      default:
        break;  // unknown packet type: skip (forward compatibility)
    }
  }
  if (!have_header) fail("missing header");
  if (truncated != nullptr) *truncated = reader.truncated() || !clean_end;
  return delta;
}

std::string save_fleet_node(const FleetNodeState& state) {
  std::ostringstream os(std::ios::binary);
  write_container_magic(os, PayloadKind::kFleetNode);

  std::string payload;
  put_u8(payload, kWireVersion);
  put_u32(payload, state.node);
  put_u32(payload, state.incarnation);
  put_wire_config(payload, state.config);
  write_packet(os, kPacketNodeHeader, payload);

  write_packet(os, kPacketServerBlob, state.server_blob);

  for (const FleetOriginBlock& block : state.origins) {
    payload.clear();
    put_origin_block(payload, block);
    write_packet(os, kPacketNodeOriginBlock, payload);
  }

  payload.clear();
  put_u64(payload, state.origins.size() + 1);  // origin blocks + server blob
  write_packet(os, kPacketEnd, payload);
  return os.str();
}

FleetNodeState load_fleet_node(const std::string& bytes, bool* truncated) {
  std::istringstream is(bytes, std::ios::binary);
  PacketReader reader(is, PayloadKind::kFleetNode);

  FleetNodeState state;
  std::uint8_t version = kWireVersion;
  bool have_header = false;
  bool have_blob = false;
  bool clean_end = false;
  OriginSeen seen;
  Packet packet;
  while (reader.next(packet)) {
    if (clean_end) fail("data after end packet");
    PayloadReader payload(packet.payload);
    switch (packet.type) {
      case kPacketNodeHeader: {
        if (have_header) fail("duplicate header");
        version = get_wire_version(payload);
        state.legacy_engine = version == kWireVersionCovariance;
        state.node = payload.get_u32();
        state.incarnation = payload.get_u32();
        state.config = get_wire_config(payload);
        payload.expect_done("node header");
        have_header = true;
        break;
      }
      case kPacketServerBlob: {
        if (!have_header) fail("server blob before header");
        if (have_blob) fail("duplicate server blob");
        state.server_blob = payload.rest();
        have_blob = true;
        break;
      }
      case kPacketNodeOriginBlock: {
        if (!have_header) fail("origin block before header");
        FleetOriginBlock block = get_origin_block(payload, state.config, version);
        seen.check(block.origin);
        state.origins.push_back(std::move(block));
        break;
      }
      case kPacketEnd: {
        if (!have_header) fail("end packet before header");
        if (payload.get_u64() != state.origins.size() + (have_blob ? 1u : 0u)) {
          fail("packet count mismatch");
        }
        payload.expect_done("end packet");
        clean_end = true;
        break;
      }
      default:
        break;  // unknown packet type: skip (forward compatibility)
    }
  }
  // The engine blob is mandatory: origins alone cannot restart a node
  // (shard count, seeds, and cadence live in the server state).
  if (!have_header || !have_blob) fail("missing header or server blob");
  if (truncated != nullptr) *truncated = reader.truncated() || !clean_end;
  return state;
}

}  // namespace bw::io
