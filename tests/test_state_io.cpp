// The io:: layer contract, end to end: format detection (probe), text<->
// binary bit-exactness per policy kind, byte-stable binary round trips,
// the binary truncation contract (a torn file loads up to the last
// complete packet, a corrupted checksum stops the stream there), hostile
// binary counts failing as clean ParseErrors, and the streaming run-table
// reader/writer. Companion suites: tests/test_snapshot_golden.cpp pins the
// bytes of checked-in fixtures, tests/test_snapshot_fuzz.cpp mutates both
// encodings at random.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/banditware.hpp"
#include "core/run_table.hpp"
#include "hardware/catalog.hpp"
#include "io/container.hpp"
#include "io/run_table_io.hpp"
#include "io/state_io.hpp"
#include "serve/bandit_server.hpp"

namespace bw {
namespace {

namespace fs = std::filesystem;

core::BanditWare trained_instance(core::PolicyKind kind, double forgetting = 1.0) {
  core::BanditWareConfig config;
  config.policy_kind = kind;
  config.policy.fit.forgetting = forgetting;
  config.alpha = 1.5;
  config.posterior_scale = 1.25;
  core::BanditWare bandit(hw::ndp_catalog(), {"num_tasks", "mem_req"}, config);
  for (int i = 0; i < 9; ++i) {
    const core::FeatureVector x = {50.0 + 13.0 * i, 4.0 + (i % 3)};
    bandit.observe(static_cast<core::ArmIndex>(i % 3), x, 10.0 + 0.3 * i);
  }
  return bandit;
}

serve::BanditServer trained_server(
    core::PolicyKind kind = core::PolicyKind::kEpsilonGreedy,
    double forgetting = 1.0) {
  serve::BanditServerConfig config;
  config.num_shards = 2;
  config.sharding = serve::ShardingPolicy::kRoundRobin;
  config.sync_every = 2;
  config.bandit.policy_kind = kind;
  config.bandit.policy.fit.forgetting = forgetting;
  serve::BanditServer server(hw::ndp_catalog(), {"num_tasks"}, config);
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<serve::ServeObservation> observations;
    for (int i = 0; i < 4; ++i) {
      const double tasks = 30.0 + 7.0 * (batch * 4 + i);
      observations.push_back({static_cast<std::size_t>(i % 2),
                              static_cast<core::ArmIndex>(i % 3),
                              {tasks},
                              5.0 + tasks / catalog[i % 3].cpus});
    }
    server.observe_batch(observations);
  }
  return server;
}

template <typename State>
std::string save_as(const State& state, io::Format format) {
  std::ostringstream os(std::ios::binary);
  io::save_state(os, state, format);
  return os.str();
}

core::BanditWare load_bandit(const std::string& bytes, io::LoadInfo* info = nullptr) {
  std::istringstream is(bytes, std::ios::binary);
  return io::load_state(is, info);
}

serve::BanditServer load_server(const std::string& bytes,
                                io::LoadInfo* info = nullptr) {
  std::istringstream is(bytes, std::ios::binary);
  return io::load_server_state(is, info);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The legacy binary fixture whose arms are 0x03 raw-row packets (header
/// exact_history flag 1); no writer emits row packets any more.
std::string rows_fixture() {
  return read_file(std::string(BW_TEST_DATA_DIR) + "/state_bin_v1_rows.bwb");
}

/// Byte offsets of each packet *end* in a container blob (the preamble end
/// is entry 0), computed from the frames alone — the cut points at which a
/// truncated stream still ends on a whole packet.
std::vector<std::size_t> packet_ends(const std::string& blob) {
  std::vector<std::size_t> ends;
  std::size_t pos = sizeof(io::kMagic) + 1;
  ends.push_back(pos);
  while (pos + 12 <= blob.size()) {
    const auto* p = reinterpret_cast<const unsigned char*>(blob.data() + pos);
    const std::uint32_t payload_size = static_cast<std::uint32_t>(p[0]) |
                                       static_cast<std::uint32_t>(p[1]) << 8 |
                                       static_cast<std::uint32_t>(p[2]) << 16 |
                                       static_cast<std::uint32_t>(p[3]) << 24;
    pos += 12 + payload_size;
    ends.push_back(pos);
  }
  EXPECT_EQ(ends.back(), blob.size()) << "frame walk must land on the blob end";
  return ends;
}

/// The config scalars a crafted binary header carries.
struct CraftedScalars {
  double alpha = 1.0;
  double posterior_scale = 1.0;
  double tol_ratio = 0.1;
  double tol_seconds = 5.0;
};

/// The bandit-config section both binary header packets share.
void put_crafted_config(std::string& payload, std::uint8_t policy_kind,
                        std::uint8_t exact_history, const CraftedScalars& scalars = {}) {
  io::put_u8(payload, policy_kind);
  io::put_f64(payload, scalars.alpha);
  io::put_f64(payload, scalars.posterior_scale);
  io::put_f64(payload, 1.0);   // initial_epsilon
  io::put_f64(payload, 0.99);  // decay
  io::put_f64(payload, scalars.tol_ratio);
  io::put_f64(payload, scalars.tol_seconds);
  io::put_u8(payload, exact_history);
}

/// A hand-built banditware-state container: valid preamble + header packet
/// whose tail bytes come from `header_tail` (the bytes after the config +
/// epsilon prefix — i.e. the feature-name and catalog sections).
std::string crafted_bandit_container(const std::string& header_tail,
                                     std::uint8_t policy_kind = 0,
                                     std::uint8_t exact_history = 0,
                                     const CraftedScalars& scalars = {}) {
  std::string payload;
  put_crafted_config(payload, policy_kind, exact_history, scalars);
  io::put_f64(payload, 1.0);  // live epsilon
  payload += header_tail;
  std::ostringstream os(std::ios::binary);
  io::write_container_magic(os, io::PayloadKind::kBanditWareState);
  io::write_packet(os, 0x01, payload);
  return os.str();
}

/// Header tail: one feature "x" and one arm "H0" with `cpus` cpus.
std::string one_arm_tail(std::int32_t cpus) {
  std::string tail;
  io::put_u32(tail, 1);
  io::put_string(tail, "x");
  io::put_u32(tail, 1);
  io::put_string(tail, "H0");
  io::put_i32(tail, cpus);
  io::put_f64(tail, 8.0);  // memory_gb
  io::put_i32(tail, 0);    // gpus
  return tail;
}

core::RunTable small_table(std::size_t groups) {
  const hw::HardwareCatalog catalog = hw::ndp_catalog();
  linalg::Matrix features(groups, 2);
  linalg::Matrix runtimes(groups, catalog.size());
  for (std::size_t g = 0; g < groups; ++g) {
    features(g, 0) = 10.0 + 1.25 * static_cast<double>(g);
    features(g, 1) = 4.0 + static_cast<double>(g % 5);
    for (std::size_t a = 0; a < catalog.size(); ++a) {
      runtimes(g, a) = 3.0 + features(g, 0) / catalog[a].cpus + 0.125 * a;
    }
  }
  return core::RunTable({"num_tasks", "mem_req"}, std::move(features),
                        std::move(runtimes), catalog);
}

// ---- format tokens and detection ----------------------------------------

TEST(StateIo, FormatTokensParseAndPrint) {
  EXPECT_EQ(io::parse_format("auto"), io::Format::kAuto);
  EXPECT_EQ(io::parse_format("text"), io::Format::kText);
  EXPECT_EQ(io::parse_format("binary"), io::Format::kBinary);
  EXPECT_EQ(io::to_string(io::Format::kAuto), "auto");
  EXPECT_EQ(io::to_string(io::Format::kText), "text");
  EXPECT_EQ(io::to_string(io::Format::kBinary), "binary");
  EXPECT_THROW(io::parse_format("bson"), InvalidArgument);
  EXPECT_THROW(io::parse_format(""), InvalidArgument);
}

TEST(StateIo, ProbeIdentifiesEveryFormatWithoutConsuming) {
  const core::BanditWare bandit = trained_instance(core::PolicyKind::kEpsilonGreedy);
  const serve::BanditServer server = trained_server();
  const core::RunTable table = small_table(5);
  std::ostringstream table_os(std::ios::binary);
  io::write_run_table(table_os, table);

  struct Case {
    std::string bytes;
    io::PayloadKind kind;
    io::Format format;
  };
  const std::vector<Case> cases = {
      {save_as(bandit, io::Format::kText), io::PayloadKind::kBanditWareState,
       io::Format::kText},
      {save_as(bandit, io::Format::kBinary), io::PayloadKind::kBanditWareState,
       io::Format::kBinary},
      {save_as(server, io::Format::kText), io::PayloadKind::kBanditServerState,
       io::Format::kText},
      {save_as(server, io::Format::kBinary), io::PayloadKind::kBanditServerState,
       io::Format::kBinary},
      {table_os.str(), io::PayloadKind::kRunTable, io::Format::kBinary},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::istringstream is(cases[i].bytes, std::ios::binary);
    io::ProbeResult probe;
    ASSERT_TRUE(io::probe(is, probe)) << "case " << i;
    EXPECT_EQ(probe.kind, cases[i].kind) << "case " << i;
    EXPECT_EQ(probe.format, cases[i].format) << "case " << i;
    EXPECT_GE(probe.version, 1) << "case " << i;
    // Probing must not consume: the stream still loads from byte zero.
    EXPECT_EQ(is.tellg(), std::istringstream::pos_type(0)) << "case " << i;
  }

  std::istringstream junk("neither a text header nor a container\n");
  io::ProbeResult probe;
  EXPECT_FALSE(io::probe(junk, probe));
}

TEST(StateIo, EveryCheckedInTextFixtureLoadsThroughAutoDetection) {
  // The acceptance bar for the io:: redesign: all text snapshots ever
  // shipped (bandit v1-v3, server v2-v4 fixtures) keep loading through the
  // single io::load_state / io::load_server_state entry point.
  std::size_t fixtures = 0;
  for (const auto& entry : fs::directory_iterator(BW_TEST_DATA_DIR)) {
    if (entry.path().extension() != ".bw") continue;
    ++fixtures;
    const std::string bytes = read_file(entry.path().string());
    std::istringstream is(bytes, std::ios::binary);
    io::ProbeResult probe;
    ASSERT_TRUE(io::probe(is, probe)) << entry.path();
    EXPECT_EQ(probe.format, io::Format::kText) << entry.path();
    io::LoadInfo info;
    if (probe.kind == io::PayloadKind::kBanditWareState) {
      const core::BanditWare bandit = io::load_state(is, &info);
      EXPECT_GT(bandit.num_arms(), 0u) << entry.path();
    } else {
      ASSERT_EQ(probe.kind, io::PayloadKind::kBanditServerState) << entry.path();
      const serve::BanditServer server = io::load_server_state(is, &info);
      EXPECT_GT(server.num_shards(), 0u) << entry.path();
    }
    EXPECT_EQ(info.format, io::Format::kText) << entry.path();
    EXPECT_EQ(info.version, probe.version) << entry.path();
    EXPECT_FALSE(info.truncated) << entry.path();
  }
  EXPECT_GE(fixtures, 8u) << "text fixture corpus went missing";
}

// ---- binary <-> text bit-exactness --------------------------------------

TEST(StateIo, BinaryRoundTripIsBitExactPerPolicy) {
  const core::PolicyKind kinds[] = {core::PolicyKind::kEpsilonGreedy,
                                    core::PolicyKind::kLinUcb,
                                    core::PolicyKind::kThompson};
  for (const core::PolicyKind kind : kinds) {
    const core::BanditWare original = trained_instance(kind);
    const std::string text = save_as(original, io::Format::kText);
    const std::string binary = save_as(original, io::Format::kBinary);

    io::LoadInfo info;
    const core::BanditWare restored = load_bandit(binary, &info);
    EXPECT_EQ(info.format, io::Format::kBinary);
    EXPECT_FALSE(info.truncated);

    // The binary container stores raw IEEE-754 bits, so the restored model
    // re-saves to the *identical* text bytes — not merely close doubles.
    EXPECT_EQ(save_as(restored, io::Format::kText), text) << core::to_string(kind);
    // And its predictions are the same bit patterns.
    const core::FeatureVector x = {77.0, 5.0};
    EXPECT_EQ(restored.predictions(x), original.predictions(x));
    EXPECT_EQ(restored.epsilon(), original.epsilon());
  }
}

TEST(StateIo, BinarySaveLoadSaveIsByteIdentical) {
  const core::BanditWare bandit = trained_instance(core::PolicyKind::kLinUcb);
  const std::string binary = save_as(bandit, io::Format::kBinary);
  EXPECT_EQ(save_as(load_bandit(binary), io::Format::kBinary), binary);

  const serve::BanditServer server = trained_server(core::PolicyKind::kThompson);
  const std::string server_binary = save_as(server, io::Format::kBinary);
  EXPECT_EQ(save_as(load_server(server_binary), io::Format::kBinary), server_binary);
}

TEST(StateIo, ServerBinaryRoundTripMatchesTextPerPolicy) {
  const core::PolicyKind kinds[] = {core::PolicyKind::kEpsilonGreedy,
                                    core::PolicyKind::kLinUcb,
                                    core::PolicyKind::kThompson};
  for (const core::PolicyKind kind : kinds) {
    const serve::BanditServer original = trained_server(kind);
    const std::string text = save_as(original, io::Format::kText);
    io::LoadInfo info;
    serve::BanditServer restored =
        load_server(save_as(original, io::Format::kBinary), &info);
    EXPECT_FALSE(info.truncated);
    EXPECT_EQ(save_as(restored, io::Format::kText), text) << core::to_string(kind);
    EXPECT_EQ(restored.num_observations(), original.num_observations());
  }
}

TEST(StateIo, MismatchedPayloadKindsAreRejected) {
  const std::string bandit_binary =
      save_as(trained_instance(core::PolicyKind::kEpsilonGreedy), io::Format::kBinary);
  const std::string server_binary = save_as(trained_server(), io::Format::kBinary);
  std::ostringstream table_os(std::ios::binary);
  io::write_run_table(table_os, small_table(4));
  const std::string table_binary = table_os.str();

  EXPECT_THROW(load_bandit(server_binary), ParseError);
  EXPECT_THROW(load_bandit(table_binary), ParseError);
  EXPECT_THROW(load_server(bandit_binary), ParseError);
  EXPECT_THROW(load_server(table_binary), ParseError);
  std::istringstream not_a_table(bandit_binary, std::ios::binary);
  EXPECT_THROW(io::read_run_table(not_a_table), ParseError);
}

// ---- fit packets (λ and the ridge) ---------------------------------------

/// One framed fit packet (`type` 0x04 bandit / 0x13 server): λ, then the
/// ridge. Without a ridge it is the λ-only packet older writers emitted.
std::string fit_packet(std::uint8_t type, double lambda,
                       std::optional<double> ridge = std::nullopt) {
  std::string payload;
  io::put_f64(payload, lambda);
  if (ridge) io::put_f64(payload, *ridge);
  std::ostringstream os(std::ios::binary);
  io::write_packet(os, type, payload);
  return os.str();
}

/// `blob` with packet `index` (1-based, as in packet_ends) replaced.
std::string replace_packet(const std::string& blob, std::size_t index,
                           const std::string& packet) {
  const std::vector<std::size_t> ends = packet_ends(blob);
  return blob.substr(0, ends[index - 1]) + packet + blob.substr(ends[index]);
}

TEST(StateIo, DiscountedStateRoundTripsBothFormats) {
  // λ = 0.5 (exactly representable, prints without a decimal tail). Both
  // encodings must round-trip bit-exact and agree.
  const core::PolicyKind kinds[] = {core::PolicyKind::kEpsilonGreedy,
                                    core::PolicyKind::kLinUcb,
                                    core::PolicyKind::kThompson};
  for (const core::PolicyKind kind : kinds) {
    const core::BanditWare original =
        trained_instance(kind, /*forgetting=*/0.5);
    const std::string text = save_as(original, io::Format::kText);
    EXPECT_EQ(text.rfind("banditware-state v5\nlambda 0.5\nridge 0\n", 0), 0u)
        << core::to_string(kind);
    const std::string binary = save_as(original, io::Format::kBinary);

    io::LoadInfo info;
    const core::BanditWare from_text = load_bandit(text, &info);
    EXPECT_EQ(info.version, 5);
    EXPECT_EQ(from_text.config().policy.fit.forgetting, 0.5);
    EXPECT_EQ(save_as(from_text, io::Format::kText), text);

    const core::BanditWare from_binary = load_bandit(binary);
    EXPECT_EQ(from_binary.config().policy.fit.forgetting, 0.5);
    EXPECT_EQ(save_as(from_binary, io::Format::kBinary), binary);
    EXPECT_EQ(save_as(from_binary, io::Format::kText), text) << core::to_string(kind);
  }
}

TEST(StateIo, DiscountedServerRoundTripsBothFormats) {
  const serve::BanditServer original =
      trained_server(core::PolicyKind::kLinUcb, /*forgetting=*/0.5);
  const std::string text = save_as(original, io::Format::kText);
  EXPECT_EQ(text.rfind("banditserver-state v6\n", 0), 0u);
  EXPECT_NE(text.find(" lambda 0.5 ridge 0 policy linucb "), std::string::npos);
  const std::string binary = save_as(original, io::Format::kBinary);

  io::LoadInfo info;
  const serve::BanditServer from_text = load_server(text, &info);
  EXPECT_EQ(info.version, 6);
  EXPECT_EQ(from_text.config().bandit.policy.fit.forgetting, 0.5);
  EXPECT_EQ(save_as(from_text, io::Format::kText), text);

  const serve::BanditServer from_binary = load_server(binary);
  EXPECT_EQ(from_binary.config().bandit.policy.fit.forgetting, 0.5);
  EXPECT_EQ(save_as(from_binary, io::Format::kBinary), binary);
  EXPECT_EQ(save_as(from_binary, io::Format::kText), text);
}

TEST(StateIo, StationarySnapshotsWriteLambdaOneAndLegacyLoadsAsLambdaOne) {
  // One written shape whatever λ is: a stationary instance writes λ = 1 and
  // its ridge like any other, in both encodings.
  const core::BanditWare bandit = trained_instance(core::PolicyKind::kEpsilonGreedy);
  const std::string text = save_as(bandit, io::Format::kText);
  EXPECT_EQ(text.rfind("banditware-state v5\nlambda 1\nridge 0\n", 0), 0u);
  EXPECT_EQ(load_bandit(text).config().policy.fit.forgetting, 1.0);
  const std::string binary = save_as(bandit, io::Format::kBinary);
  EXPECT_EQ(binary.substr(packet_ends(binary)[0], 12 + 16),
            fit_packet(0x04, 1.0, 0.0));
  EXPECT_EQ(load_bandit(binary).config().policy.fit.forgetting, 1.0);

  const serve::BanditServer server = trained_server();
  EXPECT_NE(save_as(server, io::Format::kText).find(" lambda 1 ridge 0 "),
            std::string::npos);
  EXPECT_EQ(load_server(save_as(server, io::Format::kBinary))
                .config()
                .bandit.policy.fit.forgetting,
            1.0);

  // A blob without a fit packet (every stationary binary writer before the
  // discount) loads as λ = 1 with the default ridge.
  const std::string no_fit = replace_packet(binary, 1, "");
  const core::BanditWare legacy = load_bandit(no_fit);
  EXPECT_EQ(legacy.config().policy.fit.forgetting, 1.0);
  EXPECT_EQ(legacy.config().policy.fit.ridge, 0.0);
  EXPECT_EQ(save_as(legacy, io::Format::kBinary), binary);
}

TEST(StateIo, BinaryFitPacketBeforeHeaderAppliesToTheModel) {
  // The writer's contract (the fit packet between magic and header) from
  // the reader's side: a fit packet spliced over a stationary blob's own
  // yields the discounted model it names, and the λ-only packet older
  // writers emitted loads with the default ridge.
  const std::string binary =
      save_as(trained_instance(core::PolicyKind::kEpsilonGreedy), io::Format::kBinary);
  const core::BanditWare discounted =
      load_bandit(replace_packet(binary, 1, fit_packet(0x04, 0.5, 1e-3)));
  EXPECT_EQ(discounted.config().policy.fit.forgetting, 0.5);
  EXPECT_EQ(discounted.config().policy.fit.ridge, 1e-3);
  const core::BanditWare legacy =
      load_bandit(replace_packet(binary, 1, fit_packet(0x04, 0.5)));
  EXPECT_EQ(legacy.config().policy.fit.forgetting, 0.5);
  EXPECT_EQ(legacy.config().policy.fit.ridge, 0.0);
}

TEST(StateIo, HostileLambdaPacketsAreCleanParseErrors) {
  const std::string binary =
      save_as(trained_instance(core::PolicyKind::kEpsilonGreedy), io::Format::kBinary);
  const std::vector<std::size_t> ends = packet_ends(binary);
  const auto splice_at = [&](std::size_t pos, const std::string& packet) {
    return binary.substr(0, pos) + packet + binary.substr(pos);
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Out-of-range or non-finite discounts, in the fit packet and in the
  // λ-only packet older writers emitted.
  for (const double bad : {1.5, 0.0, -0.25, kNaN, kInf}) {
    EXPECT_THROW(load_bandit(replace_packet(binary, 1, fit_packet(0x04, bad, 0.0))),
                 ParseError)
        << bad;
    EXPECT_THROW(load_bandit(replace_packet(binary, 1, fit_packet(0x04, bad))),
                 ParseError)
        << bad;
  }
  // Ridges the RLS rejects (0 is the default prior, not a ridge).
  for (const double bad : {-1e-3, kNaN, kInf}) {
    EXPECT_THROW(load_bandit(replace_packet(binary, 1, fit_packet(0x04, 1.0, bad))),
                 ParseError)
        << bad;
  }
  // A fit packet after the header came from no writer we ever shipped.
  EXPECT_THROW(load_bandit(splice_at(ends[2], fit_packet(0x04, 0.5, 0.0))), ParseError);
  // Two fit packets are ambiguous.
  EXPECT_THROW(load_bandit(splice_at(ends[0], fit_packet(0x04, 1.0, 0.0))), ParseError);
  // Raw rows were only ever written at λ = 1: a lambda packet ahead of a
  // row-carrying header is corrupt.
  const std::string rows = rows_fixture();
  const std::size_t rows_preamble = packet_ends(rows)[0];
  EXPECT_THROW(load_bandit(rows.substr(0, rows_preamble) + fit_packet(0x04, 0.5) +
                           rows.substr(rows_preamble)),
               ParseError);

  // Server side: a 0x13 fit packet naming λ or a ridge the shard blobs do
  // not carry is a contradiction.
  const std::string server_binary = save_as(trained_server(), io::Format::kBinary);
  EXPECT_THROW(load_server(replace_packet(server_binary, 1, fit_packet(0x13, 0.5, 0.0))),
               ParseError);
  EXPECT_THROW(load_server(replace_packet(server_binary, 1, fit_packet(0x13, 1.0, 1e-3))),
               ParseError);
}

// ---- truncation and corruption contracts --------------------------------

TEST(StateIo, TruncatedBinaryLoadsUpToLastCompletePacket) {
  const core::BanditWare original = trained_instance(core::PolicyKind::kEpsilonGreedy);
  const std::string binary = save_as(original, io::Format::kBinary);
  const std::vector<std::size_t> ends = packet_ends(binary);
  // fit + header + 3 arm packets + end sentinel => 6 packets.
  ASSERT_EQ(ends.size(), 7u);
  const core::BanditWareStats full = original.export_stats();

  // Cut after the header packet: the shape survives, all arms at the prior.
  {
    io::LoadInfo info;
    const core::BanditWare loaded = load_bandit(binary.substr(0, ends[2]), &info);
    EXPECT_TRUE(info.truncated);
    EXPECT_EQ(loaded.num_arms(), original.num_arms());
    EXPECT_EQ(loaded.num_observations(), 0u);
    EXPECT_EQ(loaded.feature_names(), original.feature_names());
  }
  // Cut after header + first arm packet: arm 0 fully restored, bit-exact.
  {
    io::LoadInfo info;
    const core::BanditWare loaded = load_bandit(binary.substr(0, ends[3]), &info);
    EXPECT_TRUE(info.truncated);
    const core::BanditWareStats stats = loaded.export_stats();
    EXPECT_EQ(stats.arms[0].n, full.arms[0].n);
    EXPECT_EQ(stats.arms[0].r, full.arms[0].r);
    EXPECT_EQ(stats.arms[0].z, full.arms[0].z);
    EXPECT_EQ(stats.arms[1].n, 0u);
    EXPECT_EQ(stats.arms[2].n, 0u);
  }
  // One byte short of complete: every arm made it, only the end sentinel
  // is torn — still flagged truncated (the writer never ends mid-stream).
  {
    io::LoadInfo info;
    const core::BanditWare loaded =
        load_bandit(binary.substr(0, binary.size() - 1), &info);
    EXPECT_TRUE(info.truncated);
    EXPECT_EQ(loaded.num_observations(), original.num_observations());
  }
  // The full blob is not truncated.
  {
    io::LoadInfo info;
    load_bandit(binary, &info);
    EXPECT_FALSE(info.truncated);
  }
  // Every possible cut point either loads (flagged truncated) or throws a
  // clean ParseError (cut before the header packet completed) — never
  // anything else. This is the exhaustive version of the pins above.
  for (std::size_t cut = 0; cut < binary.size(); ++cut) {
    try {
      io::LoadInfo info;
      load_bandit(binary.substr(0, cut), &info);
      EXPECT_TRUE(info.truncated) << "cut " << cut;
      EXPECT_GE(cut, ends[2]) << "loaded without a complete header, cut " << cut;
    } catch (const ParseError&) {
      EXPECT_LT(cut, ends[2]) << "complete header must load, cut " << cut;
    }
  }
}

TEST(StateIo, CorruptedChecksumStopsTheStreamAtTheCorruption) {
  const core::BanditWare original = trained_instance(core::PolicyKind::kEpsilonGreedy);
  const std::string binary = save_as(original, io::Format::kBinary);
  const std::vector<std::size_t> ends = packet_ends(binary);

  // Flip a payload byte inside the *second* arm packet: header and arm 0
  // load; arms 1 and 2 stop at the failed checksum.
  {
    std::string corrupted = binary;
    corrupted[ends[3] + 20] ^= 0x40;
    io::LoadInfo info;
    const core::BanditWare loaded = load_bandit(corrupted, &info);
    EXPECT_TRUE(info.truncated);
    const core::BanditWareStats stats = loaded.export_stats();
    EXPECT_EQ(stats.arms[0].n, original.export_stats().arms[0].n);
    EXPECT_EQ(stats.arms[1].n, 0u);
  }
  // Flip a byte inside the header payload: nothing before the corruption,
  // so the load fails with the documented ParseError.
  {
    std::string corrupted = binary;
    corrupted[ends[1] + 16] ^= 0x01;
    EXPECT_THROW(load_bandit(corrupted), ParseError);
  }
  // Torn server snapshot: cut after the first shard blob packet. The engine
  // keeps its shape; the missing shard restores as a fresh replica.
  {
    const serve::BanditServer server = trained_server();
    const std::string server_binary = save_as(server, io::Format::kBinary);
    const std::vector<std::size_t> server_ends = packet_ends(server_binary);
    io::LoadInfo info;
    serve::BanditServer loaded =
        load_server(server_binary.substr(0, server_ends[3]), &info);
    EXPECT_TRUE(info.truncated);
    EXPECT_EQ(loaded.num_shards(), server.num_shards());
    const std::vector<std::size_t> counts = loaded.shard_observation_counts();
    EXPECT_EQ(counts[0], server.shard_observation_counts()[0]);
    EXPECT_EQ(counts[1], 0u);
  }
}

TEST(StateIo, HostileBinaryCountsFailWithoutAllocating) {
  // Checksum-valid packets carrying hostile counts: each must be the
  // documented ParseError, never a resize() into bad_alloc. The payloads
  // are crafted with the real framing helpers so the CRC passes and the
  // semantic validators are what reject them.
  const std::vector<std::string> hostile = [] {
    std::vector<std::string> cases;
    {  // feature count far beyond kMaxFeatures
      std::string tail;
      io::put_u32(tail, 0xFFFFFFFFu);
      cases.push_back(crafted_bandit_container(tail));
    }
    {  // arm count far beyond kMaxArms
      std::string tail;
      io::put_u32(tail, 1);
      io::put_string(tail, "x");
      io::put_u32(tail, 999999999u);
      cases.push_back(crafted_bandit_container(tail));
    }
    {  // feature count claims more strings than the payload holds
      std::string tail;
      io::put_u32(tail, 400);
      io::put_string(tail, "x");
      cases.push_back(crafted_bandit_container(tail));
    }
    // A 0-cpu arm parses, but the catalog rejects it: that InvalidArgument
    // must surface as ParseError (the CLI reports it as a data error).
    cases.push_back(crafted_bandit_container(one_arm_tail(0)));
    // Raw rows were only ever written for ε-greedy: a LinUCB header with
    // the legacy exact_history flag is corrupt.
    cases.push_back(crafted_bandit_container(one_arm_tail(1), /*policy_kind=*/1,
                                             /*exact_history=*/1));
    // Scalars the policy and bank constructors reject: an infinite LinUCB
    // α or Thompson v, a negative or NaN tolerance.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    cases.push_back(crafted_bandit_container(one_arm_tail(1), 1, 0, {.alpha = kInf}));
    cases.push_back(
        crafted_bandit_container(one_arm_tail(1), 2, 0, {.posterior_scale = kInf}));
    for (const double bad : {-1.0, kNaN}) {
      cases.push_back(
          crafted_bandit_container(one_arm_tail(1), 0, 0, {.tol_ratio = bad}));
      cases.push_back(
          crafted_bandit_container(one_arm_tail(1), 0, 0, {.tol_seconds = bad}));
    }
    return cases;
  }();
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_THROW(load_bandit(hostile[i]), ParseError) << i;
  }

  // Arm packets whose evidence the RLS refuses: an evidence packet (0x05)
  // whose R has a zero, negative or NaN diagonal, and a legacy (θ, P)
  // packet (0x02) whose P is not positive definite.
  {
    const core::BanditWare bandit = trained_instance(core::PolicyKind::kEpsilonGreedy);
    const std::string binary = save_as(bandit, io::Format::kBinary);
    const std::vector<std::size_t> ends = packet_ends(binary);
    // preamble, fit, header, arm 0, ...: arm 0's payload follows its frame.
    const std::string arm0 = binary.substr(ends[2] + 12, ends[3] - ends[2] - 12);
    const auto with_arm0 = [&](std::uint8_t type, const std::string& payload) {
      std::ostringstream os(std::ios::binary);
      os << binary.substr(0, ends[2]);
      io::write_packet(os, type, payload);
      os << binary.substr(ends[3]);
      return os.str();
    };
    for (const double diagonal : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
      std::string payload = arm0;
      std::string bits;
      io::put_f64(bits, diagonal);
      payload.replace(4 + 8, 8, bits);  // arm u32, n u64, then R(0, 0)
      EXPECT_THROW(load_bandit(with_arm0(0x05, payload)), ParseError) << diagonal;
    }
    const std::size_t dim_aug = bandit.feature_names().size() + 1;
    std::string legacy;
    io::put_u32(legacy, 0);
    io::put_u64(legacy, 3);
    for (std::size_t i = 0; i < dim_aug; ++i) io::put_f64(legacy, 0.0);  // θ
    for (std::size_t r = 0; r < dim_aug; ++r) {
      for (std::size_t c = 0; c < dim_aug; ++c) io::put_f64(legacy, r == c ? -1.0 : 0.0);
    }
    EXPECT_THROW(load_bandit(with_arm0(0x02, legacy)), ParseError);
    // The same packet with P = I loads: the rejection is the P, not the framing.
    std::string identity;
    io::put_u32(identity, 0);
    io::put_u64(identity, 3);
    for (std::size_t i = 0; i < dim_aug; ++i) io::put_f64(identity, 0.0);
    for (std::size_t r = 0; r < dim_aug; ++r) {
      for (std::size_t c = 0; c < dim_aug; ++c) io::put_f64(identity, r == c ? 1.0 : 0.0);
    }
    EXPECT_NO_THROW(load_bandit(with_arm0(0x02, identity)));
  }

  // The server header's catalog goes through the same constructor check.
  {
    std::string header;
    io::put_u32(header, 1);  // shards
    io::put_u8(header, 0);   // sharding: feature-hash
    io::put_u64(header, 1);  // seed
    io::put_u32(header, 0);  // threads
    io::put_u8(header, 1);   // explore
    io::put_u64(header, 0);  // sync_every
    io::put_u8(header, 0);   // sync mode: inline
    io::put_u64(header, 0);  // observe_batches
    io::put_u64(header, 0);  // rr_counter
    put_crafted_config(header, /*policy_kind=*/0, /*exact_history=*/0);
    header += one_arm_tail(0);
    std::ostringstream os(std::ios::binary);
    io::write_container_magic(os, io::PayloadKind::kBanditServerState);
    io::write_packet(os, 0x10, header);
    EXPECT_THROW(load_server(os.str()), ParseError);
  }

  // A server whose sync baseline disagrees with its shards — a foreign
  // catalog, foreign feature names — fails at load, not at the first sync.
  {
    const serve::BanditServer server = trained_server();
    const std::string binary = save_as(server, io::Format::kBinary);
    // preamble, fit, header, shard 0, shard 1, base, end
    const std::vector<std::size_t> ends = packet_ends(binary);
    ASSERT_EQ(ends.size(), 7u);
    const auto with_base = [&](hw::HardwareCatalog catalog,
                               std::vector<std::string> features) {
      const core::BanditWare base(std::move(catalog), std::move(features),
                                  server.config().bandit);
      std::ostringstream os(std::ios::binary);
      os << binary.substr(0, ends[4]);
      io::write_packet(os, 0x12, save_as(base, io::Format::kBinary));
      os << binary.substr(ends[5]);
      return os.str();
    };
    EXPECT_THROW(load_server(with_base(hw::synthetic_cycles_catalog(), {"num_tasks"})),
                 ParseError);
    EXPECT_THROW(load_server(with_base(hw::ndp_catalog(), {"mem_req"})), ParseError);
    // The splice itself is sound: a baseline of the engine's own shape loads.
    EXPECT_NO_THROW(load_server(with_base(hw::ndp_catalog(), {"num_tasks"})));
  }

  // A frame whose length field exceeds the packet cap reads as corruption
  // of the frame itself — truncated stream, no header, clean ParseError.
  std::string huge_frame;
  {
    std::ostringstream os(std::ios::binary);
    io::write_container_magic(os, io::PayloadKind::kBanditWareState);
    huge_frame = os.str();
    io::put_u32(huge_frame, 0xFFFFFFF0u);  // payload_size
    io::put_u32(huge_frame, 0);            // crc
    huge_frame.append(4, '\0');            // type + reserved
  }
  EXPECT_THROW(load_bandit(huge_frame), ParseError);

  // A row packet with an observation count beyond the ceiling.
  {
    const std::string binary = rows_fixture();
    const std::vector<std::size_t> ends = packet_ends(binary);
    std::string payload;
    io::put_u32(payload, 0);                          // arm index
    io::put_u64(payload, 200'000'000ull);             // n > kMaxObservationsPerArm
    std::ostringstream os(std::ios::binary);
    os.write(binary.data(), static_cast<std::streamsize>(ends[1]));  // preamble+header
    io::write_packet(os, 0x03, payload);
    EXPECT_THROW(load_bandit(os.str()), ParseError);
  }
}

// ---- run tables ----------------------------------------------------------

TEST(StateIo, RunTableStreamsRowsBitExact) {
  const core::RunTable table = small_table(10);
  std::ostringstream os(std::ios::binary);
  io::write_run_table(os, table);
  const std::string blob = os.str();

  std::istringstream is(blob, std::ios::binary);
  io::RunTableReader reader(is);
  EXPECT_EQ(reader.feature_names(), table.feature_names());
  EXPECT_EQ(reader.num_arms(), table.num_arms());

  std::vector<double> features;
  std::vector<double> runtimes;
  std::size_t row = 0;
  while (reader.next_row(features, runtimes)) {
    ASSERT_LT(row, table.num_groups());
    for (std::size_t f = 0; f < table.num_features(); ++f) {
      EXPECT_EQ(features[f], table.features()(row, f)) << row << "," << f;
    }
    for (std::size_t a = 0; a < table.num_arms(); ++a) {
      EXPECT_EQ(runtimes[a], table.runtime(row, static_cast<core::ArmIndex>(a)));
    }
    ++row;
  }
  EXPECT_EQ(row, table.num_groups());
  EXPECT_FALSE(reader.truncated());

  // Whole-table reader: identical matrices, identical catalog.
  std::istringstream is2(blob, std::ios::binary);
  io::LoadInfo info;
  const core::RunTable loaded = io::read_run_table(is2, &info);
  EXPECT_FALSE(info.truncated);
  EXPECT_EQ(loaded.features().data(), table.features().data());
  EXPECT_EQ(loaded.runtimes().data(), table.runtimes().data());
  EXPECT_EQ(loaded.catalog().to_string(), table.catalog().to_string());
}

TEST(StateIo, TruncatedRunTableKeepsEveryCompleteBlock) {
  // 4100 rows span two row blocks (4096 + 4). Cutting after the first
  // block must yield exactly the 4096 rows it holds, flagged truncated;
  // cutting inside the first block leaves zero rows — a ParseError for the
  // whole-table reader, which requires at least one row.
  const core::RunTable table = small_table(4100);
  std::ostringstream os(std::ios::binary);
  io::write_run_table(os, table);
  const std::string blob = os.str();
  const std::vector<std::size_t> ends = packet_ends(blob);
  ASSERT_EQ(ends.size(), 5u);  // header, block, block, end

  {
    std::istringstream is(blob.substr(0, ends[2]), std::ios::binary);
    io::LoadInfo info;
    const core::RunTable loaded = io::read_run_table(is, &info);
    EXPECT_TRUE(info.truncated);
    EXPECT_EQ(loaded.num_groups(), 4096u);
    EXPECT_EQ(loaded.features()(4095, 0), table.features()(4095, 0));
  }
  {
    std::istringstream is(blob.substr(0, ends[1] + 100), std::ios::binary);
    EXPECT_THROW(io::read_run_table(is), ParseError);
  }
  {  // streaming reader on the same torn stream: rows then truncated()
    std::istringstream is(blob.substr(0, ends[2]), std::ios::binary);
    io::RunTableReader reader(is);
    std::vector<double> features;
    std::vector<double> runtimes;
    std::size_t rows = 0;
    while (reader.next_row(features, runtimes)) ++rows;
    EXPECT_EQ(rows, 4096u);
    EXPECT_TRUE(reader.truncated());
  }
}

}  // namespace
}  // namespace bw
