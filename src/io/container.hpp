#pragma once
// Packet-framed binary container — the substrate of every `banditware`
// binary on-disk format (state snapshots and run tables; bcsv-inspired).
//
// Layout (all integers little-endian, doubles as IEEE-754 LE bit patterns):
//
//   magic    8 bytes  B7 'B' 'W' 0D 0A 1A 0A <container-version>
//   kind     1 byte   payload kind (state / server-state / run-table)
//   packets  *        until end of stream
//
// Packet frame (12 bytes) followed by the payload:
//
//   u32 payload_size   bytes that follow the frame
//   u32 crc32          CRC-32 (IEEE 802.3) of the payload bytes
//   u8  type           packet type (per payload kind)
//   u8[3] reserved     zero
//
// The PNG-style magic catches CRLF mangling and text-mode transfers. The
// per-packet checksum is what makes a torn write survivable: a reader in
// tolerant mode consumes packets until the first incomplete or
// checksum-failing one and keeps everything before it — a truncated file
// loads up to the last complete packet. Semantic errors inside a packet
// that *passed* its checksum (bad counts, out-of-range indices) are never
// tolerated: the bytes were written that way, so the file is malformed and
// the reader throws ParseError.
//
// Hostile inputs are bounded everywhere: payload sizes are capped and read
// in chunks, so a corrupted length field can only ever allocate what the
// stream actually provides (plus one chunk) — never a bad_alloc.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bw::io {

/// First byte distinguishes binary containers from the text formats (which
/// all start with "bandit"); the \r\n\x1a\n run catches newline mangling.
inline constexpr unsigned char kMagic[8] = {0xB7, 'B', 'W', '\r', '\n', 0x1A, '\n', 1};

/// What a container stream carries (byte 9 of the file).
enum class PayloadKind : std::uint8_t {
  kBanditWareState = 1,
  kBanditServerState = 2,
  kRunTable = 3,
  kFleetDelta = 4,  ///< gossip message: per-origin sufficient-stat entries
  kFleetNode = 5,   ///< fleet node snapshot: server blob + origin store
};

/// Hard ceiling on one packet's payload. Real packets are far smaller (the
/// largest is a whole shard blob); anything bigger is a corrupted length.
inline constexpr std::uint32_t kMaxPacketPayload = 64u << 20;  // 64 MiB

/// Hostile-input caps every decoder shares — text and binary snapshots, run
/// tables, fleet wire. A corrupted count must fail as ParseError before it
/// sizes anything (each feature sizes a (d+1) x (d+1) matrix per arm); real
/// catalogs hold a handful of arms over a handful of features.
inline constexpr std::size_t kMaxFeatures = 512;
inline constexpr std::size_t kMaxArms = 4096;
inline constexpr std::size_t kMaxShards = 4096;
inline constexpr std::uint64_t kMaxObservationsPerArm = 100'000'000;

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the classic
/// zlib/PNG checksum, table-driven, no dependencies.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

// ---- little-endian scalar encoding --------------------------------------

void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_i32(std::string& out, std::int32_t v);
void put_f64(std::string& out, double v);
/// u16 length prefix + raw bytes; throws InvalidArgument beyond 65535.
void put_string(std::string& out, const std::string& s);
/// Bulk doubles: one memcpy on little-endian hosts.
void put_f64_array(std::string& out, const double* values, std::size_t count);

/// Sequential reader over one packet's payload. Every get_* checks bounds
/// and throws ParseError("truncated packet payload") on overrun, so a
/// checksum-valid but short payload can never read out of bounds.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload) : payload_(payload) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32();
  double get_f64();
  std::string get_string();
  void get_f64_array(double* values, std::size_t count);
  /// Consumes and returns every remaining byte (nested-blob payloads).
  std::string rest();

  std::size_t remaining() const { return payload_.size() - pos_; }
  bool done() const { return pos_ == payload_.size(); }
  /// Throws ParseError unless the whole payload was consumed — a size
  /// mismatch means the writer and reader disagree about the layout.
  void expect_done(const char* what) const;

 private:
  void need(std::size_t bytes) const;
  const std::string& payload_;
  std::size_t pos_ = 0;
};

// ---- packet-level writer / reader ---------------------------------------

/// Writes the container preamble (magic + kind byte).
void write_container_magic(std::ostream& os, PayloadKind kind);

/// Frames `payload` as one packet (size + crc32 + type) and writes it.
void write_packet(std::ostream& os, std::uint8_t type, const std::string& payload);

struct Packet {
  std::uint8_t type = 0;
  std::string payload;
};

/// Pulls packets off a container stream. Construction validates the magic
/// and kind byte (ParseError on mismatch). next() returns false at a clean
/// end of stream OR at the first incomplete / checksum-failing packet —
/// `truncated()` distinguishes the two, so callers implement "load up to
/// the last complete packet" by draining next() and checking truncated().
class PacketReader {
 public:
  PacketReader(std::istream& is, PayloadKind expected_kind);

  /// Reads the next complete, checksum-valid packet. False = end of data.
  bool next(Packet& packet);

  /// True once next() stopped on a torn/corrupted packet instead of a
  /// clean end of stream.
  bool truncated() const { return truncated_; }

 private:
  std::istream& is_;
  bool truncated_ = false;
  bool done_ = false;
};

/// Reads the 9 magic+kind bytes if (and only if) they identify a binary
/// container, without consuming anything otherwise. Returns the kind, or
/// nothing when the stream holds something else (e.g. a text snapshot).
/// The stream must support seeking (all state/table streams do).
bool peek_container(std::istream& is, PayloadKind& kind);

}  // namespace bw::io
