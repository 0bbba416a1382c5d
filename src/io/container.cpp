#include "io/container.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace bw::io {
namespace {

[[noreturn]] void fail(const std::string& msg) { throw ParseError("state: " + msg); }

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table, and
// table[k][b] is the CRC of byte b followed by k zero bytes — eight table
// lookups then advance the stream eight bytes per iteration, which keeps
// the per-packet checksum off the load-path profile (plain byte-wise CRC
// was the single largest cost of a binary state load).
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

// Frames are read into this fixed header before the payload; reading it in
// one go keeps the torn-frame detection trivial (short read = truncation).
struct FrameHeader {
  std::uint32_t payload_size = 0;
  std::uint32_t crc = 0;
  std::uint8_t type = 0;
};

std::uint32_t decode_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const CrcTables tables = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  while (size >= 8) {
    const std::uint32_t low = c ^ decode_u32(bytes);
    const std::uint32_t high = decode_u32(bytes + 4);
    c = tables[7][low & 0xFFu] ^ tables[6][(low >> 8) & 0xFFu] ^
        tables[5][(low >> 16) & 0xFFu] ^ tables[4][low >> 24] ^
        tables[3][high & 0xFFu] ^ tables[2][(high >> 8) & 0xFFu] ^
        tables[1][(high >> 16) & 0xFFu] ^ tables[0][high >> 24];
    bytes += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = tables[0][(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::string& out, const std::string& s) {
  if (s.size() > 0xFFFF) {
    throw InvalidArgument("state: string too long for binary encoding");
  }
  out.push_back(static_cast<char>(s.size() & 0xFFu));
  out.push_back(static_cast<char>((s.size() >> 8) & 0xFFu));
  out.append(s);
}

void put_f64_array(std::string& out, const double* values, std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t old = out.size();
    out.resize(old + count * sizeof(double));
    std::memcpy(out.data() + old, values, count * sizeof(double));
  } else {
    for (std::size_t i = 0; i < count; ++i) put_f64(out, values[i]);
  }
}

void put_u64_array(std::string& out, const std::uint64_t* values, std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t old = out.size();
    out.resize(old + count * sizeof(std::uint64_t));
    std::memcpy(out.data() + old, values, count * sizeof(std::uint64_t));
  } else {
    for (std::size_t i = 0; i < count; ++i) put_u64(out, values[i]);
  }
}

void PayloadReader::need(std::size_t bytes) const {
  if (payload_.size() - pos_ < bytes) fail("truncated packet payload");
}

std::uint8_t PayloadReader::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(payload_[pos_++]);
}

std::uint32_t PayloadReader::get_u32() {
  need(4);
  const auto* p = reinterpret_cast<const unsigned char*>(payload_.data() + pos_);
  pos_ += 4;
  return decode_u32(p);
}

std::uint64_t PayloadReader::get_u64() {
  need(8);
  const auto* p = reinterpret_cast<const unsigned char*>(payload_.data() + pos_);
  pos_ += 8;
  return static_cast<std::uint64_t>(decode_u32(p)) |
         static_cast<std::uint64_t>(decode_u32(p + 4)) << 32;
}

std::int32_t PayloadReader::get_i32() { return static_cast<std::int32_t>(get_u32()); }

double PayloadReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string PayloadReader::get_string() {
  need(2);
  const std::size_t len = static_cast<unsigned char>(payload_[pos_]) |
                          static_cast<std::size_t>(
                              static_cast<unsigned char>(payload_[pos_ + 1]))
                              << 8;
  pos_ += 2;
  need(len);
  std::string s = payload_.substr(pos_, len);
  pos_ += len;
  return s;
}

void PayloadReader::get_f64_array(double* values, std::size_t count) {
  need(count * sizeof(double));
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values, payload_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
  } else {
    for (std::size_t i = 0; i < count; ++i) values[i] = get_f64();
  }
}

void PayloadReader::get_u64_array(std::uint64_t* values, std::size_t count) {
  need(count * sizeof(std::uint64_t));
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values, payload_.data() + pos_, count * sizeof(std::uint64_t));
    pos_ += count * sizeof(std::uint64_t);
  } else {
    for (std::size_t i = 0; i < count; ++i) values[i] = get_u64();
  }
}

std::string PayloadReader::rest() {
  std::string s = payload_.substr(pos_);
  pos_ = payload_.size();
  return s;
}

void PayloadReader::expect_done(const char* what) const {
  if (!done()) fail(std::string("trailing bytes in ") + what + " packet");
}

void write_container_magic(std::ostream& os, PayloadKind kind) {
  os.write(reinterpret_cast<const char*>(kMagic), sizeof(kMagic));
  os.put(static_cast<char>(kind));
}

void write_packet(std::ostream& os, std::uint8_t type, const std::string& payload) {
  if (payload.size() > kMaxPacketPayload) {
    throw InvalidArgument("state: packet payload exceeds 64 MiB");
  }
  std::string frame;
  frame.reserve(12);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32(payload.data(), payload.size()));
  put_u8(frame, type);
  frame.append(3, '\0');
  os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

PacketReader::PacketReader(std::istream& is, PayloadKind expected_kind) : is_(is) {
  unsigned char preamble[sizeof(kMagic) + 1];
  is_.read(reinterpret_cast<char*>(preamble), sizeof(preamble));
  if (is_.gcount() != static_cast<std::streamsize>(sizeof(preamble)) ||
      std::memcmp(preamble, kMagic, sizeof(kMagic)) != 0) {
    fail("not a banditware binary container");
  }
  if (preamble[sizeof(kMagic)] != static_cast<unsigned char>(expected_kind)) {
    fail("binary container holds a different payload kind");
  }
}

bool PacketReader::next(Packet& packet) {
  if (done_) return false;
  unsigned char header[12];
  is_.read(reinterpret_cast<char*>(header), sizeof(header));
  const auto got = static_cast<std::size_t>(is_.gcount());
  if (got == 0) {  // clean end of stream
    done_ = true;
    return false;
  }
  if (got < sizeof(header)) {  // torn mid-frame
    done_ = truncated_ = true;
    return false;
  }
  FrameHeader frame;
  frame.payload_size = decode_u32(header);
  frame.crc = decode_u32(header + 4);
  frame.type = header[8];
  if (frame.payload_size > kMaxPacketPayload) {
    // A length this large is indistinguishable from random corruption of
    // the frame itself; treat it like a failed checksum, not a hard error.
    done_ = truncated_ = true;
    return false;
  }
  // Chunked read: allocation grows with bytes actually delivered by the
  // stream, so a hostile length field on a short file cannot force a huge
  // up-front allocation. Reading into the caller's packet reuses its
  // buffer capacity across the (typically thousands of) packets of a load.
  std::string& payload = packet.payload;
  payload.clear();
  constexpr std::size_t kChunk = 1u << 16;
  while (payload.size() < frame.payload_size) {
    const std::size_t want = std::min(kChunk, frame.payload_size - payload.size());
    const std::size_t old = payload.size();
    payload.resize(old + want);
    is_.read(payload.data() + old, static_cast<std::streamsize>(want));
    const auto n = static_cast<std::size_t>(is_.gcount());
    if (n < want) {  // torn mid-payload
      done_ = truncated_ = true;
      return false;
    }
  }
  if (crc32(payload.data(), payload.size()) != frame.crc) {
    done_ = truncated_ = true;
    return false;
  }
  packet.type = frame.type;
  return true;
}

bool peek_container(std::istream& is, PayloadKind& kind) {
  const std::istream::pos_type start = is.tellg();
  unsigned char preamble[sizeof(kMagic) + 1];
  is.read(reinterpret_cast<char*>(preamble), sizeof(preamble));
  const bool match =
      is.gcount() == static_cast<std::streamsize>(sizeof(preamble)) &&
      std::memcmp(preamble, kMagic, sizeof(kMagic)) == 0 &&
      preamble[sizeof(kMagic)] >= 1 && preamble[sizeof(kMagic)] <= 5;
  is.clear();
  is.seekg(start);
  if (!match) return false;
  kind = static_cast<PayloadKind>(preamble[sizeof(kMagic)]);
  return true;
}

}  // namespace bw::io
