#pragma once
// bw::io — the single persistence entry point for learned state.
//
// Everything durable goes through the two function pairs below:
//
//   io::save_state(os, bandit|server, format)   // text or binary
//   io::load_state(is) / io::load_server_state(is)
//
// Loading auto-detects the format from the leading bytes — the binary
// container magic, or a `banditware-state v1..v5` / `banditserver-state
// v1..v6` text header — so every snapshot ever written keeps loading
// through one call, forever. The legacy string-based members
// (`BanditWare::save_state()/load_state()`, `BanditServer::…`) are thin
// wrappers over these streams; no caller outside src/io/ touches a
// version-specific parser.
//
// Text stays the default save format: it is diffable, and its one written
// version is pinned byte-for-byte by a golden fixture. Binary
// (docs/FORMATS.md) stores each arm's evidence as raw little-endian
// doubles — bit-exact round trips with none of the 17-digit formatting
// cost — inside checksummed packets, so a truncated file loads up to the
// last complete packet instead of being lost.

#include <iosfwd>
#include <string>

#include "io/container.hpp"

namespace bw::core {
class BanditWare;
}
namespace bw::serve {
class BanditServer;
}

namespace bw::io {

enum class Format {
  kAuto,    ///< load: detect from bytes; save: the default (text)
  kText,    ///< line-oriented, 17-significant-digit doubles
  kBinary,  ///< packet-framed container, raw LE doubles, checksummed
};

/// Parses "auto" / "text" / "binary"; throws InvalidArgument otherwise.
Format parse_format(const std::string& name);
std::string to_string(Format format);

/// What a stream holds, identified from its leading bytes.
struct ProbeResult {
  PayloadKind kind = PayloadKind::kBanditWareState;
  Format format = Format::kText;  ///< kText or kBinary, never kAuto
  int version = 0;  ///< text format version, or binary container version
};

/// Identifies the payload without consuming the stream (position is
/// restored). Returns false when the bytes match no known format.
bool probe(std::istream& is, ProbeResult& out);

/// Filled in by the loaders: which format/version actually loaded, and
/// whether a binary stream stopped early at a torn or corrupted packet
/// (everything before it was restored — the crash-resilience contract).
struct LoadInfo {
  Format format = Format::kText;
  int version = 0;
  bool truncated = false;
};

/// Serializes a snapshot. kAuto means kText — the stable, diffable
/// default; binary is the opt-in fast path.
void save_state(std::ostream& os, const core::BanditWare& bandit,
                Format format = Format::kAuto);
void save_state(std::ostream& os, const serve::BanditServer& server,
                Format format = Format::kAuto);

/// Restores a snapshot, auto-detecting text (v1+) vs binary. Throws
/// ParseError on malformed input; a *truncated binary* stream is not an
/// error — it loads up to the last complete packet and sets
/// info->truncated.
core::BanditWare load_state(std::istream& is, LoadInfo* info = nullptr);
serve::BanditServer load_server_state(std::istream& is, LoadInfo* info = nullptr);

}  // namespace bw::io
