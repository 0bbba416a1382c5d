// Format detection and dispatch: the one place that knows every header the
// project has ever written. Adding a format means teaching probe() and the
// two load functions here — no caller changes, ever.

#include "io/state_io.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "core/banditware.hpp"
#include "io/codec.hpp"
#include "serve/bandit_server.hpp"

namespace bw::io {
namespace {

/// Text header line -> (kind, version). Returns false for anything else.
bool identify_text_header(const std::string& line, ProbeResult& out) {
  out.format = Format::kText;
  if (line == "banditware-state v1") out.version = 1;
  else if (line == "banditware-state v2") out.version = 2;
  else if (line == "banditware-state v3") out.version = 3;
  else if (line == "banditware-state v4") out.version = 4;
  else if (line == "banditware-state v5") out.version = 5;
  else out.version = 0;
  if (out.version != 0) {
    out.kind = PayloadKind::kBanditWareState;
    return true;
  }
  if (line == "banditserver-state v1") out.version = 1;
  else if (line == "banditserver-state v2") out.version = 2;
  else if (line == "banditserver-state v3") out.version = 3;
  else if (line == "banditserver-state v4") out.version = 4;
  else if (line == "banditserver-state v5") out.version = 5;
  else if (line == "banditserver-state v6") out.version = 6;
  else return false;
  out.kind = PayloadKind::kBanditServerState;
  return true;
}

/// Reads the header line of a text snapshot, leaving the stream positioned
/// on the body. Returns false (stream restored) when the line matches no
/// known text header.
bool consume_text_header(std::istream& is, ProbeResult& out) {
  const std::istream::pos_type start = is.tellg();
  std::string line;
  if (!std::getline(is, line) || !identify_text_header(line, out)) {
    is.clear();
    is.seekg(start);
    return false;
  }
  return true;
}

/// Runs a loader with ParseError as its only failure type. Values a parser
/// accepts can still violate a constructor's precondition (a 0-cpu arm,
/// ε₀ = 2, an unknown policy token); on a load that InvalidArgument means
/// malformed input, so it is converted here, at the io boundary.
template <typename Load>
auto parse_errors_only(const char* who, Load&& load) -> decltype(load()) {
  try {
    return load();
  } catch (const InvalidArgument& error) {
    throw ParseError(std::string(who) + ": " + error.what());
  }
}

}  // namespace

Format parse_format(const std::string& name) {
  if (name == "auto") return Format::kAuto;
  if (name == "text") return Format::kText;
  if (name == "binary") return Format::kBinary;
  throw InvalidArgument("unknown state format: " + name +
                        " (expected auto, text, or binary)");
}

std::string to_string(Format format) {
  switch (format) {
    case Format::kAuto:
      return "auto";
    case Format::kText:
      return "text";
    case Format::kBinary:
      return "binary";
  }
  return "unknown";
}

bool probe(std::istream& is, ProbeResult& out) {
  PayloadKind kind;
  if (peek_container(is, kind)) {
    out.kind = kind;
    out.format = Format::kBinary;
    out.version = kMagic[7];
    return true;
  }
  const std::istream::pos_type start = is.tellg();
  std::string line;
  const bool ok = static_cast<bool>(std::getline(is, line)) &&
                  identify_text_header(line, out);
  is.clear();
  is.seekg(start);
  return ok;
}

void save_state(std::ostream& os, const core::BanditWare& bandit, Format format) {
  if (format == Format::kBinary) {
    const std::string bytes = detail::bandit_state_binary(bandit);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return;
  }
  const std::string text = detail::bandit_state_text(bandit);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void save_state(std::ostream& os, const serve::BanditServer& server, Format format) {
  if (format == Format::kBinary) {
    detail::save_server_binary(os, server);
    return;
  }
  const std::string text = detail::server_state_text(server);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

core::BanditWare load_state(std::istream& is, LoadInfo* info) {
  PayloadKind kind;
  if (peek_container(is, kind)) {
    if (kind != PayloadKind::kBanditWareState) {
      throw ParseError(
          "BanditWare::load_state: binary container holds a different payload kind");
    }
    return parse_errors_only("BanditWare::load_state",
                             [&] { return detail::load_bandit_binary(is, info); });
  }
  ProbeResult header;
  if (!consume_text_header(is, header) ||
      header.kind != PayloadKind::kBanditWareState) {
    throw ParseError("BanditWare::load_state: bad header");
  }
  if (info != nullptr) {
    info->format = Format::kText;
    info->version = header.version;
    info->truncated = false;
  }
  return parse_errors_only("BanditWare::load_state",
                           [&] { return detail::load_bandit_text(is, header.version); });
}

serve::BanditServer load_server_state(std::istream& is, LoadInfo* info) {
  PayloadKind kind;
  if (peek_container(is, kind)) {
    if (kind != PayloadKind::kBanditServerState) {
      throw ParseError(
          "BanditServer::load_state: binary container holds a different payload kind");
    }
    return parse_errors_only("BanditServer::load_state",
                             [&] { return detail::load_server_binary(is, info); });
  }
  ProbeResult header;
  if (!consume_text_header(is, header) ||
      header.kind != PayloadKind::kBanditServerState) {
    throw ParseError("BanditServer::load_state: bad header");
  }
  if (info != nullptr) {
    info->format = Format::kText;
    info->version = header.version;
    info->truncated = false;
  }
  return parse_errors_only("BanditServer::load_state",
                           [&] { return detail::load_server_text(is, header.version); });
}

}  // namespace bw::io
