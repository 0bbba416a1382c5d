#include "io/run_table_io.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"

namespace bw::io {
namespace {

constexpr std::uint8_t kTableHeader = 0x20;
constexpr std::uint8_t kRowBlock = 0x21;
constexpr std::uint8_t kEnd = 0x7F;

/// Rows per block: large enough to amortize packet framing, small enough
/// that a torn tail loses little (a block of 4096 x 12 doubles is ~400 KB).
constexpr std::uint32_t kRowsPerBlock = 4096;

[[noreturn]] void fail(const std::string& what) {
  throw ParseError("read_run_table: " + what);
}

void decode_f64_array(const char* src, double* dst, std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, count * sizeof(double));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t bits = 0;
      for (int b = 7; b >= 0; --b) {
        bits = bits << 8 | static_cast<unsigned char>(src[i * 8 + b]);
      }
      dst[i] = std::bit_cast<double>(bits);
    }
  }
}

}  // namespace

RunTableWriter::RunTableWriter(std::ostream& os, std::vector<std::string> feature_names,
                               hw::HardwareCatalog catalog)
    : os_(os), num_features_(feature_names.size()), num_arms_(catalog.size()) {
  BW_CHECK_MSG(num_features_ >= 1, "RunTableWriter needs at least one feature");
  BW_CHECK_MSG(num_arms_ >= 1, "RunTableWriter needs at least one arm");
  write_container_magic(os_, PayloadKind::kRunTable);
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(num_features_));
  for (const auto& name : feature_names) put_string(payload, name);
  put_u32(payload, static_cast<std::uint32_t>(num_arms_));
  for (const auto& spec : catalog.specs()) {
    put_string(payload, spec.name);
    put_i32(payload, spec.cpus);
    put_f64(payload, spec.memory_gb);
    put_i32(payload, spec.gpus);
  }
  write_packet(os_, kTableHeader, payload);
}

void RunTableWriter::append(std::span<const double> features,
                            std::span<const double> runtimes) {
  BW_CHECK_MSG(!finished_, "RunTableWriter: append() after finish()");
  BW_CHECK_MSG(features.size() == num_features_,
               "RunTableWriter: feature count mismatch");
  BW_CHECK_MSG(runtimes.size() == num_arms_, "RunTableWriter: runtime count mismatch");
  put_f64_array(block_, features.data(), features.size());
  put_f64_array(block_, runtimes.data(), runtimes.size());
  ++block_rows_;
  ++total_rows_;
  if (block_rows_ == kRowsPerBlock) flush_block();
}

void RunTableWriter::flush_block() {
  if (block_rows_ == 0) return;
  std::string payload;
  put_u32(payload, block_rows_);
  payload += block_;
  write_packet(os_, kRowBlock, payload);
  block_.clear();
  block_rows_ = 0;
}

void RunTableWriter::finish() {
  BW_CHECK_MSG(!finished_, "RunTableWriter: finish() called twice");
  flush_block();
  std::string payload;
  put_u64(payload, total_rows_);
  write_packet(os_, kEnd, payload);
  finished_ = true;
}

RunTableReader::RunTableReader(std::istream& is)
    : reader_(is, PayloadKind::kRunTable) {
  Packet packet;
  if (!reader_.next(packet)) fail("truncated before header packet");
  if (packet.type != kTableHeader) fail("expected table header packet");
  PayloadReader payload(packet.payload);
  const std::uint32_t num_features = payload.get_u32();
  if (num_features == 0) fail("expected features");
  if (num_features > kMaxFeatures) fail("feature count exceeds limit");
  feature_names_.reserve(num_features);
  for (std::uint32_t i = 0; i < num_features; ++i) {
    feature_names_.push_back(payload.get_string());
  }
  const std::uint32_t num_arms = payload.get_u32();
  if (num_arms == 0) fail("expected arms");
  if (num_arms > kMaxArms) fail("arm count exceeds limit");
  std::unordered_set<std::string> seen;
  for (std::uint32_t i = 0; i < num_arms; ++i) {
    hw::HardwareSpec spec;
    spec.name = payload.get_string();
    spec.cpus = payload.get_i32();
    spec.memory_gb = payload.get_f64();
    spec.gpus = payload.get_i32();
    if (!seen.insert(spec.name).second) fail("duplicate arm name: " + spec.name);
    catalog_.add(std::move(spec));
  }
  payload.expect_done("header");
}

bool RunTableReader::next_block() {
  Packet packet;
  while (reader_.next(packet)) {
    if (packet.type == kRowBlock) {
      PayloadReader payload(packet.payload);
      const std::uint32_t rows = payload.get_u32();
      const std::size_t row_bytes =
          (num_features() + num_arms()) * sizeof(double);
      if (rows == 0) fail("empty row block");
      // The declared count must exactly match the (checksummed) bytes —
      // decoding is then pure pointer arithmetic over the block.
      if (payload.remaining() != rows * row_bytes) fail("row block size mismatch");
      block_ = std::move(packet.payload);
      block_pos_ = 4;  // past the row count
      block_rows_left_ = rows;
      return true;
    }
    if (packet.type == kEnd) {
      PayloadReader payload(packet.payload);
      const std::uint64_t total = payload.get_u64();
      payload.expect_done("end");
      if (total != rows_read_) fail("end packet row count mismatch");
      saw_end_ = true;
      return false;
    }
    // Unknown packet types are skipped (forward compatibility).
  }
  truncated_ = reader_.truncated();
  return false;
}

bool RunTableReader::next_row(std::vector<double>& features,
                              std::vector<double>& runtimes) {
  if (done_) return false;
  if (block_rows_left_ == 0 && !next_block()) {
    done_ = true;
    return false;
  }
  features.resize(num_features());
  runtimes.resize(num_arms());
  // Direct decode at the stored offset: the block's byte count was
  // verified against its row count in next_block(), so this never reads
  // past the buffer.
  const char* base = block_.data() + block_pos_;
  decode_f64_array(base, features.data(), features.size());
  decode_f64_array(base + features.size() * sizeof(double), runtimes.data(),
                   runtimes.size());
  block_pos_ += (num_features() + num_arms()) * sizeof(double);
  --block_rows_left_;
  ++rows_read_;
  return true;
}

void write_run_table(std::ostream& os, const core::RunTable& table) {
  RunTableWriter writer(os, table.feature_names(), table.catalog());
  for (std::size_t g = 0; g < table.num_groups(); ++g) {
    writer.append(table.features().row(g), table.runtimes().row(g));
  }
  writer.finish();
}

core::RunTable read_run_table(std::istream& is, LoadInfo* info) {
  RunTableReader reader(is);
  std::vector<double> feature_row;
  std::vector<double> runtime_row;
  std::vector<double> features_flat;
  std::vector<double> runtimes_flat;
  while (reader.next_row(feature_row, runtime_row)) {
    features_flat.insert(features_flat.end(), feature_row.begin(), feature_row.end());
    runtimes_flat.insert(runtimes_flat.end(), runtime_row.begin(), runtime_row.end());
  }
  const std::size_t rows = static_cast<std::size_t>(reader.rows_read());
  if (rows == 0) fail("run table holds no complete rows");
  linalg::Matrix features(rows, reader.num_features());
  features.data() = std::move(features_flat);
  linalg::Matrix runtimes(rows, reader.num_arms());
  runtimes.data() = std::move(runtimes_flat);
  if (info != nullptr) {
    info->format = Format::kBinary;
    info->version = kMagic[7];
    info->truncated = reader.truncated();
  }
  try {
    return core::RunTable(reader.feature_names(), std::move(features),
                          std::move(runtimes), reader.catalog());
  } catch (const InvalidArgument& error) {
    // The RunTable constructor rejects non-finite values and shape
    // inconsistencies — in a checksummed file those are writer defects.
    fail(error.what());
  }
}

}  // namespace bw::io
