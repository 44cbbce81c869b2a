// Versioned binary serialization for trained models and cached experiment
// results, so benchmark binaries can share work instead of retraining.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace mpass::util {

/// Appending archive writer with tagged sections for sanity checking.
class Archive {
 public:
  void tag(std::string_view name);          // writes len+bytes marker
  void f32(float v) { w_.write(v); }
  void f64(double v) { w_.write(v); }
  void u32(std::uint32_t v) { w_.u32(v); }
  void u64(std::uint64_t v) { w_.u64(v); }
  void i64(std::int64_t v) { w_.write(v); }
  void str(std::string_view s);
  void floats(std::span<const float> xs);
  void doubles(std::span<const double> xs);
  void bytes(std::span<const std::uint8_t> xs);

  ByteBuf take() { return w_.take(); }

 private:
  ByteWriter w_;
};

/// Matching reader; throws ParseError on tag mismatch or truncation.
class Unarchive {
 public:
  explicit Unarchive(std::span<const std::uint8_t> data) : r_(data) {}

  void tag(std::string_view expect);  // verifies a tag written by Archive
  float f32() { return r_.read<float>(); }
  double f64() { return r_.read<double>(); }
  std::uint32_t u32() { return r_.u32(); }
  std::uint64_t u64() { return r_.u64(); }
  std::int64_t i64() { return r_.read<std::int64_t>(); }
  /// Reads an entry count; ParseError if the rest of the archive cannot
  /// hold that many entries of at least `min_entry_bytes` each.
  std::uint32_t count(std::size_t min_entry_bytes);
  std::string str();
  std::vector<float> floats();
  std::vector<double> doubles();
  ByteBuf bytes();
  bool eof() const { return r_.eof(); }
  std::size_t remaining() const { return r_.remaining(); }

 private:
  ByteReader r_;
};

/// Writes a whole buffer to disk atomically (temp file + rename).
void save_file(const std::filesystem::path& path, const ByteBuf& data);

/// Reads a whole file; nullopt if missing/unreadable.
std::optional<ByteBuf> load_file(const std::filesystem::path& path);

/// Cache directory for trained models/experiment results.
/// Honors MPASS_CACHE_DIR; defaults to ".mpass_cache" in the CWD.
std::filesystem::path cache_dir();

}  // namespace mpass::util
