// Minimal JSON support for the observability subsystem: an escaping line
// writer for the JSONL trace sink and a small recursive-descent parser for
// the trace inspector (tools/mpass_trace) and the trace round-trip tests.
//
// Deliberately tiny: objects, arrays, strings, numbers (parsed as double),
// booleans, null. No streaming, no comments, no surrogate-pair decoding --
// everything the trace schema emits is ASCII.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpass::obs {

/// Appends `s` JSON-escaped (no surrounding quotes) to `out`.
void json_escape(std::string& out, std::string_view s);

/// Formats a double the way the trace schema expects: integral values
/// without a fractional part, finite values with up to 6 significant
/// decimals, non-finite values as null.
void json_number(std::string& out, double v);

/// Parsed JSON value. Numbers are stored as double (the trace schema never
/// needs 64-bit-exact integers above 2^53).
class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_bool() const { return kind_ == Kind::Bool; }

  double number() const { return num_; }
  bool boolean() const { return num_ != 0.0; }
  const std::string& str() const { return str_; }
  const std::vector<Json>& items() const { return items_; }
  const std::map<std::string, Json>& fields() const { return fields_; }

  /// Object member lookup; nullptr if absent or not an object.
  const Json* get(std::string_view key) const;

  /// Parses one JSON document (must consume all non-space input).
  /// Returns nullopt on any syntax error.
  static std::optional<Json> parse(std::string_view text);

 private:
  friend class JsonParser;
  Kind kind_ = Kind::Null;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::map<std::string, Json> fields_;
};

/// Builder for one JSONL object line: {"k":v,...}\n-free (caller adds \n).
/// Keys are trusted (schema constants); values are escaped.
class JsonLine {
 public:
  JsonLine() { buf_.push_back('{'); }

  JsonLine& str(std::string_view key, std::string_view v);
  JsonLine& num(std::string_view key, double v);
  JsonLine& uint(std::string_view key, std::uint64_t v);
  JsonLine& boolean(std::string_view key, bool v);
  JsonLine& strs(std::string_view key, std::span<const std::string> vs);
  /// Hex-formatted u64 (digests), written as a 16-char string.
  JsonLine& hex(std::string_view key, std::uint64_t v);
  /// Already-serialized JSON value (an object or array built elsewhere).
  JsonLine& raw(std::string_view key, std::string_view json);

  /// Closes the object and returns the line.
  std::string take() {
    buf_ += "}";
    return std::move(buf_);
  }

 private:
  void key(std::string_view k);
  std::string buf_;
  bool first_ = true;
};

}  // namespace mpass::obs
