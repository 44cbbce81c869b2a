// Option parsing shared by the command-line tools: `--name value` options,
// bare `--name` flags, and numeric values that must parse in full.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/env.hpp"

namespace mpass::tools {

/// A missing or malformed option value. Each tool's main prints it, then
/// its usage, and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The value after option `name` in argv[0, argc), or `fallback` when the
/// option is absent.
inline const char* opt(int argc, char** argv, const char* name,
                       const char* fallback = nullptr) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) continue;
    if (i + 1 == argc) throw UsageError(std::string(name) + ": no value");
    return argv[i + 1];
  }
  return fallback;
}

/// Whether the bare flag `name` is in argv[0, argc).
inline bool flag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

/// `text` (the value of `what`) as a non-negative decimal integer.
inline std::uint64_t to_u64(const char* text, const char* what) {
  if (const auto v = util::parse_u64(text)) return *v;
  throw UsageError(std::string(what) + ": '" + text +
                   "' is not a non-negative integer");
}

inline std::uint64_t opt_u64(int argc, char** argv, const char* name,
                             std::uint64_t fallback) {
  const char* v = opt(argc, argv, name);
  return v ? to_u64(v, name) : fallback;
}

inline double opt_f64(int argc, char** argv, const char* name,
                      double fallback) {
  const char* v = opt(argc, argv, name);
  if (!v) return fallback;
  if (const auto d = util::parse_f64(v)) return *d;
  throw UsageError(std::string(name) + ": '" + v + "' is not a number");
}

}  // namespace mpass::tools
