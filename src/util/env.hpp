// Strict number parsing for the environment knobs (MPASS_N, MPASS_THREADS,
// MPASS_TRAIN_MAL, ...) and the tools' command-line options.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace mpass::util {

/// `s` as a non-negative decimal that fits in 64 bits; nullopt for anything
/// else ("", "-1", "abc", "12x", "1e3", 2^64): strtoull would read "-1" as
/// 2^64-1.
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// `s` as a finite number, parsed in full; nullopt for anything else ("",
/// "abc", "0.2x", "inf"): strtod would read "abc" as 0.
std::optional<double> parse_f64(std::string_view s);

/// The value of environment variable `name` under parse_u64, or `fallback`
/// when it is unset or empty. A malformed value logs a warning and yields
/// `fallback`.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

}  // namespace mpass::util
