// Numeric environment knobs (MPASS_N, MPASS_THREADS, MPASS_TRAIN_MAL, ...).
#pragma once

#include <cstdint>

namespace mpass::util {

/// The decimal value of environment variable `name`, or `fallback` when it
/// is unset or empty. Anything but a non-negative decimal that fits in 64
/// bits ("-1", "abc", "12x", "1e3", 2^64) logs a warning and yields
/// `fallback`: strtoull would read "-1" as 2^64-1.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

}  // namespace mpass::util
