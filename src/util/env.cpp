#include "util/env.hpp"

#include <charconv>
#include <cstdlib>
#include <string_view>

#include "obs/log.hpp"

namespace mpass::util {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::string_view s(v);
  // from_chars on an unsigned type takes digits only (no sign, no blanks)
  // and reports overflow.
  std::uint64_t n = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (ec != std::errc() || end != s.data() + s.size()) {
    obs::logf(obs::LogLevel::Warn,
              "%s=%s is not a non-negative decimal integer; using %llu", name,
              v, static_cast<unsigned long long>(fallback));
    return fallback;
  }
  return n;
}

}  // namespace mpass::util
