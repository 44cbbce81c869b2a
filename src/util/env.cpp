#include "util/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "obs/log.hpp"

namespace mpass::util {

namespace {
// from_chars takes no leading blanks or '+', reports overflow, and on an
// unsigned type takes digits only; the whole string must be consumed.
template <typename T>
std::optional<T> parse_full(std::string_view s) {
  if (s.empty()) return std::nullopt;
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return v;
}
}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  return parse_full<std::uint64_t>(s);
}

std::optional<double> parse_f64(std::string_view s) {
  const auto v = parse_full<double>(s);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  if (const auto n = parse_u64(v)) return *n;
  obs::logf(obs::LogLevel::Warn,
            "%s=%s is not a non-negative decimal integer; using %llu", name, v,
            static_cast<unsigned long long>(fallback));
  return fallback;
}

}  // namespace mpass::util
