#include "util/serialize.hpp"

#include <cstdlib>
#include <fstream>

namespace mpass::util {

void Archive::tag(std::string_view name) {
  w_.u16(static_cast<std::uint16_t>(0xA55A));
  w_.u16(static_cast<std::uint16_t>(name.size()));
  w_.block(as_bytes(name));
}

void Archive::str(std::string_view s) {
  w_.u32(static_cast<std::uint32_t>(s.size()));
  w_.block(as_bytes(s));
}

void Archive::floats(std::span<const float> xs) {
  w_.u32(static_cast<std::uint32_t>(xs.size()));
  for (float x : xs) w_.write(x);
}

void Archive::doubles(std::span<const double> xs) {
  w_.u32(static_cast<std::uint32_t>(xs.size()));
  for (double x : xs) w_.write(x);
}

void Archive::bytes(std::span<const std::uint8_t> xs) {
  w_.u32(static_cast<std::uint32_t>(xs.size()));
  w_.block(xs);
}

void Unarchive::tag(std::string_view expect) {
  if (r_.u16() != 0xA55A) throw ParseError("archive: bad tag marker");
  const std::uint16_t len = r_.u16();
  const std::string got = r_.fixed_string(len);
  if (got != expect)
    throw ParseError("archive: expected tag '" + std::string(expect) +
                     "', got '" + got + "'");
}

std::uint32_t Unarchive::count(std::size_t min_entry_bytes) {
  const std::uint32_t n = r_.u32();
  if (n > r_.remaining() / min_entry_bytes)
    throw ParseError("archive: entry count " + std::to_string(n) +
                     " exceeds the remaining bytes");
  return n;
}

std::string Unarchive::str() {
  const std::uint32_t n = r_.u32();
  return r_.fixed_string(n);
}

std::vector<float> Unarchive::floats() {
  const std::uint32_t n = count(sizeof(float));
  std::vector<float> out(n);
  for (auto& x : out) x = r_.read<float>();
  return out;
}

std::vector<double> Unarchive::doubles() {
  const std::uint32_t n = count(sizeof(double));
  std::vector<double> out(n);
  for (auto& x : out) x = r_.read<double>();
  return out;
}

ByteBuf Unarchive::bytes() {
  const std::uint32_t n = r_.u32();
  return r_.block(n);
}

void save_file(const std::filesystem::path& path, const ByteBuf& data) {
  if (!path.parent_path().empty())
    std::filesystem::create_directories(path.parent_path());
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
    if (!os) throw std::runtime_error("failed to write " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

std::optional<ByteBuf> load_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return std::nullopt;
  const std::streamsize n = is.tellg();
  is.seekg(0);
  ByteBuf data(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(data.data()), n);
  if (!is) return std::nullopt;
  return data;
}

std::filesystem::path cache_dir() {
  if (const char* env = std::getenv("MPASS_CACHE_DIR"); env && *env)
    return std::filesystem::path(env);
  return std::filesystem::path(".mpass_cache");
}

}  // namespace mpass::util
