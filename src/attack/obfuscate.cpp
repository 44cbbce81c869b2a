#include "attack/obfuscate.hpp"

namespace mpass::attack {

AttackResult ObfuscateAttack::run(std::span<const std::uint8_t> malware,
                                  detect::HardLabelOracle& oracle,
                                  std::uint64_t seed) {
  auto packed = pack::pack(kind_, malware, {seed});
  if (!packed || oracle.query(*packed)) return {};
  return {true, std::move(*packed)};
}

}  // namespace mpass::attack
