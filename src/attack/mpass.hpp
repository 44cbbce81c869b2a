// MPass: the full hard-label black-box attack (paper §III).
//
// Workflow per sample (Fig. 1): modify with an initial perturbation from a
// randomly selected benign program + recovery module; query the target;
// on failure, optimize the perturbation on the known-model ensemble and
// re-query; re-initialize with a fresh donor if a donor stalls; stop at
// success or query exhaustion. Every AE is function-preserving by
// construction (runtime recovery + key co-updates).
//
// The §V ablations (Other-sec, Random-data, no-shuffle) are configurations
// of this one attack; harness::make_attack names them.
#pragma once

#include "attack/attack.hpp"
#include "core/optimizer.hpp"

namespace mpass::attack {

struct MpassConfig {
  core::ModificationConfig modification;
  int opt_steps_per_query = 2;   // ensemble steps between target queries
  int queries_per_donor = 8;     // re-roll the donor after this many misses
  // Only spend a query once the ensemble consensus is at most this
  // confident (or the extra-step budget is exhausted) -- queries are the
  // scarce resource, local optimization is free.
  float query_gate_score = 0.35f;
  int max_gate_steps = 6;
  bool optimize = true;          // false: initial perturbation only
  bool random_content = false;   // Table VI ablation: random bytes at I
};

class Mpass : public Attack {
 public:
  /// benign_pool: attacker-harvested benign programs (donors).
  /// known: differentiable known models (empty => no optimization). The
  /// attack deep-copies them, so its ensemble optimization never shares
  /// forward caches with the source nets or with another instance.
  Mpass(std::string name, MpassConfig cfg,
        std::span<const util::ByteBuf> benign_pool,
        std::span<ml::ByteConvNet* const> known);

  std::string_view name() const override { return name_; }

  AttackResult run(std::span<const std::uint8_t> malware,
                   detect::HardLabelOracle& oracle,
                   std::uint64_t seed) override;

  /// Copies the donor pool and the known nets: a clone is safe to run on
  /// another thread.
  std::unique_ptr<Attack> clone() const override {
    return std::make_unique<Mpass>(*this);
  }

 private:
  std::string name_;
  MpassConfig cfg_;
  std::vector<util::ByteBuf> pool_;
  std::vector<ml::ByteConvNet> known_;
};

}  // namespace mpass::attack
