// ModelZoo: one-stop construction of every trained artifact experiments
// need -- the labeled corpus, the four offline detectors (MalConv, NonNeg,
// LightGBM, MalGCG), the attacker-side benign program pool, the benign byte
// language model (MalRNN substrate), and the five commercial-AV simulators.
//
// Training runs once and is cached under MPASS_CACHE_DIR (default
// .mpass_cache/) keyed by the configuration digest, so the per-table bench
// binaries share models instead of retraining. Sizes are configurable via
// environment variables (MPASS_TRAIN_MAL, MPASS_TRAIN_BEN, MPASS_TEST_MAL,
// MPASS_TEST_BEN, MPASS_NET_EPOCHS, MPASS_SEED, MPASS_NO_CACHE).
//
// Training runs GBDT + the LM, the three target nets and three surrogates,
// and later the five AV simulators, as util::ThreadPool::instance() tasks
// (sized by MPASS_THREADS). Each model keeps its own seed, so the cached files do not depend on the
// thread count. A zoo loaded from cache never touches the pool.
#pragma once

#include <memory>

#include "corpus/generator.hpp"
#include "detectors/avsim.hpp"
#include "detectors/models.hpp"
#include "detectors/training.hpp"
#include "ml/gru.hpp"

namespace mpass::detect {

struct ZooConfig {
  std::uint64_t seed = 42;
  std::size_t train_malware = 400;
  std::size_t train_benign = 400;
  std::size_t test_malware = 120;
  std::size_t test_benign = 120;
  std::size_t packed_malware = 48;  // packed-sample training augmentation
  std::size_t packed_benign = 16;
  std::size_t benign_pool = 64;     // attacker-collected benign programs
  int net_epochs = 3;
  double target_fpr = 0.01;
  std::size_t lm_windows = 1200;    // GRU LM training windows per epoch
  int lm_epochs = 2;
  bool use_cache = true;

  static ZooConfig from_env();
  std::uint64_t digest() const;
};

class ModelZoo {
 public:
  explicit ModelZoo(const ZooConfig& cfg);

  /// Process-wide zoo built from environment configuration.
  static ModelZoo& instance();

  const ZooConfig& config() const { return cfg_; }
  const corpus::Dataset& train() const { return train_; }
  const corpus::Dataset& test() const { return test_; }

  /// The four offline detectors, in the paper's table order:
  /// MalConv, NonNeg, LightGBM, MalGCG.
  std::vector<Detector*> offline() const;
  Detector& offline_by_name(std::string_view name) const;

  /// Differentiable byte nets usable as MPass's known-model ensemble,
  /// excluding the named target (paper: "we treat the remaining models as
  /// known models"; LightGBM is never a known model -- no gradients).
  /// Includes the attacker-trained surrogates: with laptop-scale models the
  /// two remaining SOTA nets alone transfer poorly, so the attacker trains
  /// additional local models on their own corpus -- a capability the
  /// paper's threat model already grants (black-box targets, arbitrary
  /// local "known models").
  std::vector<ml::ByteConvNet*> known_nets_excluding(
      std::string_view target) const;

  /// The attacker-trained surrogate detectors (diverse architectures,
  /// trained on an attacker-generated corpus).
  std::vector<ByteConvDetector*> surrogates() const;

  /// Benign programs the attacker harvested (perturbation donors).
  const std::vector<util::ByteBuf>& benign_pool() const { return pool_; }

  /// Byte LM trained on the benign pool (MalRNN generator).
  ml::GruLm& benign_lm() { return *lm_; }

  /// The five commercial-AV simulators (lazily trained/cached).
  const std::vector<std::unique_ptr<CommercialAv>>& avs();

  /// Held-out evaluation of one offline detector.
  EvalReport eval_offline(std::string_view name) const;

 private:
  void build_or_load();
  void build_avs();
  std::filesystem::path artifact_path(std::string_view stem) const;

  ZooConfig cfg_;
  corpus::Dataset train_, test_;
  std::unique_ptr<ByteConvDetector> malconv_, nonneg_, malgcg_;
  std::vector<std::unique_ptr<ByteConvDetector>> surrogates_;
  std::unique_ptr<GbdtDetector> lightgbm_;
  std::vector<util::ByteBuf> pool_;
  std::unique_ptr<ml::GruLm> lm_;
  std::vector<std::unique_ptr<CommercialAv>> avs_;
  bool avs_built_ = false;
};

}  // namespace mpass::detect
