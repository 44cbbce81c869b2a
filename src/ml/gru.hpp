// GRU byte-level language model: the generative substrate of the MalRNN
// baseline (Ebrahimi et al. 2020), trained on benign program bytes and
// sampled to produce benign-looking append payloads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/param.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mpass::ml {

struct GruLmConfig {
  int embed = 16;
  int hidden = 48;
  int vocab = 257;  // 256 bytes + start-of-stream token
  int bptt = 96;    // training window length
};

class GruLm {
 public:
  GruLm(const GruLmConfig& cfg, std::uint64_t seed);
  // Neither copyable nor movable: the layer pointers and the Adam state
  // point into params_, and a copy or move would leave them pointing into
  // the source.
  GruLm(const GruLm&) = delete;
  GruLm& operator=(const GruLm&) = delete;

  /// One training pass over `windows` randomly sampled byte windows drawn
  /// from the corpus streams. Returns mean cross-entropy (nats/byte).
  float train_epoch(const std::vector<util::ByteBuf>& corpus,
                    std::size_t windows, float lr, util::Rng& rng);

  /// Samples n bytes autoregressively, optionally conditioned on a context
  /// prefix; temperature < 1 sharpens toward the learned benign statistics.
  util::ByteBuf generate(std::size_t n, util::Rng& rng,
                         std::span<const std::uint8_t> context = {},
                         float temperature = 0.8f) const;

  /// Mean cross-entropy of a byte sequence under the model (nats/byte).
  float evaluate(std::span<const std::uint8_t> bytes) const;

  const GruLmConfig& config() const { return cfg_; }
  const ParamSet& params() const { return params_; }

  void save(util::Archive& ar) const;
  void load(util::Unarchive& ar);

  /// The forward weights transposed for the lane kernels (DESIGN
  /// "Vectorized kernels, bit-exact") plus one step's scratch. Built by
  /// pack() per generate()/evaluate() call and per training window, never
  /// cached on the model, so a const GruLm is safe to share across threads.
  struct Packed {
    std::vector<float> wx;     // E x 3H: row i = [Wz | Wr | Wn] column i
    std::vector<float> uh;     // H x 3H: row i = [Uz | Ur | Un] column i
    std::vector<float> wo;     // H x V: row i = Wo column i
    std::vector<float> zeros;  // the lanes' 0.0f start, max(3H, V)
    std::vector<float> sx, sh; // 3H lane sums over x and over h
    std::vector<float> z, r, n;
  };
  Packed pack() const;

  /// Training's per-step activations (gru.cpp).
  struct StepCache;

  /// One GRU step: h <- GRU(token, h); fills cache if given.
  void step(Packed& pk, int token, std::span<float> h,
            StepCache* cache = nullptr) const;

  /// Softmax over the V logits of hidden state h, written to probs.
  void output_probs(const Packed& pk, std::span<const float> h,
                    std::span<float> probs) const;

 private:
  GruLmConfig cfg_;
  ParamSet params_;
  Param* emb_;                 // vocab x embed
  Param* wz_; Param* uz_; Param* bz_;
  Param* wr_; Param* ur_; Param* br_;
  Param* wn_; Param* un_; Param* bn_;
  Param* wo_; Param* bo_;      // vocab x hidden output head
  std::unique_ptr<Adam> opt_;
};

}  // namespace mpass::ml
