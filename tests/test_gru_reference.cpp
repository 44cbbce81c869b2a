// Differential tests for GruLm's lane kernels against the scalar forward
// they replaced: a test-local copy of the original step() (per gate row
// `s = 0.0f; s += w[j*k + i] * x[i]`, then `y += s` onto the bias) and
// output_probs(). Hidden states and probabilities must match it *bitwise*
// (memcmp) after every step, for configs whose 3H gate lanes exercise the
// 16-lane blocks, the 4-lane blocks and the scalar tail, and generate()
// must sample the reference loop's bytes. A golden pin recorded on the
// scalar implementation covers the training path, and a two-thread test
// checks that a shared const model samples as it does sequentially.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "corpus/generator.hpp"
#include "ml/gru.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace mpass::ml {
namespace {

using util::ByteBuf;

// A copied or moved GruLm would keep layer pointers into the source's
// ParamSet, so both are deleted.
static_assert(!std::is_move_constructible_v<ml::GruLm> &&
              !std::is_copy_constructible_v<ml::GruLm>);

/// The scalar forward, reading the weights of `lm` (ParamSet order:
/// emb wz uz bz wr ur br wn un bn wo bo).
class ScalarReference {
 public:
  explicit ScalarReference(const GruLm& lm) : cfg_(lm.config()) {
    for (const Param* p : lm.params().all()) w_.push_back(&p->w);
  }

  void step(int token, std::vector<float>& h) const {
    const int E = cfg_.embed, H = cfg_.hidden;
    std::vector<float> x(w(kEmb).begin() + static_cast<std::size_t>(token) * E,
                         w(kEmb).begin() +
                             static_cast<std::size_t>(token + 1) * E);
    std::vector<float> z = w(kBz), r = w(kBr), n = w(kBn);
    std::vector<float> un_h(static_cast<std::size_t>(H), 0.0f);
    matvec_acc(w(kWz), x, z, H, E);
    matvec_acc(w(kUz), h, z, H, H);
    matvec_acc(w(kWr), x, r, H, E);
    matvec_acc(w(kUr), h, r, H, H);
    matvec_acc(w(kUn), h, un_h, H, H);
    for (int i = 0; i < H; ++i) {
      z[i] = sigmoid(z[i]);
      r[i] = sigmoid(r[i]);
    }
    matvec_acc(w(kWn), x, n, H, E);
    for (int i = 0; i < H; ++i) n[i] += r[i] * un_h[i];
    for (int i = 0; i < H; ++i) n[i] = std::tanh(n[i]);
    for (int i = 0; i < H; ++i) h[i] = (1.0f - z[i]) * n[i] + z[i] * h[i];
  }

  std::vector<float> output_probs(const std::vector<float>& h) const {
    std::vector<float> logits = w(kBo);
    matvec_acc(w(kWo), h, logits, cfg_.vocab, cfg_.hidden);
    const float mx = *std::max_element(logits.begin(), logits.end());
    float sum = 0.0f;
    for (float& l : logits) {
      l = std::exp(l - mx);
      sum += l;
    }
    for (float& l : logits) l /= sum;
    return logits;
  }

  ByteBuf generate(std::size_t n, util::Rng& rng,
                   std::span<const std::uint8_t> context,
                   float temperature) const {
    std::vector<float> h(static_cast<std::size_t>(cfg_.hidden), 0.0f);
    step(cfg_.vocab - 1, h);
    for (std::uint8_t b : context.subspan(
             context.size() > 64 ? context.size() - 64 : 0))
      step(b, h);
    ByteBuf out;
    const float inv_temp = 1.0f / std::max(temperature, 0.05f);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<float> p = output_probs(h);
      std::vector<double> weights(256);
      for (int b = 0; b < 256; ++b)
        weights[b] = std::pow(static_cast<double>(p[b]),
                              static_cast<double>(inv_temp));
      const int next = static_cast<int>(rng.weighted(weights));
      out.push_back(static_cast<std::uint8_t>(next));
      step(next, h);
    }
    return out;
  }

 private:
  enum { kEmb, kWz, kUz, kBz, kWr, kUr, kBr, kWn, kUn, kBn, kWo, kBo };

  static float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

  /// y += A (rows x cols, row-major) * x
  static void matvec_acc(const std::vector<float>& a,
                         const std::vector<float>& x, std::vector<float>& y,
                         int rows, int cols) {
    for (int i = 0; i < rows; ++i) {
      float s = 0.0f;
      const float* row = a.data() + static_cast<std::size_t>(i) * cols;
      for (int j = 0; j < cols; ++j) s += row[j] * x[j];
      y[i] += s;
    }
  }

  const std::vector<float>& w(int i) const { return *w_[i]; }

  GruLmConfig cfg_;
  std::vector<const std::vector<float>*> w_;
};

std::vector<ByteBuf> small_corpus() {
  std::vector<ByteBuf> corpus;
  for (std::uint64_t s = 0; s < 3; ++s)
    corpus.push_back(corpus::make_benign(0x6E0 + s).bytes());
  return corpus;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct Shape {
  int embed, hidden;
};

class GruReference : public ::testing::TestWithParam<Shape> {
 protected:
  GruLmConfig config() const {
    GruLmConfig cfg;
    cfg.embed = GetParam().embed;
    cfg.hidden = GetParam().hidden;
    cfg.bptt = 48;
    return cfg;
  }

  /// A model one epoch away from its init, so no weight is a fresh draw.
  /// (GruLm is neither copyable nor movable, hence the unique_ptr.)
  void SetUp() override {
    lm_ = std::make_unique<GruLm>(config(), 41);
    util::Rng rng(43);
    lm_->train_epoch(small_corpus(), 4, 5e-3f, rng);
  }

  std::unique_ptr<GruLm> lm_;
};

TEST_P(GruReference, StepAndProbsMatchScalarBitwise) {
  const GruLm& lm = *lm_;
  const ScalarReference ref(lm);
  GruLm::Packed pk = lm.pack();
  const std::size_t H = static_cast<std::size_t>(lm.config().hidden);
  std::vector<float> h(H, 0.0f), h_ref(H, 0.0f);
  std::vector<float> p(static_cast<std::size_t>(lm.config().vocab));
  util::Rng rng(47);
  int token = lm.config().vocab - 1;
  for (int t = 0; t < 200; ++t) {
    lm.step(pk, token, h);
    ref.step(token, h_ref);
    ASSERT_TRUE(same_bits(h, h_ref)) << "hidden state, step " << t;
    lm.output_probs(pk, h, p);
    ASSERT_TRUE(same_bits(p, ref.output_probs(h_ref))) << "probs, step " << t;
    token = static_cast<int>(rng.below(256));
  }
}

TEST_P(GruReference, GenerateMatchesReferenceLoop) {
  const GruLm& lm = *lm_;
  const ScalarReference ref(lm);
  const ByteBuf context = util::Rng(53).bytes(100);
  for (std::size_t ctx_len : {0, 10, 100}) {
    const std::span<const std::uint8_t> ctx(context.data(), ctx_len);
    util::Rng a(59), b(59);
    EXPECT_EQ(lm.generate(300, a, ctx, 0.8f), ref.generate(300, b, ctx, 0.8f))
        << "context of " << ctx_len << " bytes";
  }
}

TEST_P(GruReference, EvaluateMatchesReferenceLoss) {
  const GruLm& lm = *lm_;
  const ScalarReference ref(lm);
  const ByteBuf bytes = util::Rng(61).bytes(150);
  std::vector<float> h(static_cast<std::size_t>(lm.config().hidden), 0.0f);
  int prev = lm.config().vocab - 1;
  double loss = 0.0;
  for (std::uint8_t b : bytes) {
    ref.step(prev, h);
    loss -= std::log(std::max(ref.output_probs(h)[b], 1e-9f));
    prev = b;
  }
  const float want =
      static_cast<float>(loss / static_cast<double>(bytes.size()));
  const float got = lm.evaluate(bytes);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << got << " vs " << want;
}

// 3H = 144 (16-lane blocks only), 72 (16- and 4-lane blocks) and 54 (16-,
// 4-lane blocks and a scalar tail); the V = 257 output head always ends in
// a one-lane tail.
INSTANTIATE_TEST_SUITE_P(Shapes, GruReference,
                         ::testing::Values(Shape{16, 48}, Shape{8, 24},
                                           Shape{10, 18}),
                         [](const auto& info) {
                           std::string name = "E";
                           name += std::to_string(info.param.embed);
                           name += "H";
                           name += std::to_string(info.param.hidden);
                           return name;
                         });

// Pinned on the scalar implementation: the weights after two training
// epochs (whose forward runs the lane kernels and whose backward reads
// their activations) and 4 KiB sampled from them. Any change to the
// float operations of training or sampling moves these hashes.
TEST(GruLmPin, TrainingAndGenerationAreUnchanged) {
  const std::vector<ByteBuf> corpus = small_corpus();
  GruLm lm(GruLmConfig{}, 17);
  util::Rng rng(23);
  EXPECT_EQ(lm.train_epoch(corpus, 12, 2e-3f, rng), 0x1.3c49d8p+2f);
  EXPECT_EQ(lm.train_epoch(corpus, 12, 2e-3f, rng), 0x1.d4c044p+1f);
  util::Archive ar;
  lm.save(ar);
  EXPECT_EQ(util::fnv1a64(ar.take()), 0x223c50baa48cecc2ULL);
  const ByteBuf ctx(corpus[0].begin(), corpus[0].begin() + 100);
  EXPECT_EQ(util::fnv1a64(lm.generate(4096, rng, ctx)), 0xf1cc673a94ec2710ULL);
}

TEST(GruLmThreads, SharedConstModelSamplesAsSequential) {
  GruLm trained(GruLmConfig{}, 67);
  util::Rng train_rng(71);
  trained.train_epoch(small_corpus(), 4, 5e-3f, train_rng);
  const GruLm& lm = trained;
  const ByteBuf ctx = util::Rng(73).bytes(80);
  const auto sample = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    return lm.generate(3000, rng, ctx);
  };
  const ByteBuf seq1 = sample(1), seq2 = sample(2);
  ByteBuf par1, par2;
  std::thread t1([&] { par1 = sample(1); });
  std::thread t2([&] { par2 = sample(2); });
  t1.join();
  t2.join();
  EXPECT_EQ(par1, seq1);
  EXPECT_EQ(par2, seq2);
  EXPECT_NE(seq1, seq2);
}

}  // namespace
}  // namespace mpass::ml
