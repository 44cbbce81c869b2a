// Differential tests for ByteConvNet's conv kernel against the scalar
// reference it replaced: a test-local copy of the original forward (one
// in-order `s = b[f]; s += w[f*window + i] * win[i]` reduction per filter)
// and of backward's input-gradient path. forward() scores and backward()
// input gradients must match it *bitwise* (memcmp) for every variant and
// for filter counts that exercise every block shape of the filter-wide
// kernel and its scalar tail, including after a weight update (which must
// repack the window-major weights) and in a copy-constructed clone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "ml/byteconv.hpp"
#include "util/rng.hpp"

namespace mpass::ml {
namespace {

using util::ByteBuf;

float ref_sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// The scalar forward/backward, reading the weights of `net` (ParamSet
/// order: emb wa ba wb bb wg bg w1 b1 w2 b2).
class ScalarReference {
 public:
  explicit ScalarReference(ByteConvNet& net) : cfg_(net.config()) {
    for (const Param* p : net.params().all()) w_.push_back(&p->w);
  }

  float forward(const ByteBuf& bytes) {
    const int d = cfg_.embed_dim, F = cfg_.filters, W = cfg_.width;
    const std::size_t n = std::min(bytes.size(), cfg_.max_len);
    const std::size_t n_tok = std::max<std::size_t>(n, W);
    x_.resize(n_tok * d);
    for (std::size_t t = 0; t < n_tok; ++t) {
      const int tok = t < n ? bytes[t] : 256;
      std::copy_n(emb().data() + tok * d, d, x_.data() + t * d);
    }
    T_ = n_tok < static_cast<std::size_t>(W) ? 0 : (n_tok - W) / cfg_.stride + 1;
    a_.assign(T_ * F, 0.0f);
    b_.assign(T_ * F, 0.0f);
    h_.assign(T_ * F, 0.0f);
    const int window = W * d;
    for (std::size_t p = 0; p < T_; ++p) {
      const float* win = x_.data() + p * cfg_.stride * d;
      for (int f = 0; f < F; ++f) {
        const float* wra = wa().data() + static_cast<std::size_t>(f) * window;
        const float* wrb = wb().data() + static_cast<std::size_t>(f) * window;
        float sa = ba()[f];
        float sb = bb()[f];
        for (int i = 0; i < window; ++i) {
          sa += wra[i] * win[i];
          sb += wrb[i] * win[i];
        }
        a_[p * F + f] = sa;
        b_[p * F + f] = sb;
      }
      for (int f = 0; f < F; ++f) {
        const float a = a_[p * F + f];
        h_[p * F + f] =
            cfg_.gated ? a * ref_sigmoid(b_[p * F + f]) : std::max(0.0f, a);
      }
    }

    gate_.assign(F, 1.0f);
    ctx_.assign(F, 0.0f);
    if (cfg_.channel_gating && T_ > 0) {
      for (std::size_t p = 0; p < T_; ++p)
        for (int f = 0; f < F; ++f) ctx_[f] += h_[p * F + f];
      for (int f = 0; f < F; ++f) ctx_[f] /= static_cast<float>(T_);
      for (int f = 0; f < F; ++f) {
        float s = bg()[f];
        for (int j = 0; j < F; ++j) s += wg()[f * F + j] * ctx_[j];
        gate_[f] = ref_sigmoid(s);
      }
    }
    pooled_.assign(F, 0.0f);
    argmax_.assign(F, -1);
    for (int f = 0; f < F; ++f) {
      float best = -1e30f;
      int bi = -1;
      for (std::size_t p = 0; p < T_; ++p) {
        const float v = h_[p * F + f] * gate_[f];
        if (v > best) {
          best = v;
          bi = static_cast<int>(p);
        }
      }
      pooled_[f] = T_ > 0 ? best : 0.0f;
      argmax_[f] = bi;
    }

    const int H = cfg_.hidden;
    u_.assign(H, 0.0f);
    for (int i = 0; i < H; ++i) {
      float s = b1()[i];
      for (int f = 0; f < F; ++f) s += w1()[i * F + f] * pooled_[f];
      u_[i] = std::max(0.0f, s);
    }
    float z = b2()[0];
    for (int i = 0; i < H; ++i) z += w2()[i] * u_[i];
    prob_ = ref_sigmoid(z);
    return prob_;
  }

  /// dLoss/dEmbedding of BCE(prob, target) for the last forward().
  std::vector<float> input_grad(float target, float tau) const {
    const int d = cfg_.embed_dim, F = cfg_.filters, H = cfg_.hidden;
    const float dz = prob_ - target;
    std::vector<float> du(H);
    for (int i = 0; i < H; ++i) du[i] = u_[i] > 0.0f ? dz * w2()[i] : 0.0f;
    std::vector<float> dpool(F, 0.0f);
    for (int i = 0; i < H; ++i)
      for (int f = 0; f < F; ++f) dpool[f] += du[i] * w1()[i * F + f];

    std::vector<float> dh(T_ * F, 0.0f), dgate(F, 0.0f);
    if (tau > 0.0f && T_ > 0) {
      const float inv_tau = 1.0f / tau;
      for (int f = 0; f < F; ++f) {
        const float peak = pooled_[f];
        float z = 0.0f;
        for (std::size_t p = 0; p < T_; ++p)
          z += std::exp((h_[p * F + f] * gate_[f] - peak) * inv_tau);
        if (z <= 0.0f) continue;
        for (std::size_t p = 0; p < T_; ++p) {
          const float w =
              std::exp((h_[p * F + f] * gate_[f] - peak) * inv_tau) / z;
          dh[p * F + f] += dpool[f] * gate_[f] * w;
          dgate[f] += dpool[f] * h_[p * F + f] * w;
        }
      }
    } else {
      for (int f = 0; f < F; ++f) {
        if (argmax_[f] < 0) continue;
        const std::size_t p = static_cast<std::size_t>(argmax_[f]);
        dh[p * F + f] += dpool[f] * gate_[f];
        dgate[f] += dpool[f] * h_[p * F + f];
      }
    }
    if (cfg_.channel_gating && T_ > 0) {
      std::vector<float> dpre(F), dctx(F, 0.0f);
      for (int f = 0; f < F; ++f)
        dpre[f] = dgate[f] * gate_[f] * (1.0f - gate_[f]);
      for (int f = 0; f < F; ++f)
        for (int j = 0; j < F; ++j) dctx[j] += dpre[f] * wg()[f * F + j];
      const float inv_t = 1.0f / static_cast<float>(T_);
      for (std::size_t p = 0; p < T_; ++p)
        for (int f = 0; f < F; ++f) dh[p * F + f] += dctx[f] * inv_t;
    }

    std::vector<float> dx(x_.size(), 0.0f);
    const int window = cfg_.width * d;
    for (std::size_t p = 0; p < T_; ++p) {
      float* dwin = dx.data() + p * cfg_.stride * d;
      for (int f = 0; f < F; ++f) {
        const float g = dh[p * F + f];
        if (g == 0.0f) continue;
        const float a = a_[p * F + f];
        float da, db;
        if (cfg_.gated) {
          const float sb = ref_sigmoid(b_[p * F + f]);
          da = g * sb;
          db = g * a * sb * (1.0f - sb);
        } else {
          da = a > 0.0f ? g : 0.0f;
          db = 0.0f;
        }
        const float* wra = wa().data() + static_cast<std::size_t>(f) * window;
        const float* wrb = wb().data() + static_cast<std::size_t>(f) * window;
        for (int i = 0; i < window; ++i) {
          dwin[i] += da * wra[i];
          if (cfg_.gated) dwin[i] += db * wrb[i];
        }
      }
    }
    return dx;
  }

 private:
  const std::vector<float>& emb() const { return *w_[0]; }
  const std::vector<float>& wa() const { return *w_[1]; }
  const std::vector<float>& ba() const { return *w_[2]; }
  const std::vector<float>& wb() const { return *w_[3]; }
  const std::vector<float>& bb() const { return *w_[4]; }
  const std::vector<float>& wg() const { return *w_[5]; }
  const std::vector<float>& bg() const { return *w_[6]; }
  const std::vector<float>& w1() const { return *w_[7]; }
  const std::vector<float>& b1() const { return *w_[8]; }
  const std::vector<float>& w2() const { return *w_[9]; }
  const std::vector<float>& b2() const { return *w_[10]; }

  ByteConvConfig cfg_;
  std::vector<const std::vector<float>*> w_;
  std::size_t T_ = 0;
  std::vector<float> x_, a_, b_, h_, ctx_, gate_, pooled_, u_;
  std::vector<int> argmax_;
  float prob_ = 0.5f;
};

bool bitwise_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Every variant at every filter count: 3 (scalar tail only), 8 (two
/// 4-lane blocks), 16 (one 4x4 block), 20 (4x4 + 4), 24 (4x4 + 4 + 4).
std::vector<ByteConvConfig> kernel_configs() {
  std::vector<ByteConvConfig> out;
  for (const int filters : {3, 8, 16, 20, 24}) {
    ByteConvConfig base;
    base.max_len = 1024;
    base.embed_dim = 4;
    base.filters = filters;
    base.width = 16;
    base.stride = 8;
    base.hidden = 6;
    out.push_back(base);
    ByteConvConfig relu = base;
    relu.gated = false;
    out.push_back(relu);
    ByteConvConfig gcg = base;
    gcg.channel_gating = true;
    out.push_back(gcg);
    ByteConvConfig nonneg = base;
    nonneg.nonneg = true;
    out.push_back(nonneg);
  }
  return out;
}

std::string describe(const ByteConvConfig& cfg) {
  return "F=" + std::to_string(cfg.filters) + (cfg.gated ? " gated" : " relu") +
         (cfg.channel_gating ? " gcg" : "") + (cfg.nonneg ? " nonneg" : "");
}

/// Scores `buf` with both, then compares score and input gradients (hard
/// max pool and the optimizer's soft pool).
void expect_matches(ByteConvNet& net, ScalarReference& ref, const ByteBuf& buf,
                    const std::string& what) {
  const float p = net.forward(buf);
  EXPECT_TRUE(bitwise_equal(p, ref.forward(buf)))
      << what << ": score " << p << " vs reference";
  for (const float tau : {0.0f, 0.5f}) {
    std::vector<float> g;
    net.backward(/*target=*/0.0f, &g, /*accumulate_params=*/false, tau);
    EXPECT_TRUE(bitwise_equal(g, ref.input_grad(0.0f, tau)))
        << what << ": input gradient, tau " << tau;
  }
}

TEST(ByteConvKernel, MatchesScalarReferenceAllVariantsAndFilterCounts) {
  for (const ByteConvConfig& cfg : kernel_configs()) {
    ByteConvNet net(cfg, 101 + cfg.filters);
    ScalarReference ref(net);
    util::Rng rng(7);
    for (const std::size_t size :
         {std::size_t{5}, std::size_t{16}, std::size_t{300}, cfg.max_len + 64}) {
      ByteBuf buf = rng.bytes(size);
      expect_matches(net, ref, buf, describe(cfg) + " full");
      // A small edit: forward() takes the delta path through the same
      // kernel.
      buf[rng.below(buf.size())] ^= 0x5A;
      expect_matches(net, ref, buf, describe(cfg) + " delta");
    }
  }
}

TEST(ByteConvKernel, WeightUpdateRepacksAndCloneMatches) {
  for (const ByteConvConfig& cfg : kernel_configs()) {
    ByteConvNet net(cfg, 211 + cfg.filters);
    ScalarReference ref(net);
    util::Rng rng(13);
    const ByteBuf buf = rng.bytes(700);
    expect_matches(net, ref, buf, describe(cfg) + " before update");

    // Poke conv weights and biases directly (ParamSet contract: bump the
    // version afterwards). The packed copy must follow.
    for (Param* p : net.params().all())
      if (p->name == "wa" || p->name == "wb" || p->name == "ba" ||
          p->name == "bb")
        for (float& w : p->w) w += 0.01f * static_cast<float>(rng.gaussian());
    net.params().bump_version();
    expect_matches(net, ref, buf, describe(cfg) + " after bump_version");

    // An Adam step moves every weight and bumps the version itself.
    net.params().zero_grad();
    net.forward(buf);
    net.backward(/*target=*/1.0f);
    Adam(net.params(), 1e-2f).step();
    net.clamp_nonneg();
    expect_matches(net, ref, buf, describe(cfg) + " after Adam step");

    // A clone packs its own copy of the weights.
    ByteConvNet clone(net);
    ScalarReference clone_ref(clone);
    expect_matches(clone, clone_ref, buf, describe(cfg) + " clone");
    ByteBuf edited = buf;
    edited[123] ^= 0xFF;
    expect_matches(clone, clone_ref, edited, describe(cfg) + " clone delta");
  }
}

}  // namespace
}  // namespace mpass::ml
