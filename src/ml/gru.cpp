#include "ml/gru.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "ml/lanes.hpp"
#include "obs/span.hpp"

namespace mpass::ml {

namespace {
inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// y += A^T * x  (A is rows x cols; x has rows elems; y has cols elems)
void matvec_t_acc(std::span<const float> a, std::span<const float> x,
                  std::span<float> y, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float xi = x[static_cast<std::size_t>(i)];
    if (xi == 0.0f) continue;
    const float* row = a.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) y[static_cast<std::size_t>(j)] += xi * row[j];
  }
}

/// G += x_outer: G(rows x cols) += d (rows) * v (cols)^T
void outer_acc(std::span<float> g, std::span<const float> d,
               std::span<const float> v, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float di = d[static_cast<std::size_t>(i)];
    if (di == 0.0f) continue;
    float* row = g.data() + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) row[j] += di * v[static_cast<std::size_t>(j)];
  }
}
}  // namespace

struct GruLm::StepCache {
  int token = 0;
  std::vector<float> x, h_prev, z, r, n, un_h;
};

GruLm::GruLm(const GruLmConfig& cfg, std::uint64_t seed) : cfg_(cfg) {
  const int E = cfg_.embed, H = cfg_.hidden, V = cfg_.vocab;
  emb_ = &params_.create("emb", static_cast<std::size_t>(V) * E);
  wz_ = &params_.create("wz", static_cast<std::size_t>(H) * E);
  uz_ = &params_.create("uz", static_cast<std::size_t>(H) * H);
  bz_ = &params_.create("bz", H);
  wr_ = &params_.create("wr", static_cast<std::size_t>(H) * E);
  ur_ = &params_.create("ur", static_cast<std::size_t>(H) * H);
  br_ = &params_.create("br", H);
  wn_ = &params_.create("wn", static_cast<std::size_t>(H) * E);
  un_ = &params_.create("un", static_cast<std::size_t>(H) * H);
  bn_ = &params_.create("bn", H);
  wo_ = &params_.create("wo", static_cast<std::size_t>(V) * H);
  bo_ = &params_.create("bo", V);

  util::Rng rng(seed);
  auto init = [&](Param& p, float scale) {
    for (float& w : p.w) w = static_cast<float>(rng.gaussian(0.0, scale));
  };
  init(*emb_, 0.2f);
  const float se = 1.0f / std::sqrt(static_cast<float>(E));
  const float sh = 1.0f / std::sqrt(static_cast<float>(H));
  for (Param* p : {wz_, wr_, wn_}) init(*p, se);
  for (Param* p : {uz_, ur_, un_}) init(*p, sh);
  init(*wo_, sh);
  opt_ = std::make_unique<Adam>(params_, 2e-3f);
}

GruLm::Packed GruLm::pack() const {
  const std::size_t E = static_cast<std::size_t>(cfg_.embed);
  const std::size_t H = static_cast<std::size_t>(cfg_.hidden);
  const std::size_t V = static_cast<std::size_t>(cfg_.vocab);
  const std::size_t G = 3 * H;
  Packed pk;
  // Gate g's row j of W (H x E) / U (H x H) becomes lane g*H + j.
  const auto transpose_gates = [G, H](std::vector<float>& out,
                                      const Param* const (&gates)[3],
                                      std::size_t k) {
    out.resize(k * G);
    for (std::size_t g = 0; g < 3; ++g)
      for (std::size_t j = 0; j < H; ++j)
        for (std::size_t i = 0; i < k; ++i)
          out[i * G + g * H + j] = gates[g]->w[j * k + i];
  };
  transpose_gates(pk.wx, {wz_, wr_, wn_}, E);
  transpose_gates(pk.uh, {uz_, ur_, un_}, H);
  pk.wo.resize(H * V);
  for (std::size_t v = 0; v < V; ++v)
    for (std::size_t i = 0; i < H; ++i) pk.wo[i * V + v] = wo_->w[v * H + i];
  pk.zeros.assign(std::max(G, V), 0.0f);
  pk.sx.resize(G);
  pk.sh.resize(G);
  pk.z.resize(H);
  pk.r.resize(H);
  pk.n.resize(H);
  return pk;
}

void GruLm::step(Packed& pk, int token, std::span<float> h,
                 StepCache* cache) const {
  const int E = cfg_.embed, H = cfg_.hidden, G = 3 * H;
  const float* x = emb_->w.data() + static_cast<std::size_t>(token) * E;
  // Each lane is one gate row's reduction from 0.0f, the old per-row
  // `s += w*x` loop; the biases join afterwards in the old order.
  lane_matvec(pk.wx.data(), G, x, E, pk.zeros.data(), pk.sx.data(), G);
  lane_matvec(pk.uh.data(), G, h.data(), H, pk.zeros.data(), pk.sh.data(), G);
  const float* sx = pk.sx.data();
  const float* sh = pk.sh.data();
  const float* un_h = sh + 2 * H;
  float* z = pk.z.data();
  float* r = pk.r.data();
  float* n = pk.n.data();
  for (int i = 0; i < H; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    z[i] = sigmoidf((bz_->w[k] + sx[i]) + sh[i]);
    r[i] = sigmoidf((br_->w[k] + sx[H + i]) + sh[H + i]);
    n[i] = std::tanh((bn_->w[k] + sx[2 * H + i]) + r[i] * un_h[i]);
  }

  if (cache) {
    cache->token = token;
    cache->x.assign(x, x + E);
    cache->h_prev.assign(h.begin(), h.end());
    cache->z.assign(z, z + H);
    cache->r.assign(r, r + H);
    cache->n.assign(n, n + H);
    cache->un_h.assign(un_h, un_h + H);
  }
  for (int i = 0; i < H; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    h[k] = (1.0f - z[i]) * n[i] + z[i] * h[k];
  }
}

void GruLm::output_probs(const Packed& pk, std::span<const float> h,
                         std::span<float> probs) const {
  const int H = cfg_.hidden, V = cfg_.vocab;
  lane_matvec(pk.wo.data(), V, h.data(), H, pk.zeros.data(), probs.data(), V);
  for (int i = 0; i < V; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    probs[k] = bo_->w[k] + probs[k];
  }
  const float mx = *std::max_element(probs.begin(), probs.end());
  float sum = 0.0f;
  for (float& l : probs) {
    l = std::exp(l - mx);
    sum += l;
  }
  for (float& l : probs) l /= sum;
}

float GruLm::train_epoch(const std::vector<util::ByteBuf>& corpus,
                         std::size_t windows, float lr, util::Rng& rng) {
  opt_->set_lr(lr);
  const int E = cfg_.embed, H = cfg_.hidden, V = cfg_.vocab;
  const int kStart = cfg_.vocab - 1;
  double total_loss = 0.0;
  std::size_t total_steps = 0;

  for (std::size_t w = 0; w < windows; ++w) {
    const util::ByteBuf& stream = rng.pick(corpus);
    if (stream.empty()) continue;
    const std::size_t len =
        std::min<std::size_t>(static_cast<std::size_t>(cfg_.bptt),
                              stream.size());
    const std::size_t start =
        stream.size() > len ? rng.below(stream.size() - len + 1) : 0;

    // Forward with caches, over this window's weights.
    Packed pk = pack();
    std::vector<StepCache> caches(len);
    std::vector<std::vector<float>> probs(len);
    std::vector<std::vector<float>> hs(len + 1);
    hs[0].assign(static_cast<std::size_t>(H), 0.0f);
    int prev_token = kStart;
    for (std::size_t t = 0; t < len; ++t) {
      hs[t + 1] = hs[t];
      step(pk, prev_token, hs[t + 1], &caches[t]);
      probs[t].resize(static_cast<std::size_t>(V));
      output_probs(pk, hs[t + 1], probs[t]);
      const int target = stream[start + t];
      total_loss -= std::log(std::max(probs[t][static_cast<std::size_t>(target)],
                                      1e-9f));
      prev_token = target;
      ++total_steps;
    }

    // Backward through time.
    std::vector<float> dh(static_cast<std::size_t>(H), 0.0f);
    for (std::size_t t = len; t-- > 0;) {
      // Output head: dlogits = probs - onehot(target).
      std::vector<float> dlogits = probs[t];
      dlogits[stream[start + t]] -= 1.0f;
      outer_acc(wo_->g, dlogits, hs[t + 1], V, H);
      for (int i = 0; i < V; ++i)
        bo_->g[static_cast<std::size_t>(i)] += dlogits[static_cast<std::size_t>(i)];
      matvec_t_acc(wo_->w, dlogits, dh, V, H);

      // GRU cell backward.
      const StepCache& c = caches[t];
      std::vector<float> dz(static_cast<std::size_t>(H));
      std::vector<float> dn(static_cast<std::size_t>(H));
      std::vector<float> dh_prev(static_cast<std::size_t>(H), 0.0f);
      for (int i = 0; i < H; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        dz[k] = dh[k] * (c.h_prev[k] - c.n[k]);
        dn[k] = dh[k] * (1.0f - c.z[k]);
        dh_prev[k] = dh[k] * c.z[k];
      }
      std::vector<float> da_n(static_cast<std::size_t>(H));
      std::vector<float> dr(static_cast<std::size_t>(H));
      std::vector<float> du_n(static_cast<std::size_t>(H));
      for (int i = 0; i < H; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        da_n[k] = dn[k] * (1.0f - c.n[k] * c.n[k]);
        dr[k] = da_n[k] * c.un_h[k];
        du_n[k] = da_n[k] * c.r[k];
      }
      std::vector<float> da_z(static_cast<std::size_t>(H));
      std::vector<float> da_r(static_cast<std::size_t>(H));
      for (int i = 0; i < H; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        da_z[k] = dz[k] * c.z[k] * (1.0f - c.z[k]);
        da_r[k] = dr[k] * c.r[k] * (1.0f - c.r[k]);
      }

      std::vector<float> dx(static_cast<std::size_t>(E), 0.0f);
      outer_acc(wz_->g, da_z, c.x, H, E);
      outer_acc(uz_->g, da_z, c.h_prev, H, H);
      outer_acc(wr_->g, da_r, c.x, H, E);
      outer_acc(ur_->g, da_r, c.h_prev, H, H);
      outer_acc(wn_->g, da_n, c.x, H, E);
      outer_acc(un_->g, du_n, c.h_prev, H, H);
      for (int i = 0; i < H; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        bz_->g[k] += da_z[k];
        br_->g[k] += da_r[k];
        bn_->g[k] += da_n[k];
      }
      matvec_t_acc(wz_->w, da_z, dx, H, E);
      matvec_t_acc(wr_->w, da_r, dx, H, E);
      matvec_t_acc(wn_->w, da_n, dx, H, E);
      matvec_t_acc(uz_->w, da_z, dh_prev, H, H);
      matvec_t_acc(ur_->w, da_r, dh_prev, H, H);
      matvec_t_acc(un_->w, du_n, dh_prev, H, H);

      float* erow = emb_->g.data() + static_cast<std::size_t>(c.token) * E;
      for (int i = 0; i < E; ++i) erow[i] += dx[static_cast<std::size_t>(i)];

      dh = std::move(dh_prev);
    }
    opt_->step();
  }
  return total_steps ? static_cast<float>(total_loss / total_steps) : 0.0f;
}

util::ByteBuf GruLm::generate(std::size_t n, util::Rng& rng,
                              std::span<const std::uint8_t> context,
                              float temperature) const {
  OBS_SCOPE("ml.gru.generate");
  const int kStart = cfg_.vocab - 1;
  Packed pk = pack();
  std::vector<float> h(static_cast<std::size_t>(cfg_.hidden), 0.0f);
  std::vector<float> p(static_cast<std::size_t>(cfg_.vocab));
  std::vector<double> weights(256);
  step(pk, kStart, h);
  for (std::uint8_t b : context.subspan(
           context.size() > 64 ? context.size() - 64 : 0))
    step(pk, b, h);
  util::ByteBuf out;
  out.reserve(n);
  const float inv_temp = 1.0f / std::max(temperature, 0.05f);
  for (std::size_t i = 0; i < n; ++i) {
    output_probs(pk, h, p);
    // Temperature re-shaping over the 256 byte values (exclude start token).
    for (int b = 0; b < 256; ++b)
      weights[static_cast<std::size_t>(b)] =
          std::pow(static_cast<double>(p[static_cast<std::size_t>(b)]),
                   static_cast<double>(inv_temp));
    const int next = static_cast<int>(rng.weighted(weights));
    out.push_back(static_cast<std::uint8_t>(next));
    step(pk, next, h);
  }
  return out;
}

float GruLm::evaluate(std::span<const std::uint8_t> bytes) const {
  if (bytes.empty()) return 0.0f;
  const int kStart = cfg_.vocab - 1;
  Packed pk = pack();
  std::vector<float> h(static_cast<std::size_t>(cfg_.hidden), 0.0f);
  std::vector<float> p(static_cast<std::size_t>(cfg_.vocab));
  int prev = kStart;
  double loss = 0.0;
  for (std::uint8_t b : bytes) {
    step(pk, prev, h);
    output_probs(pk, h, p);
    loss -= std::log(std::max(p[b], 1e-9f));
    prev = b;
  }
  return static_cast<float>(loss / static_cast<double>(bytes.size()));
}

void GruLm::save(util::Archive& ar) const {
  ar.tag("grulm");
  ar.u32(static_cast<std::uint32_t>(cfg_.embed));
  ar.u32(static_cast<std::uint32_t>(cfg_.hidden));
  ar.u32(static_cast<std::uint32_t>(cfg_.vocab));
  ar.u32(static_cast<std::uint32_t>(cfg_.bptt));
  params_.save(ar);
}

void GruLm::load(util::Unarchive& ar) {
  ar.tag("grulm");
  GruLmConfig cfg;
  cfg.embed = static_cast<int>(ar.u32());
  cfg.hidden = static_cast<int>(ar.u32());
  cfg.vocab = static_cast<int>(ar.u32());
  cfg.bptt = static_cast<int>(ar.u32());
  if (cfg.embed != cfg_.embed || cfg.hidden != cfg_.hidden ||
      cfg.vocab != cfg_.vocab)
    throw util::ParseError("grulm: config mismatch");
  params_.load(ar);
}

}  // namespace mpass::ml
