// Differential tests for ByteConvNet's incremental forward: forward() on a
// warm cache must agree with the full convolution *bitwise* (EXPECT_EQ on
// floats, no tolerance) -- window-straddling edits, truncation-boundary
// edits at max_len, unchanged buffers served from the cache, whole-buffer
// rewrites, cache invalidation on weight updates, and training traffic.
// The reference is a net whose cache is dropped before every score.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ml/byteconv.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace mpass::ml {
namespace {

using util::ByteBuf;

ByteConvConfig small_config() {
  ByteConvConfig cfg;
  cfg.max_len = 1024;
  cfg.embed_dim = 4;
  cfg.filters = 8;
  cfg.width = 16;
  cfg.stride = 8;
  cfg.hidden = 6;
  return cfg;
}

std::vector<ByteConvConfig> all_variants() {
  std::vector<ByteConvConfig> out;
  ByteConvConfig gated = small_config();
  out.push_back(gated);
  ByteConvConfig relu = small_config();
  relu.gated = false;
  out.push_back(relu);
  ByteConvConfig gcg = small_config();
  gcg.channel_gating = true;
  out.push_back(gcg);
  ByteConvConfig nonneg = small_config();
  nonneg.nonneg = true;
  out.push_back(nonneg);
  return out;
}

/// The full convolution: `ref` forgets its cache before scoring.
float full(ByteConvNet& ref, const ByteBuf& buf) {
  ref.invalidate_cache();
  return ref.forward(buf);
}

/// How many forwards so far took each path: the summed counts of the span
/// rows ending in that path's span, ml.byteconv.forward (full),
/// ml.forward_delta (delta) or ml.forward_cached (cached).
std::uint64_t served(const std::string& path) {
  const std::string span = path == "full"    ? "ml.byteconv.forward"
                           : path == "delta" ? "ml.forward_delta"
                                             : "ml.forward_cached";
  std::uint64_t n = 0;
  for (const obs::SpanRow& r : obs::span_snapshot())
    if (r.path == span || r.path.ends_with("/" + span)) n += r.count;
  return n;
}

TEST(ByteConvIncremental, RandomWindowEditsBitwiseEqualAllVariants) {
  for (const ByteConvConfig& cfg : all_variants()) {
    ByteConvNet inc(cfg, 11);
    ByteConvNet ref(inc);

    util::Rng rng(42);
    // Sizes around every boundary: empty, < width, == width, < max_len,
    // == max_len, and > max_len (truncation).
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{7}, std::size_t{16}, std::size_t{300},
          cfg.max_len, cfg.max_len + 512}) {
      ByteBuf buf = rng.bytes(size);
      EXPECT_EQ(inc.forward(buf), full(ref, buf)) << "size " << size;
      if (size == 0) continue;
      for (int i = 0; i < 20; ++i) {
        const std::size_t pos = rng.below(buf.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.below(48), buf.size() - pos);
        for (std::size_t j = 0; j < len; ++j) buf[pos + j] = rng.byte();
        EXPECT_EQ(inc.forward(buf), full(ref, buf))
            << "size " << size << " edit [" << pos << "," << pos + len << ")";
      }
    }
  }
}

TEST(ByteConvIncremental, WindowStraddlingAndTruncationBoundary) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 3);
  ByteConvNet ref(inc);
  util::Rng rng(9);
  ByteBuf buf = rng.bytes(cfg.max_len + 256);

  EXPECT_EQ(inc.forward(buf), full(ref, buf));
  const std::size_t W = static_cast<std::size_t>(cfg.width);
  // Edits placed to straddle conv-window and stride boundaries, plus edits
  // straddling and entirely past the max_len truncation point.
  const std::size_t spots[] = {0,
                               W - 1,
                               W,
                               W + 1,
                               5 * W - 2,
                               cfg.max_len - W / 2,   // straddles truncation
                               cfg.max_len,           // entirely truncated
                               cfg.max_len + 100};
  for (const std::size_t pos : spots) {
    const float before = full(ref, buf);
    const std::size_t len = std::min<std::size_t>(W, buf.size() - pos);
    for (std::size_t j = 0; j < len; ++j) buf[pos + j] = rng.byte();
    const float f = full(ref, buf);
    EXPECT_EQ(inc.forward(buf), f) << "edit at " << pos;
    if (pos >= cfg.max_len) {
      EXPECT_EQ(f, before) << "truncated edit at " << pos;
    }
  }
}

TEST(ByteConvIncremental, EmptyAndNoopDeltas) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 5);
  ByteConvNet ref(inc);
  util::Rng rng(17);
  const ByteBuf buf = rng.bytes(700);

  const float base = full(ref, buf);
  EXPECT_EQ(inc.forward(buf), base);
  // An unchanged buffer -- the same one again, or a copy holding the same
  // bytes -- is served from the cache: no convolution at all.
  const std::uint64_t full0 = served("full");
  const std::uint64_t delta0 = served("delta");
  const std::uint64_t cached0 = served("cached");
  EXPECT_EQ(inc.forward(buf), base);
  const ByteBuf copy = buf;
  EXPECT_EQ(inc.forward(copy), base);
  EXPECT_EQ(served("full"), full0);
  EXPECT_EQ(served("delta"), delta0);
  EXPECT_EQ(served("cached"), cached0 + 2);
}

TEST(ByteConvIncremental, WholeBufferDirtyFallsBackToFull) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 5);
  ByteConvNet ref(inc);
  util::Rng rng(23);
  ByteBuf buf = rng.bytes(800);
  EXPECT_EQ(inc.forward(buf), full(ref, buf));
  for (auto& x : buf) x = rng.byte();
  const float f = full(ref, buf);
  const std::uint64_t full0 = served("full");
  const std::uint64_t delta0 = served("delta");
  EXPECT_EQ(inc.forward(buf), f);
  EXPECT_EQ(served("full"), full0 + 1);
  EXPECT_EQ(served("delta"), delta0);
}

TEST(ByteConvIncremental, CumulativeChainedDeltas) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 29);
  ByteConvNet ref(inc);
  util::Rng rng(31);
  ByteBuf buf = rng.bytes(900);
  EXPECT_EQ(inc.forward(buf), full(ref, buf));
  // Long chains of deltas must not drift: each step reconvolves only its
  // own windows yet the state stays bitwise equal to from-scratch forwards.
  const std::uint64_t delta0 = served("delta");
  for (int i = 0; i < 200; ++i) {
    const std::size_t pos = rng.below(buf.size());
    buf[pos] = rng.byte();
    EXPECT_EQ(inc.forward(buf), full(ref, buf)) << "edit " << i;
  }
  EXPECT_GT(served("delta"), delta0);
}

TEST(ByteConvIncremental, ParamUpdateInvalidatesCache) {
  const ByteConvConfig cfg = small_config();
  ByteConvNet inc(cfg, 37);
  ByteConvNet ref(inc);
  util::Rng rng(41);
  const ByteBuf buf = rng.bytes(600);
  EXPECT_EQ(inc.forward(buf), full(ref, buf));

  // An Adam step moves the weights of both nets identically; the cached
  // activations are stale and must not be served.
  auto train_step = [&](ByteConvNet& net) {
    net.params().zero_grad();
    net.forward(buf);
    net.backward(/*target=*/1.0f, nullptr, /*accumulate_params=*/true);
    Adam opt(net.params(), 1e-2f);
    opt.step();
  };
  train_step(inc);
  train_step(ref);
  EXPECT_EQ(inc.forward(buf), full(ref, buf))
      << "stale cache served after a weight update";
}

TEST(ByteConvIncremental, TrainingTrafficMatchesColdForward) {
  // Training scores a shuffled stream of distinct samples and updates the
  // weights every few of them. Same-length samples that share a header
  // take the delta path between updates; scores and input gradients must
  // equal a cold copy's full forward at every call.
  for (const ByteConvConfig& cfg : all_variants()) {
    ByteConvNet net(cfg, 67);
    Adam opt(net.params(), 1e-2f);
    util::Rng rng(71);
    const ByteBuf header = rng.bytes(600);
    std::vector<ByteBuf> samples;
    for (int i = 0; i < 12; ++i) {
      ByteBuf s = header;
      const ByteBuf tail = rng.bytes(200);
      s.insert(s.end(), tail.begin(), tail.end());
      samples.push_back(std::move(s));
    }

    const std::uint64_t delta0 = served("delta");
    int calls = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
      rng.shuffle(samples);
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const float target = static_cast<float>(i % 2);
        ByteConvNet cold(net);
        const float p = net.forward(samples[i]);
        EXPECT_EQ(p, cold.forward(samples[i]))
            << "epoch " << epoch << " sample " << i;
        std::vector<float> g, g_cold;
        net.backward(target, &g, /*accumulate_params=*/false);
        cold.backward(target, &g_cold, /*accumulate_params=*/false);
        EXPECT_EQ(g, g_cold) << "epoch " << epoch << " sample " << i;
        net.backward(target);
        if (++calls % 3 == 0) {
          opt.step();
          net.clamp_nonneg();
        }
      }
    }
    EXPECT_GT(served("delta"), delta0);
  }
}

}  // namespace
}  // namespace mpass::ml
