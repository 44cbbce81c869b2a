// Unit tests for util: RNG, byte IO, entropy, hashing, stats, tables,
// numeric environment knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>

#include "util/bytes.hpp"
#include "util/entropy.hpp"
#include "util/env.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace mpass::util {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    // Different seeds should diverge almost surely.
  }
  bool diverged = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i)
    if (a2() != c()) diverged = true;
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all buckets hit
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(17);
  const double w[] = {0.0, 1.0, 3.0};
  int counts[3] = {};
  for (int i = 0; i < 9000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1] * 2);
  EXPECT_LT(counts[2], counts[1] * 4);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(Rng, ForkDecorrelates) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

// ---- bytes -----------------------------------------------------------------

TEST(Bytes, ReaderScalarsLittleEndian) {
  const ByteBuf data = {0x01, 0x02, 0x03, 0x04, 0xFF};
  ByteReader r(data);
  EXPECT_EQ(r.u16(), 0x0201u);
  EXPECT_EQ(r.u16(), 0x0403u);
  EXPECT_EQ(r.u8(), 0xFFu);
  EXPECT_TRUE(r.eof());
}

TEST(Bytes, ReaderThrowsPastEnd) {
  const ByteBuf data = {0x01};
  ByteReader r(data);
  EXPECT_THROW(r.u32(), ParseError);
}

TEST(Bytes, WriterRoundTrip) {
  ByteWriter w;
  w.u32(0xDEADBEEF);
  w.fixed_string("hi", 4);
  w.align_to(8);
  const ByteBuf buf = w.take();
  EXPECT_EQ(buf.size(), 8u);
  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.fixed_string(4), "hi");
}

TEST(Bytes, WriterPatch) {
  ByteWriter w;
  w.u32(0);
  w.u32(7);
  w.patch<std::uint32_t>(0, 99);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.u32(), 99u);
  EXPECT_EQ(r.u32(), 7u);
}

TEST(Bytes, AlignUp) {
  EXPECT_EQ(align_up(0, 512), 0u);
  EXPECT_EQ(align_up(1, 512), 512u);
  EXPECT_EQ(align_up(512, 512), 512u);
  EXPECT_EQ(align_up(513, 512), 1024u);
  EXPECT_EQ(align_up(7, 0), 7u);
}

TEST(Bytes, ToHex) {
  const ByteBuf b = {0x00, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(b), "00abff");
}

// ---- entropy ----------------------------------------------------------------

/// Archives `xs` with `put`, checks that `get` reads them back, then sets
/// the entry count to 2^32-1 and expects a ParseError, not an allocation.
template <typename T, typename Put, typename Get>
void expect_corrupt_count_rejected(const std::vector<T>& xs, Put put,
                                   Get get) {
  Archive ar;
  put(ar, xs);
  ByteBuf blob = ar.take();
  {
    Unarchive un(blob);
    EXPECT_EQ(get(un), xs);
  }
  std::fill_n(blob.begin(), 4, 0xFF);
  Unarchive un(blob);
  EXPECT_THROW(get(un), ParseError);
}

TEST(Archive, CorruptFloatCountIsAParseError) {
  expect_corrupt_count_rejected(
      std::vector<float>{1.5f, -2.0f},
      [](Archive& ar, const std::vector<float>& v) { ar.floats(v); },
      [](Unarchive& un) { return un.floats(); });
}

TEST(Archive, CorruptDoubleCountIsAParseError) {
  expect_corrupt_count_rejected(
      std::vector<double>{0.25, 3.0},
      [](Archive& ar, const std::vector<double>& v) { ar.doubles(v); },
      [](Unarchive& un) { return un.doubles(); });
}

TEST(Entropy, UniformBytesNearEight) {
  ByteBuf data(256 * 64);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i % 256);
  EXPECT_NEAR(shannon_entropy(data), 8.0, 1e-9);
}

TEST(Entropy, ConstantBytesZero) {
  const ByteBuf data(1024, 0x41);
  EXPECT_DOUBLE_EQ(shannon_entropy(data), 0.0);
  EXPECT_DOUBLE_EQ(shannon_entropy({}), 0.0);
}

TEST(Entropy, RandomBytesHigh) {
  Rng rng(3);
  EXPECT_GT(shannon_entropy(rng.bytes(8192)), 7.9);
}

TEST(Entropy, ByteEntropyHistogramNormalized) {
  Rng rng(4);
  const auto hist = byte_entropy_histogram(rng.bytes(4096), 256);
  float sum = 0;
  for (float v : hist) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(Entropy, PrintableRatio) {
  EXPECT_DOUBLE_EQ(printable_ratio(as_bytes("hello")), 1.0);
  const ByteBuf data = {0x00, 'a', 0x01, 'b'};
  EXPECT_DOUBLE_EQ(printable_ratio(data), 0.5);
}

// ---- hashing ----------------------------------------------------------------

TEST(Hashing, Fnv1aKnownVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(fnv1a64(std::string_view("")), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64(std::string_view("a")), fnv1a64(std::string_view("b")));
}

TEST(Hashing, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (classic check value).
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
}

TEST(Hashing, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(hash_combine(1, 2), 3),
            hash_combine(hash_combine(1, 3), 2));
}

// ---- stats -------------------------------------------------------------------

TEST(Stats, MeanStd) {
  const double xs[] = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, ConfusionAndRates) {
  const double scores[] = {0.9, 0.8, 0.2, 0.1};
  const int labels[] = {1, 0, 1, 0};
  const Confusion c = confusion_at(scores, labels, 0.5);
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.5);
}

TEST(Stats, ThresholdForFprRespectsBudget) {
  // 10 negatives scored 0.0..0.9, 5 positives at 0.95.
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 10; ++i) {
    scores.push_back(i / 10.0);
    labels.push_back(0);
  }
  for (int i = 0; i < 5; ++i) {
    scores.push_back(0.95);
    labels.push_back(1);
  }
  const double thr = threshold_for_fpr(scores, labels, 0.1);
  const Confusion c = confusion_at(scores, labels, thr);
  EXPECT_LE(c.fpr(), 0.1);
  EXPECT_DOUBLE_EQ(c.tpr(), 1.0);
}

TEST(Stats, AucPerfectAndRandom) {
  const double s1[] = {0.9, 0.8, 0.2, 0.1};
  const int l1[] = {1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(auc(s1, l1), 1.0);
  const int l2[] = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(auc(s1, l2), 0.0);
  const double s3[] = {0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(auc(s3, l1), 0.5);  // ties get half credit
}

// ---- table -------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.header({"a", "long-column"});
  t.row({"x", "1"});
  t.row({"yy", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("long-column"), std::string::npos);
  EXPECT_NE(out.find("| yy"), std::string::npos);
}

TEST(Table, NumFormatsDecimals) {
  EXPECT_EQ(Table::num(1.25, 1), "1.2");
  EXPECT_EQ(Table::num(98.6), "98.6");
}

// ---- environment knobs ---------------------------------------------------------

/// Sets (or, with nullptr, unsets) one environment variable for a scope and
/// restores its previous state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* v = std::getenv(name)) prev_ = v;
    set(value);
  }
  ~ScopedEnv() { set(prev_ ? prev_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* value) {
    if (value) ::setenv(name_, value, 1);
    else ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> prev_;
};

TEST(Env, U64AcceptsOnlyDecimalDigits) {
  ScopedEnv env("MPASS_TEST_KNOB", nullptr);
  EXPECT_EQ(env_u64("MPASS_TEST_KNOB", 7), 7u);
  for (const char* bad : {"-1", "abc", "12x", " 5", "+5", "1e3", "0x10",
                          "18446744073709551616", "99999999999999999999999"}) {
    env.set(bad);
    EXPECT_EQ(env_u64("MPASS_TEST_KNOB", 7), 7u) << bad;
  }
  env.set("");
  EXPECT_EQ(env_u64("MPASS_TEST_KNOB", 7), 7u);
  env.set("0");
  EXPECT_EQ(env_u64("MPASS_TEST_KNOB", 7), 0u);
  env.set("42");
  EXPECT_EQ(env_u64("MPASS_TEST_KNOB", 7), 42u);
  env.set("18446744073709551615");
  EXPECT_EQ(env_u64("MPASS_TEST_KNOB", 7), 18446744073709551615u);
}

TEST(Env, F64AcceptsOnlyWholeFiniteNumbers) {
  for (const char* bad : {"", "abc", "0.2x", " 1", "+1", "inf", "nan", "1e999"})
    EXPECT_FALSE(parse_f64(bad).has_value()) << bad;
  EXPECT_EQ(parse_f64("0.20"), 0.20);
  EXPECT_EQ(parse_f64("10"), 10.0);
  EXPECT_EQ(parse_f64("-2.5e1"), -25.0);
}

// env_threads() only computes the size; no pool is built with it here.
TEST(Env, ThreadsFallsBackOnBadValuesAndIsCapped) {
  ScopedEnv env("MPASS_THREADS", nullptr);
  const std::size_t fallback = ThreadPool::env_threads();
  EXPECT_GE(fallback, 1u);
  for (const char* bad : {"-1", "abc", "0", "99999999999999999999999"}) {
    env.set(bad);
    EXPECT_EQ(ThreadPool::env_threads(), fallback) << bad;
  }
  env.set("1000000");
  EXPECT_EQ(ThreadPool::env_threads(), ThreadPool::kMaxEnvThreads);
  env.set("3");
  EXPECT_EQ(ThreadPool::env_threads(), 3u);
}

}  // namespace
}  // namespace mpass::util
