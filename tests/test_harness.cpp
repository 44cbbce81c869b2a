// Tests for the experiment harness: metric computation, sample gating,
// cold/warm result-cache invariance, the traced cell record.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <unistd.h>

#include "harness/experiment.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace mpass::harness {
namespace {

using util::ByteBuf;

class SizeDetector : public detect::Detector {
 public:
  explicit SizeDetector(std::size_t threshold) : threshold_(threshold) {}
  std::string_view name() const override { return "size"; }
  double score(std::span<const std::uint8_t> bytes) const override {
    return bytes.size() < threshold_ ? 1.0 : 0.0;
  }
  std::unique_ptr<detect::Detector> clone() const override {
    return std::make_unique<SizeDetector>(*this);
  }
 private:
  std::size_t threshold_;
};

/// Files under this size are malicious to the Scripted cell's detector.
constexpr std::size_t kBenignSize = 1 << 16;

/// Scripted attack against SizeDetector(kBenignSize): queries the pristine
/// sample (flagged), then -- on samples whose last byte is 1 -- pads it to
/// kBenignSize (benign at query 2) and spends one more query, as MAB's
/// minimization does, so AVQ (2) and total queries (3) differ. The
/// outcome depends only on the sample bytes; `runs` is shared by clones.
class Scripted : public attack::Attack {
 public:
  std::string_view name() const override { return "scripted"; }
  attack::AttackResult run(std::span<const std::uint8_t> malware,
                           detect::HardLabelOracle& oracle,
                           std::uint64_t) override {
    ++*runs;
    attack::AttackResult r;
    r.adversarial.assign(malware.begin(), malware.end());
    oracle.query(r.adversarial);
    if (malware.back() == 1) {
      r.adversarial.resize(kBenignSize, 0);
      r.success = !oracle.query(r.adversarial);
      oracle.query(r.adversarial);
    }
    return r;
  }
  std::unique_ptr<attack::Attack> clone() const override {
    return std::make_unique<Scripted>(*this);
  }

  std::shared_ptr<std::atomic<int>> runs =
      std::make_shared<std::atomic<int>>(0);
};

/// Six samples; every other one ends in byte 1 and is Scripted's win. The
/// trailing byte lands in the overlay, so behavior is unchanged.
std::vector<ByteBuf> scripted_samples() {
  std::vector<ByteBuf> samples;
  for (int i = 0; i < 6; ++i) {
    samples.push_back(corpus::make_malware(8800 + i).bytes());
    samples.back().push_back(i % 2 == 0 ? 1 : 0);
    EXPECT_LT(samples.back().size(), kBenignSize);
  }
  return samples;
}

TEST(Harness, RunCellComputesMetrics) {
  const SizeDetector det(kBenignSize);
  Scripted atk;
  const std::vector<ByteBuf> samples = scripted_samples();
  ExperimentConfig cfg;
  cfg.max_queries = 10;
  cfg.use_cache = false;
  const CellStats stats = run_cell(atk, det, samples, samples, cfg);
  EXPECT_EQ(stats.n, 6u);
  EXPECT_EQ(stats.successes, 3u);
  EXPECT_DOUBLE_EQ(stats.asr, 50.0);
  // The first benign verdict is query 2; the trailing query counts only
  // in total_queries.
  EXPECT_DOUBLE_EQ(stats.avq, 2.0);
  EXPECT_EQ(stats.total_queries, 3u * 3u + 3u * 1u);
  // APR comes from the AE sizes: every win is padded to kBenignSize.
  double sum_apr = 0.0;
  for (const ByteBuf& s : samples)
    if (s.back() == 1) sum_apr += attack::apr_of(s.size(), kBenignSize);
  EXPECT_DOUBLE_EQ(stats.apr, 100.0 * sum_apr / 3.0);
  // Padding lands in the overlay, so functionality is preserved.
  EXPECT_DOUBLE_EQ(stats.functional, 100.0);
  EXPECT_EQ(stats.aes.size(), 3u);
  EXPECT_EQ(*atk.runs, 6);
}

/// Reports success although the oracle flagged its only query.
class ClaimsSuccess : public attack::Attack {
 public:
  std::string_view name() const override { return "claims-success"; }
  attack::AttackResult run(std::span<const std::uint8_t> malware,
                           detect::HardLabelOracle& oracle,
                           std::uint64_t) override {
    oracle.query(malware);
    return {true, ByteBuf(malware.begin(), malware.end())};
  }
  std::unique_ptr<attack::Attack> clone() const override {
    return std::make_unique<ClaimsSuccess>(*this);
  }
};

TEST(Harness, RunCellRejectsSuccessWithoutBenignVerdict) {
  // Counting such a sample would add 0 to AVQ and its APR to the mean.
  const SizeDetector det(kBenignSize);
  ClaimsSuccess atk;
  const std::vector<ByteBuf> samples = scripted_samples();
  ExperimentConfig cfg;
  cfg.max_queries = 10;
  cfg.use_cache = false;
  try {
    run_cell(atk, det, samples, samples, cfg);
    FAIL() << "run_cell accepted a success without a benign verdict";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("claims-success"), std::string::npos)
        << e.what();
  }
}

TEST(Harness, MakeAttackSetOnlyReturnsDetectedSamples) {
  const SizeDetector strict(1 << 20);  // flags everything under 1 MiB
  const detect::Detector* gate[] = {&strict};
  const auto samples = make_attack_set(gate, 5, 77);
  EXPECT_EQ(samples.size(), 5u);
  for (const ByteBuf& s : samples) EXPECT_TRUE(strict.is_malicious(s));

  const SizeDetector impossible(0);  // flags nothing
  const detect::Detector* gate2[] = {&impossible};
  EXPECT_TRUE(make_attack_set(gate2, 3, 77).empty());
}

/// Points util::cache_dir() at a fresh private directory for one test.
class PrivateCacheDir {
 public:
  PrivateCacheDir()
      : dir_(std::filesystem::temp_directory_path() /
             ("mpass_cache_warm_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    if (const char* v = std::getenv("MPASS_CACHE_DIR")) prev_ = v;
    ::setenv("MPASS_CACHE_DIR", dir_.c_str(), 1);
  }
  ~PrivateCacheDir() {
    if (prev_) ::setenv("MPASS_CACHE_DIR", prev_->c_str(), 1);
    else ::unsetenv("MPASS_CACHE_DIR");
    std::filesystem::remove_all(dir_);
  }
  PrivateCacheDir(const PrivateCacheDir&) = delete;
  PrivateCacheDir& operator=(const PrivateCacheDir&) = delete;

 private:
  std::filesystem::path dir_;
  std::optional<std::string> prev_;
};

TEST(Harness, CacheWarmRunEqualsColdRunWithoutAttacking) {
  const PrivateCacheDir private_dir;
  const SizeDetector det(kBenignSize);
  Scripted atk;
  const std::vector<ByteBuf> samples = scripted_samples();
  ExperimentConfig cfg;
  cfg.seed = 987654;
  cfg.max_queries = 10;
  const auto shards = util::cache_dir() / "results" / "samples";

  cfg.use_cache = false;
  const CellStats uncached = run_cell(atk, det, samples, samples, cfg);
  EXPECT_FALSE(std::filesystem::exists(shards));
  EXPECT_EQ(*atk.runs, 6);

  cfg.use_cache = true;
  const CellStats cold = run_cell(atk, det, samples, samples, cfg);
  EXPECT_TRUE(std::filesystem::exists(shards));
  EXPECT_EQ(*atk.runs, 12);
  const CellStats warm = run_cell(atk, det, samples, samples, cfg);
  EXPECT_EQ(*atk.runs, 12);  // every sample served from its shard

  EXPECT_EQ(cold.result_digest(), uncached.result_digest());
  EXPECT_EQ(warm.result_digest(), cold.result_digest());
  EXPECT_EQ(warm.total_queries, cold.total_queries);
  EXPECT_DOUBLE_EQ(warm.avq, 2.0);
}

TEST(Harness, TracedCellLineIsTheCellRecord) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) / "mpass_harness_cell_line";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::set_trace_dir(dir);
  const SizeDetector det(kBenignSize);
  Scripted atk;
  const std::vector<ByteBuf> samples = scripted_samples();
  ExperimentConfig cfg;
  cfg.max_queries = 10;
  cfg.use_cache = false;
  const CellStats stats = run_cell(atk, det, samples, samples, cfg);
  obs::set_trace_dir(std::nullopt);

  const auto blob = util::load_file(dir / "cells.jsonl");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(blob.has_value());
  const std::string text(blob->begin(), blob->end());
  ASSERT_EQ(text.find('\n'), text.size() - 1) << "one line expected";
  const std::string line = text.substr(0, text.size() - 1);

  // The BENCH cell's keys in the BENCH order, between "ev" and "traced".
  // Nothing else -- in particular no AE bytes.
  const std::vector<std::string> keys = {
      "ev",  "attack", "target", "n",         "asr",           "avq",
      "apr", "functional", "successes", "total_queries", "wall_ms", "qps",
      "traced"};
  std::size_t pos = 0;
  for (const std::string& k : keys) {
    pos = line.find('"' + k + "\":", pos);
    ASSERT_NE(pos, std::string::npos) << k << " missing or out of order";
  }
  const std::optional<obs::Json> doc = obs::Json::parse(line);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->fields().size(), keys.size());
  EXPECT_LT(line.size(), 512u);

  // Numbers as the line writes them (6 significant digits).
  const auto written = [](double v) {
    std::string s;
    obs::json_number(s, v);
    return std::strtod(s.c_str(), nullptr);
  };
  const auto num = [&](const char* k) { return doc->get(k)->number(); };
  EXPECT_EQ(doc->get("ev")->str(), "cell");
  EXPECT_EQ(doc->get("attack")->str(), stats.attack);
  EXPECT_EQ(doc->get("target")->str(), stats.target);
  EXPECT_EQ(num("n"), static_cast<double>(stats.n));
  EXPECT_EQ(num("successes"), static_cast<double>(stats.successes));
  EXPECT_EQ(num("total_queries"), static_cast<double>(stats.total_queries));
  EXPECT_EQ(num("asr"), written(stats.asr));
  EXPECT_EQ(num("avq"), written(stats.avq));
  EXPECT_EQ(num("apr"), written(stats.apr));
  EXPECT_EQ(num("functional"), written(stats.functional));
  EXPECT_EQ(num("wall_ms"), written(stats.wall_ms));
  EXPECT_EQ(num("qps"), written(stats.qps));
  EXPECT_EQ(num("traced"), 6.0);  // no cache: every sample ran
  EXPECT_GT(stats.apr, 0.0);
  EXPECT_GT(stats.wall_ms, 0.0);
}

TEST(Harness, ConfigDigestSensitivity) {
  ExperimentConfig a;
  ExperimentConfig b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.n_samples += 1;
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace mpass::harness
