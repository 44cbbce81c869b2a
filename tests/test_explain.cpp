// Tests for Shapley attribution and PEM: the efficiency axiom, symmetry,
// Monte-Carlo agreement, ablation semantics, and Algorithm 1's pipeline.
#include <gtest/gtest.h>

#include "corpus/generator.hpp"
#include "explain/pem.hpp"
#include "explain/shapley.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace mpass::explain {
namespace {

using util::ByteBuf;

pe::PeFile make_test_pe(int nsections, util::Rng& rng) {
  pe::PeFile f;
  for (int i = 0; i < nsections; ++i)
    f.add_section("s" + std::to_string(i), rng.bytes(128),
                  pe::kScnInitializedData | pe::kScnMemRead);
  f.entry_point = f.sections[0].vaddr;
  return f;
}

TEST(Shapley, AblationZeroesExactlyTheDroppedSections) {
  util::Rng rng(1);
  pe::PeFile f = make_test_pe(3, rng);
  f.overlay = rng.bytes(64);
  const auto players = section_players(f);
  ASSERT_EQ(players.size(), 4u);  // 3 sections + overlay
  std::vector<bool> keep = {true, false, true, false};
  const pe::PeFile g = pe::PeFile::parse(ablate_to_subset(f, keep));
  EXPECT_EQ(g.sections[0].data[0], f.sections[0].data[0]);
  for (std::uint8_t b : g.sections[1].data) EXPECT_EQ(b, 0);
  for (std::uint8_t b : g.overlay) EXPECT_EQ(b, 0);
  // Layout is preserved: same sizes and names.
  EXPECT_EQ(g.sections.size(), f.sections.size());
  EXPECT_EQ(g.overlay.size(), f.overlay.size());
}

TEST(Shapley, EfficiencyAxiomExact) {
  // f = weighted count of non-zeroed sections: phi_i must sum to
  // f(full) - f(empty) exactly.
  util::Rng rng(2);
  const pe::PeFile f = make_test_pe(4, rng);
  auto score = [&](std::span<const std::uint8_t> bytes) {
    const pe::PeFile g = pe::PeFile::parse(bytes);
    double s = 0;
    for (std::size_t i = 0; i < g.sections.size(); ++i) {
      bool nonzero = false;
      for (std::uint8_t b : g.sections[i].data)
        if (b) nonzero = true;
      if (nonzero) s += 0.1 * static_cast<double>(i + 1);
    }
    return s;
  };
  const std::vector<double> phi = shapley_values(f, score);
  double sum = 0;
  for (double p : phi) sum += p;
  std::vector<bool> none(4, false), all(4, true);
  const double expect =
      score(ablate_to_subset(f, all)) - score(ablate_to_subset(f, none));
  EXPECT_NEAR(sum, expect, 1e-9);
  // Additive game: phi_i equals each section's own weight.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(phi[i], 0.1 * static_cast<double>(i + 1), 1e-9);
}

TEST(Shapley, DummyPlayerGetsZero) {
  util::Rng rng(3);
  const pe::PeFile f = make_test_pe(3, rng);
  // Score ignores section 2 entirely.
  auto score = [&](std::span<const std::uint8_t> bytes) {
    const pe::PeFile g = pe::PeFile::parse(bytes);
    bool s0 = false;
    for (std::uint8_t b : g.sections[0].data)
      if (b) s0 = true;
    return s0 ? 1.0 : 0.0;
  };
  const std::vector<double> phi = shapley_values(f, score);
  EXPECT_NEAR(phi[1], 0.0, 1e-12);
  EXPECT_NEAR(phi[2], 0.0, 1e-12);
  EXPECT_NEAR(phi[0], 1.0, 1e-12);
}

TEST(Shapley, MonteCarloApproximatesExact) {
  util::Rng rng(4);
  const pe::PeFile f = make_test_pe(5, rng);
  auto score = [&](std::span<const std::uint8_t> bytes) {
    // Superadditive-ish game keyed on content hash parity per section.
    const pe::PeFile g = pe::PeFile::parse(bytes);
    double s = 0;
    for (std::size_t i = 0; i < g.sections.size(); ++i) {
      bool nz = false;
      for (std::uint8_t b : g.sections[i].data)
        if (b) nz = true;
      if (nz) s += static_cast<double>((i * 37 + 11) % 7) / 7.0;
    }
    return s;
  };
  ShapleyOptions exact_opts;
  const std::vector<double> exact = shapley_values(f, score, exact_opts);
  ShapleyOptions mc_opts;
  mc_opts.exact_max_players = 0;  // force sampling
  mc_opts.permutations = 200;
  const std::vector<double> approx = shapley_values(f, score, mc_opts);
  ASSERT_EQ(exact.size(), approx.size());
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_NEAR(approx[i], exact[i], 0.05);
}

TEST(Pem, FindsThePlantedCriticalSection) {
  // Synthetic detectors that key on .data content only: PEM must rank
  // .data top-1 on every model, so the intersection is {.data}.
  class DataKeyed : public detect::Detector {
   public:
    explicit DataKeyed(std::string name) : name_(std::move(name)) {}
    std::string_view name() const override { return name_; }
    double score(std::span<const std::uint8_t> bytes) const override {
      try {
        const pe::PeFile f = pe::PeFile::parse(bytes);
        const auto idx = f.find_section(".data");
        if (!idx) return 0.0;
        double s = 0;
        for (std::uint8_t b : f.sections[*idx].data) s += b;
        return s > 0 ? 0.9 : 0.1;
      } catch (const util::ParseError&) {
        return 0.0;
      }
    }
    std::unique_ptr<detect::Detector> clone() const override {
      return std::make_unique<DataKeyed>(*this);
    }
   private:
    std::string name_;
  };

  std::vector<ByteBuf> malware;
  for (int i = 0; i < 6; ++i)
    malware.push_back(corpus::make_malware(4444 + i).bytes());
  DataKeyed m1("m1"), m2("m2");
  const detect::Detector* models[] = {&m1, &m2};
  PemConfig cfg;
  cfg.top_k = 2;
  const PemResult res = run_pem(malware, models, cfg);
  ASSERT_EQ(res.model_names.size(), 2u);
  ASSERT_FALSE(res.critical.empty());
  EXPECT_EQ(res.per_model_topk[0][0], ".data");
  EXPECT_NE(std::find(res.critical.begin(), res.critical.end(), ".data"),
            res.critical.end());
}

TEST(Pem, HandlesEmptyInputsGracefully) {
  const PemResult res = run_pem({}, {}, {});
  EXPECT_TRUE(res.critical.empty());
  EXPECT_TRUE(res.model_names.empty());
}

}  // namespace
}  // namespace mpass::explain
