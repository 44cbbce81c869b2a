// Tests for feature extraction, detector training/calibration, the
// hard-label oracle, and the commercial-AV simulators (signature mining).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>

#include "corpus/generator.hpp"
#include "detectors/avsim.hpp"
#include "detectors/features.hpp"
#include "detectors/models.hpp"
#include "detectors/training.hpp"
#include "util/rng.hpp"

namespace mpass::detect {
namespace {

using util::ByteBuf;

corpus::Dataset tiny_dataset(std::uint64_t seed, std::size_t per_class) {
  return corpus::generate_dataset(seed, per_class, per_class);
}

TEST(Features, FixedDimensionAndFiniteValues) {
  const ByteBuf sample = corpus::make_malware(100).bytes();
  const std::vector<float> f = extract_features(sample);
  EXPECT_EQ(f.size(), feature_dim());
  for (float v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(Features, ToleratesGarbageAndEmptyInput) {
  util::Rng rng(1);
  const std::vector<float> f1 = extract_features(rng.bytes(2000));
  EXPECT_EQ(f1.size(), feature_dim());
  const std::vector<float> f2 = extract_features(ByteBuf{});
  EXPECT_EQ(f2.size(), feature_dim());
  // parse_ok flag must be 0 for garbage.
  const auto names = parsed_feature_names();
  const std::size_t base = 512;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == "parse_ok") {
      EXPECT_EQ(f1[base + i], 0.0f);
      EXPECT_EQ(f2[base + i], 0.0f);
    }
}

TEST(Features, SeparateClassesOnAverage) {
  // Mean hard-import count and code syscall stats should differ by class.
  const auto names = parsed_feature_names();
  auto idx_of = [&](std::string_view n) {
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == n) return 512 + i;
    return std::size_t{0};
  };
  const std::size_t hard_idx = idx_of("code_sys_hard");
  double mal = 0, ben = 0;
  for (int i = 0; i < 10; ++i) {
    mal += extract_features(corpus::make_malware(200 + i).bytes())[hard_idx];
    ben += extract_features(corpus::make_benign(200 + i).bytes())[hard_idx];
  }
  EXPECT_GT(mal, ben);
}

TEST(Detectors, HardLabelOracleCountsQueries) {
  // A detector with a fixed verdict.
  class Fixed : public Detector {
   public:
    std::string_view name() const override { return "fixed"; }
    double score(std::span<const std::uint8_t> bytes) const override {
      return bytes.empty() ? 0.0 : 1.0;
    }
    std::unique_ptr<Detector> clone() const override {
      return std::make_unique<Fixed>(*this);
    }
  };
  Fixed det;
  HardLabelOracle oracle(det, 3);
  const ByteBuf x(10, 0);
  EXPECT_TRUE(oracle.query(x));
  EXPECT_EQ(oracle.queries(), 1u);
  EXPECT_FALSE(oracle.exhausted());
  EXPECT_EQ(oracle.first_benign(), 0u);  // no benign verdict yet
  EXPECT_FALSE(oracle.query({}));
  EXPECT_EQ(oracle.first_benign(), 2u);
  oracle.query({});
  EXPECT_EQ(oracle.first_benign(), 2u);  // only the first one is recorded
  EXPECT_TRUE(oracle.exhausted());
}

TEST(Detectors, TinyNetTrainsAboveChance) {
  const corpus::Dataset data = tiny_dataset(50, 48);
  const auto [train, test] = data.split(0.75);
  ml::ByteConvConfig cfg;
  cfg.max_len = 8192;
  cfg.embed_dim = 4;
  cfg.filters = 8;
  cfg.width = 16;
  cfg.stride = 8;
  cfg.hidden = 8;
  ByteConvDetector det("tiny", cfg, 3);
  NetTrainConfig tc;
  tc.epochs = 10;
  tc.lr = 2e-3f;
  train_net(det, train, tc);
  calibrate_threshold(det, train, 0.05);
  const EvalReport r = evaluate(det, test);
  EXPECT_GT(r.auc, 0.75);
}

TEST(Detectors, GbdtTrainsAboveChance) {
  const corpus::Dataset data = tiny_dataset(60, 30);
  const auto [train, test] = data.split(0.7);
  GbdtDetector det("gbdt", {});
  train_gbdt(det, train);
  calibrate_threshold(det, train, 0.05);
  const EvalReport r = evaluate(det, test);
  EXPECT_GT(r.auc, 0.9);
  EXPECT_LE(r.fpr, 0.35);
}

TEST(Detectors, CalibrationRespectsFprOnTrain) {
  const corpus::Dataset data = tiny_dataset(70, 30);
  GbdtDetector det("gbdt", {});
  train_gbdt(det, data);
  calibrate_threshold(det, data, 0.1);
  const EvalReport r = evaluate(det, data);
  EXPECT_LE(r.fpr, 0.1 + 1e-9);
}

TEST(Detectors, SerializationRoundTrip) {
  const corpus::Dataset data = tiny_dataset(80, 16);
  GbdtDetector det("gbdt", {});
  train_gbdt(det, data);
  det.set_threshold(0.42);
  util::Archive ar;
  det.save(ar);
  const ByteBuf blob = ar.take();
  GbdtDetector other("placeholder", {});
  util::Unarchive un(blob);
  other.load(un);
  EXPECT_EQ(other.name(), "gbdt");
  EXPECT_DOUBLE_EQ(other.threshold(), 0.42);
  const ByteBuf probe = data.samples[0].bytes;
  EXPECT_DOUBLE_EQ(other.score(probe), det.score(probe));
}

// A named copy (bench_advtrain's AE-mix target) keeps its own name: result
// shards are keyed by target name, so a copy that took the source's name
// would be served the source's cached outcomes.
TEST(Detectors, NamedCopyKeepsItsNameAndScoresBitEqual) {
  const corpus::Dataset data = tiny_dataset(81, 12);
  ml::ByteConvConfig cfg;
  cfg.max_len = 8192;
  cfg.embed_dim = 4;
  cfg.filters = 8;
  cfg.width = 16;
  cfg.stride = 8;
  cfg.hidden = 8;
  ByteConvDetector src("MalConv", cfg, 5);
  NetTrainConfig tc;
  tc.epochs = 1;
  train_net(src, data, tc);
  const ByteConvDetector copy("MalConv-AEmix", src.net());
  EXPECT_EQ(copy.name(), "MalConv-AEmix");
  EXPECT_EQ(src.name(), "MalConv");
  for (const corpus::Sample& s : data.samples)
    EXPECT_EQ(copy.score(s.bytes), src.score(s.bytes));
}

TEST(Features, VendorHeuristicsFlagMovedEntryPoint) {
  // A normal sample: entry in .text, code decodes, no WX section.
  const corpus::CompiledSample s = corpus::make_malware(300);
  const auto names = detect::vendor_feature_names();
  const std::size_t base = detect::feature_dim();
  auto idx_of = [&](std::string_view n) {
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == n) return base + i;
    ADD_FAILURE() << "unknown vendor feature " << n;
    return std::size_t{0};
  };
  const auto clean = detect::extract_vendor_features(s.bytes());
  EXPECT_EQ(clean.size(), detect::vendor_feature_dim());
  EXPECT_EQ(clean[idx_of("entry_section_executable")], 1.0f);
  EXPECT_EQ(clean[idx_of("entry_code_decodes")], 1.0f);
  EXPECT_EQ(clean[idx_of("first_exec_is_entry")], 1.0f);

  // Retarget the entry point at a new trailing section: the heuristics
  // that real AVs ship must fire.
  pe::PeFile f = s.pe;
  util::Rng rng(4);
  f.add_section("odd", rng.bytes(512),
                pe::kScnCode | pe::kScnMemRead | pe::kScnMemExecute |
                    pe::kScnMemWrite);
  f.entry_point = f.sections.back().vaddr;
  const auto moved = detect::extract_vendor_features(f.build());
  EXPECT_EQ(moved[idx_of("entry_in_last_section")], 1.0f);
  EXPECT_EQ(moved[idx_of("entry_section_std_name")], 0.0f);
  EXPECT_EQ(moved[idx_of("wx_section_present")], 1.0f);
  EXPECT_EQ(moved[idx_of("first_exec_is_entry")], 0.0f);
}

// ---- signature mining ---------------------------------------------------------

TEST(Signatures, MinesCommonMaliciousNgrams) {
  util::Rng rng(5);
  // Malicious docs share a 16-byte marker; benign docs do not contain it.
  const ByteBuf marker = util::to_bytes("EVIL_MARKER_BYTES");
  std::vector<ByteBuf> mal, ben;
  for (int i = 0; i < 10; ++i) {
    ByteBuf doc = rng.bytes(400);
    std::copy(marker.begin(), marker.end(), doc.begin() + 100 + i);
    mal.push_back(std::move(doc));
    ben.push_back(rng.bytes(400));
  }
  const auto sigs = mine_signatures(mal, ben, 12, 32, 0.5);
  ASSERT_FALSE(sigs.empty());
  SignatureDb db;
  for (const auto& s : sigs) db.add(s);
  // Every malicious doc matches; benign docs do not.
  for (const auto& d : mal) EXPECT_TRUE(db.matches(d));
  for (const auto& d : ben) EXPECT_FALSE(db.matches(d));
}

TEST(Signatures, NoSignaturesWhenNothingShared) {
  util::Rng rng(6);
  std::vector<ByteBuf> mal, ben;
  for (int i = 0; i < 8; ++i) {
    mal.push_back(rng.bytes(300));
    ben.push_back(rng.bytes(300));
  }
  const auto sigs = mine_signatures(mal, ben, 12, 32, 0.5);
  EXPECT_TRUE(sigs.empty());
}

TEST(Signatures, BenignWhitelistExcludesSharedContent) {
  util::Rng rng(7);
  const ByteBuf common = util::to_bytes("totally common library string!");
  std::vector<ByteBuf> mal, ben;
  for (int i = 0; i < 8; ++i) {
    ByteBuf m = rng.bytes(200);
    m.insert(m.end(), common.begin(), common.end());
    mal.push_back(std::move(m));
    ByteBuf b = rng.bytes(200);
    b.insert(b.end(), common.begin(), common.end());
    ben.push_back(std::move(b));
  }
  // The shared string exists in benign docs too -> must not become a sig.
  const auto sigs = mine_signatures(mal, ben, 12, 32, 0.5);
  SignatureDb db;
  for (const auto& s : sigs) db.add(s);
  for (const auto& d : ben) EXPECT_FALSE(db.matches(d));
}

TEST(Signatures, DbSerializationRoundTrip) {
  SignatureDb db;
  db.add(util::to_bytes("pattern-one!"));
  db.add(util::to_bytes("pattern-two!"));
  util::Archive ar;
  db.save(ar);
  const ByteBuf blob = ar.take();
  SignatureDb other;
  util::Unarchive un(blob);
  other.load(un);
  EXPECT_EQ(other.size(), 2u);
  EXPECT_TRUE(other.matches(util::to_bytes("xx pattern-two! yy")));
  EXPECT_FALSE(other.matches(util::to_bytes("pattern-three!")));
}

// ---- the signature index against a memmem reference -------------------------

// One memmem per non-empty pattern: what SignatureDb::matches must agree with.
bool memmem_matches(const std::vector<ByteBuf>& patterns,
                    std::span<const std::uint8_t> bytes) {
  for (const ByteBuf& p : patterns)
    if (!p.empty() && p.size() <= bytes.size() &&
        memmem(bytes.data(), bytes.size(), p.data(), p.size()) != nullptr)
      return true;
  return false;
}

SignatureDb db_of(const std::vector<ByteBuf>& patterns) {
  SignatureDb db;
  for (const ByteBuf& p : patterns) db.add(p);
  return db;
}

SignatureDb round_trip(const SignatureDb& db) {
  util::Archive ar;
  db.save(ar);
  const ByteBuf blob = ar.take();
  util::Unarchive un(blob);
  SignatureDb out;
  out.load(un);
  return out;
}

// Bytes over the first `alphabet` values: small alphabets make short
// patterns and chance hits likely.
ByteBuf alphabet_bytes(util::Rng& rng, std::size_t n, std::uint64_t alphabet) {
  ByteBuf out(n);
  for (std::uint8_t& b : out)
    b = static_cast<std::uint8_t>(rng.below(alphabet));
  return out;
}

void plant(ByteBuf& buf, const ByteBuf& p, std::size_t at) {
  if (!p.empty() && at + p.size() <= buf.size())
    std::copy(p.begin(), p.end(),
              buf.begin() + static_cast<std::ptrdiff_t>(at));
}

TEST(SignatureIndex, AgreesWithMemmemOnRandomizedDbs) {
  util::Rng rng(0x51D8);
  std::size_t hits = 0, misses = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t alphabet =
        std::array<std::uint64_t, 3>{2, 5, 256}[trial % 3];
    std::vector<ByteBuf> patterns;
    const std::size_t n_patterns = rng.below(12);
    for (std::size_t k = 0; k < n_patterns; ++k) {
      // Mixed lengths 1-20, 12 (the mined length) most often, and both
      // sides of the 8-byte load boundary.
      const std::size_t len = rng.below(3) == 0 ? 12 : 1 + rng.below(20);
      patterns.push_back(alphabet_bytes(rng, len, alphabet));
    }
    if (trial % 17 == 0) patterns.push_back({});  // an empty pattern
    const SignatureDb db = db_of(patterns);
    const SignatureDb loaded = round_trip(db);
    ASSERT_EQ(loaded.size(), patterns.size());

    for (int q = 0; q < 8; ++q) {
      ByteBuf buf = alphabet_bytes(rng, rng.below(200), alphabet);
      if (q % 4 == 1 && !buf.empty()) {  // long zero runs, as in PE headers
        const std::size_t at = rng.below(buf.size());
        std::fill(buf.begin() + static_cast<std::ptrdiff_t>(at), buf.end(), 0);
      }
      if (!patterns.empty() && q >= 2) {
        const ByteBuf& a = patterns[rng.below(patterns.size())];
        const ByteBuf& b = patterns[rng.below(patterns.size())];
        switch (q % 3) {
          case 0:  // offset 0
            plant(buf, a, 0);
            break;
          case 1:  // the last possible offset
            if (a.size() <= buf.size()) plant(buf, a, buf.size() - a.size());
            break;
          default:  // b overlapping the tail of a
            if (!buf.empty()) {
              const std::size_t at = rng.below(buf.size());
              plant(buf, a, at);
              plant(buf, b, at + (a.empty() ? 0 : rng.below(a.size())));
            }
        }
      }
      const bool want = memmem_matches(patterns, buf);
      ASSERT_EQ(db.matches(buf), want) << "trial " << trial << ", query " << q;
      ASSERT_EQ(loaded.matches(buf), want) << "trial " << trial << ", query "
                                           << q;
      (want ? hits : misses) += 1;
    }
  }
  // Both verdicts are exercised, not just one.
  EXPECT_GT(hits, 500u);
  EXPECT_GT(misses, 500u);
}

TEST(SignatureIndex, HitsAtBothEndsAndInsideZeroRuns) {
  util::Rng rng(0x2E80);
  for (std::size_t len = 1; len <= 20; ++len) {
    ByteBuf sig = alphabet_bytes(rng, len, 255);
    for (std::uint8_t& b : sig) ++b;  // no zero byte
    const ByteBuf other(len, 0x80);  // a second pattern of this length
    const SignatureDb db = db_of({other, sig});
    for (const SignatureDb& d : {db, round_trip(db)}) {
      ByteBuf zeros(4096, 0);
      EXPECT_FALSE(d.matches(zeros)) << len;
      plant(zeros, sig, 0);
      EXPECT_TRUE(d.matches(zeros)) << len;
      std::fill(zeros.begin(), zeros.end(), 0);
      plant(zeros, sig, zeros.size() - len);
      EXPECT_TRUE(d.matches(zeros)) << len;
      EXPECT_FALSE(d.matches({zeros.data(), zeros.size() - 1})) << len;
      EXPECT_TRUE(d.matches(sig)) << len;  // the buffer is the pattern
    }
  }
  // A pattern of zeros hits any long enough zero run.
  const SignatureDb zero_db = db_of({ByteBuf(12, 0)});
  EXPECT_TRUE(zero_db.matches(ByteBuf(4096, 0)));
  EXPECT_FALSE(zero_db.matches(ByteBuf(11, 0)));
}

TEST(SignatureIndex, EmptyPatternsBuffersAndShortBuffersNeverMatch) {
  const SignatureDb db = db_of({{}, util::to_bytes("five5"),
                                util::to_bytes("twelve-bytes")});
  for (const SignatureDb& d : {db, round_trip(db)}) {
    EXPECT_EQ(d.size(), 3u);
    EXPECT_FALSE(d.matches({}));
    EXPECT_FALSE(d.matches(util::to_bytes("five")));  // shorter than all
    EXPECT_FALSE(d.matches(util::to_bytes("nothing here at all")));
    EXPECT_TRUE(d.matches(util::to_bytes("five5")));
  }
  EXPECT_FALSE(db_of({{}}).matches(util::to_bytes("anything")));
  EXPECT_FALSE(SignatureDb{}.matches(util::to_bytes("anything")));
}

TEST(SignatureIndex, CopyThenAddLeavesTheOriginal) {
  const SignatureDb original = db_of({util::to_bytes("old-pattern!")});
  SignatureDb copy = original;
  const ByteBuf probe = util::to_bytes("xx new-pattern! and short");
  copy.add(util::to_bytes("new-pattern!"));  // an existing length
  copy.add(util::to_bytes("short"));         // a new length
  EXPECT_TRUE(copy.matches(probe));
  EXPECT_TRUE(copy.matches(util::to_bytes("short")));
  EXPECT_TRUE(copy.matches(util::to_bytes("old-pattern!")));
  EXPECT_FALSE(original.matches(probe));
  EXPECT_FALSE(original.matches(util::to_bytes("short")));
  EXPECT_TRUE(original.matches(util::to_bytes("old-pattern!")));
  EXPECT_EQ(original.size(), 1u);
  EXPECT_EQ(copy.size(), 3u);
}

// A corrupt count must fail as a ParseError (so the zoo retrains) before
// anything is allocated for it.
TEST(SignatureIndex, CorruptPatternCountIsAParseError) {
  util::Archive ar;
  ar.tag("sigdb");
  ar.u32(0xFFFFFFFFu);
  ar.bytes(util::to_bytes("one-pattern!"));
  const ByteBuf blob = ar.take();
  util::Unarchive un(blob);
  SignatureDb db;
  EXPECT_THROW(db.load(un), util::ParseError);
}

TEST(Signatures, CorruptWhitelistCountIsAParseError) {
  AvProfile profile = default_av_profiles()[0];
  ASSERT_EQ(profile.model, AvProfile::Model::Gbdt);
  util::Archive ar;
  CommercialAv(profile, CommercialAv::Untrained{}).save(ar);
  ByteBuf blob = ar.take();
  // An untrained AV's archive ends with its (empty) whitelist's count.
  std::fill(blob.end() - 4, blob.end(), 0xFF);
  util::Unarchive un(blob);
  CommercialAv av(profile, CommercialAv::Untrained{});
  EXPECT_THROW(av.load(un), util::ParseError);
}

TEST(Signatures, AvProfilesAreFiveAndDistinct) {
  const auto profiles = default_av_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  for (std::size_t i = 0; i < profiles.size(); ++i)
    for (std::size_t j = i + 1; j < profiles.size(); ++j)
      EXPECT_NE(profiles[i].name, profiles[j].name);
}

}  // namespace
}  // namespace mpass::detect
