#include "detectors/avsim.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "detectors/training.hpp"
#include "obs/span.hpp"
#include "util/hashing.hpp"
#include "util/stats.hpp"

namespace mpass::detect {

using util::ByteBuf;

// ---- SignatureDb -----------------------------------------------------------

namespace {

std::uint64_t window_hash(const std::uint8_t* p, std::size_t len) {
  std::uint64_t a = 0, b = 0;
  if (len >= 8) {
    std::memcpy(&a, p, 8);
    std::memcpy(&b, p + len - 8, 8);
  } else {
    std::memcpy(&a, p, len);
  }
  return a * 0x9E3779B97F4A7C15ull ^ b * 0xC2B2AE3D27D4EB4Full;
}

}  // namespace

void SignatureDb::add(ByteBuf pattern) {
  patterns_.push_back(std::move(pattern));
  const ByteBuf& p = patterns_.back();
  if (p.empty()) return;
  auto ix = std::find_if(index_.begin(), index_.end(), [&](const auto& x) {
    return x.len == p.size();
  });
  if (ix == index_.end()) {
    ix = index_.emplace(index_.end());
    ix->len = p.size();
  }
  const std::uint64_t h = window_hash(p.data(), p.size());
  ix->filter[h >> 54] |= std::uint64_t{1} << ((h >> 48) & 63);
  const std::pair entry{h, static_cast<std::uint32_t>(patterns_.size() - 1)};
  ix->table.insert(std::upper_bound(ix->table.begin(), ix->table.end(), entry),
                   entry);
}

bool SignatureDb::matches(std::span<const std::uint8_t> bytes) const {
  for (const LengthIndex& ix : index_) {
    if (ix.len > bytes.size()) continue;
    for (std::size_t i = 0; i + ix.len <= bytes.size(); ++i) {
      const std::uint8_t* w = bytes.data() + i;
      const std::uint64_t h = window_hash(w, ix.len);
      if (!(ix.filter[h >> 54] >> ((h >> 48) & 63) & 1)) continue;
      for (auto it = std::lower_bound(ix.table.begin(), ix.table.end(),
                                      std::pair{h, std::uint32_t{0}});
           it != ix.table.end() && it->first == h; ++it)
        if (std::memcmp(patterns_[it->second].data(), w, ix.len) == 0)
          return true;
    }
  }
  return false;
}

void SignatureDb::save(util::Archive& ar) const {
  ar.tag("sigdb");
  ar.u32(static_cast<std::uint32_t>(patterns_.size()));
  for (const ByteBuf& p : patterns_) ar.bytes(p);
}

void SignatureDb::load(util::Unarchive& ar) {
  ar.tag("sigdb");
  // Every pattern carries at least its 4-byte length prefix.
  const std::uint32_t n = ar.count(4);
  SignatureDb db;
  for (std::uint32_t i = 0; i < n; ++i) db.add(ar.bytes());
  *this = std::move(db);
}

// ---- signature mining -------------------------------------------------------

std::vector<ByteBuf> mine_signatures(std::span<const ByteBuf> malicious,
                                     std::span<const ByteBuf> benign,
                                     std::size_t ngram, std::size_t max_sigs,
                                     double min_doc_frac) {
  if (malicious.empty() || ngram == 0) return {};

  // Hash set of every benign n-gram (stride 1: the whitelist must be tight).
  std::unordered_set<std::uint64_t> benign_grams;
  for (const ByteBuf& doc : benign) {
    if (doc.size() < ngram) continue;
    for (std::size_t i = 0; i + ngram <= doc.size(); ++i)
      benign_grams.insert(util::fnv1a64({doc.data() + i, ngram}));
  }

  // Document frequency of malicious n-grams (stride 2 for speed; exemplar
  // bytes kept for the first occurrence).
  struct Entry {
    std::size_t docs = 0;
    const std::uint8_t* exemplar = nullptr;
  };
  std::unordered_map<std::uint64_t, Entry> freq;
  std::unordered_set<std::uint64_t> seen_in_doc;
  for (const ByteBuf& doc : malicious) {
    if (doc.size() < ngram) continue;
    seen_in_doc.clear();
    for (std::size_t i = 0; i + ngram <= doc.size(); i += 2) {
      const std::uint64_t h = util::fnv1a64({doc.data() + i, ngram});
      if (benign_grams.contains(h)) continue;
      if (!seen_in_doc.insert(h).second) continue;
      Entry& e = freq[h];
      ++e.docs;
      if (!e.exemplar) e.exemplar = doc.data() + i;
    }
  }

  const std::size_t min_docs = std::max<std::size_t>(
      1, static_cast<std::size_t>(min_doc_frac *
                                  static_cast<double>(malicious.size())));
  std::vector<std::pair<std::size_t, const std::uint8_t*>> ranked;
  for (const auto& [h, e] : freq)
    if (e.docs >= min_docs) ranked.emplace_back(e.docs, e.exemplar);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<ByteBuf> out;
  out.reserve(std::min(max_sigs, ranked.size()));
  for (const auto& [docs, ptr] : ranked) {
    if (out.size() >= max_sigs) break;
    out.emplace_back(ptr, ptr + ngram);
  }
  return out;
}

// ---- profiles ---------------------------------------------------------------

std::vector<AvProfile> default_av_profiles() {
  using Model = AvProfile::Model;
  std::vector<AvProfile> v;
  // AV1 "MAX": feature-space GBDT with vendor heuristics, mid signature DB.
  v.push_back({"AV1", Model::Gbdt, 0.015, 160, 0.05, 101, 250, 250});
  // AV2 "CrowdStrike": hybrid (byte net + heuristic GBDT), larger sig DB.
  v.push_back({"AV2", Model::Hybrid, 0.015, 220, 0.05, 202, 300, 300});
  // AV3 "Acronis": pure byte-level model, small signature DB (most
  // code/data focused -- the AV MPass evades best, Fig. 3).
  v.push_back({"AV3", Model::ByteConv, 0.02, 60, 0.10, 303, 200, 200});
  // AV4 "SentinelOne": channel-gated byte net, small-mid signature DB.
  v.push_back({"AV4", Model::ByteConvGcg, 0.015, 90, 0.08, 404, 250, 250});
  // AV5 "Cylance": hybrid ensemble + big signature DB + strict threshold
  // (hardest target).
  v.push_back({"AV5", Model::Hybrid, 0.03, 300, 0.04, 505, 350, 350});
  return v;
}

// ---- CommercialAv -------------------------------------------------------------

CommercialAv::CommercialAv(AvProfile profile, Untrained)
    : profile_(std::move(profile)) {
  using Model = AvProfile::Model;
  if (profile_.model == Model::Gbdt || profile_.model == Model::Hybrid) {
    ml::GbdtConfig cfg = lightgbm_config();
    cfg.trees = 120;
    gbdt_.emplace(profile_.name + "-gbdt", cfg, /*vendor_features=*/true);
  }
  if (profile_.model != Model::Gbdt) {
    ml::ByteConvConfig cfg = profile_.model == Model::ByteConvGcg
                                 ? malgcg_config()
                                 : malconv_config();
    cfg.filters = 20;
    net_.emplace(profile_.name + "-net", cfg, profile_.seed);
  }
}

CommercialAv::CommercialAv(AvProfile profile,
                           const corpus::Dataset& shared_train)
    : CommercialAv(std::move(profile), Untrained{}) {
  // Vendor corpus = shared feed + vendor-private telemetry.
  corpus::Dataset vendor = shared_train;
  const std::uint64_t base = util::fnv1a64(profile_.name) ^ profile_.seed;
  for (std::size_t i = 0; i < profile_.vendor_malware; ++i) {
    corpus::CompiledSample s =
        corpus::make_malware(util::hash_combine(base, 0xA0 + i));
    vendor.samples.push_back({s.bytes(), 1, std::move(s.meta)});
  }
  for (std::size_t i = 0; i < profile_.vendor_benign; ++i) {
    corpus::CompiledSample s =
        corpus::make_benign(util::hash_combine(base, 0xB0 + i));
    vendor.samples.push_back({s.bytes(), 0, std::move(s.meta)});
  }

  // Train the ML component.
  if (gbdt_) train_gbdt(*gbdt_, vendor, profile_.seed);
  if (net_) {
    NetTrainConfig tc;
    tc.epochs = 2;
    tc.seed = profile_.seed;
    train_net(*net_, vendor, tc);
  }

  // Vendor benign whitelist + initial signatures from known malware.
  std::vector<ByteBuf> mal_docs, ben_docs;
  for (const corpus::Sample& s : vendor.samples)
    (s.label ? mal_docs : ben_docs).push_back(s.bytes);
  for (ByteBuf& sig :
       mine_signatures(mal_docs, ben_docs, 12, profile_.max_sigs,
                       profile_.min_doc_frac))
    sigs_.add(std::move(sig));
  benign_ref_ =
      std::make_shared<const std::vector<ByteBuf>>(std::move(ben_docs));

  // Calibrate the ML threshold on the vendor corpus.
  std::vector<double> scores;
  std::vector<int> labels;
  for (const corpus::Sample& s : vendor.samples) {
    scores.push_back(model_score(s.bytes));
    labels.push_back(s.label);
  }
  set_threshold(util::threshold_for_fpr(scores, labels, profile_.target_fpr));
}

double CommercialAv::model_score(std::span<const std::uint8_t> bytes) const {
  switch (profile_.model) {
    case AvProfile::Model::Gbdt:
      return gbdt_->score(bytes);
    case AvProfile::Model::ByteConv:
    case AvProfile::Model::ByteConvGcg:
      return net_->score(bytes);
    case AvProfile::Model::Hybrid:
      return std::max(gbdt_->score(bytes), net_->score(bytes));
  }
  return 0.0;
}

double CommercialAv::score(std::span<const std::uint8_t> bytes) const {
  {
    OBS_SCOPE("detect.av.signatures");
    if (sigs_.matches(bytes)) return 1.0;
  }
  OBS_SCOPE("detect.av.model");
  return model_score(bytes);
}

std::size_t CommercialAv::update(std::span<const ByteBuf> submissions) {
  if (submissions.empty()) return 0;
  std::vector<ByteBuf> fresh = mine_signatures(
      submissions, *benign_ref_, 12,
      /*max_sigs=*/64, /*min_doc_frac=*/std::max(0.08, profile_.min_doc_frac));
  for (ByteBuf& sig : fresh) sigs_.add(std::move(sig));
  return fresh.size();
}

void CommercialAv::save(util::Archive& ar) const {
  ar.tag("commercial-av");
  ar.str(profile_.name);
  ar.f64(threshold());
  ar.u32(static_cast<std::uint32_t>(profile_.model));
  if (gbdt_) gbdt_->save(ar);
  if (net_) net_->save(ar);
  sigs_.save(ar);
  ar.u32(static_cast<std::uint32_t>(benign_ref_->size()));
  for (const ByteBuf& b : *benign_ref_) ar.bytes(b);
}

void CommercialAv::load(util::Unarchive& ar) {
  ar.tag("commercial-av");
  profile_.name = ar.str();
  set_threshold(ar.f64());
  const auto model = static_cast<AvProfile::Model>(ar.u32());
  if (model != profile_.model)
    throw util::ParseError("commercial-av: model kind mismatch");
  if (gbdt_) gbdt_->load(ar);
  if (net_) net_->load(ar);
  sigs_.load(ar);
  std::vector<ByteBuf> benign(ar.count(4));
  for (ByteBuf& b : benign) b = ar.bytes();
  benign_ref_ =
      std::make_shared<const std::vector<ByteBuf>>(std::move(benign));
}

}  // namespace mpass::detect
