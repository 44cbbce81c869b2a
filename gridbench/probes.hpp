// Clone-preserving decorators the benchmark wraps around Attack and
// Detector, so per-sample and per-layer timings are taken from the outside
// without touching the library. Both forward every call unchanged (name,
// threshold, scores, results), so CellStats::result_digest() is the same
// as for the undecorated objects -- the self-test checks this.
//
// run_cell() gives every sample task its own attack clone and target clone;
// the clones record into a shared, mutex-guarded Sink when they are
// destroyed at the end of the task. Prototype clones that run_cell makes to
// probe the clone contract never run and record nothing.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "detectors/avsim.hpp"
#include "detectors/models.hpp"
#include "util/hashing.hpp"

namespace gridbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One attacked (attack, target, sample) triple.
struct RunRecord {
  std::string attack;
  std::string target;
  std::uint64_t sample_digest = 0;
  std::uint64_t ae_digest = 0;  // fnv1a64 of the AE; 0 on failure
  bool success = false;
  double run_ms = 0.0;     // Attack::run
  double oracle_ms = 0.0;  // Detector::score inside run() (traced only)
  double sample_ms = 0.0;  // clone + run + sandbox check + teardown
};

/// One target clone's scoring work, i.e. one sample's oracle traffic.
struct ScoreRecord {
  std::string attack;
  std::string kind;  // bytenet | gbdt | avsim
  std::size_t calls = 0;
  double busy_ms = 0.0;
  std::size_t first_benign = 0;  // 1-based query index; 0 = never benign
};

struct Sink {
  std::mutex mu;
  std::vector<RunRecord> runs;
  std::vector<ScoreRecord> scores;

  void add(RunRecord r) {
    const std::lock_guard<std::mutex> lock(mu);
    runs.push_back(std::move(r));
  }
  void add(ScoreRecord r) {
    const std::lock_guard<std::mutex> lock(mu);
    scores.push_back(std::move(r));
  }
};

// Score time of the detector clones used on this thread. A sample task runs
// on one thread from clone to teardown and attacks never submit pool work,
// so the delta around Attack::run is that run's oracle time.
inline thread_local double t_oracle_ms = 0.0;

inline std::string_view detector_kind(const mpass::detect::Detector& d) {
  if (dynamic_cast<const mpass::detect::ByteConvDetector*>(&d))
    return "bytenet";
  if (dynamic_cast<const mpass::detect::GbdtDetector*>(&d)) return "gbdt";
  if (dynamic_cast<const mpass::detect::CommercialAv*>(&d)) return "avsim";
  return "other";
}

/// Times every score() call of the wrapped detector (traced runs only).
class ProbedDetector : public mpass::detect::Detector {
 public:
  ProbedDetector(std::unique_ptr<mpass::detect::Detector> inner,
                 std::string attack, std::shared_ptr<Sink> sink)
      : inner_(std::move(inner)),
        attack_(std::move(attack)),
        sink_(std::move(sink)) {
    set_threshold(inner_->threshold());
  }

  ~ProbedDetector() override {
    if (calls_ == 0) return;
    sink_->add(ScoreRecord{attack_, std::string(detector_kind(*inner_)),
                           calls_, busy_ms_, first_benign_});
  }

  ProbedDetector(const ProbedDetector&) = delete;
  ProbedDetector& operator=(const ProbedDetector&) = delete;

  std::string_view name() const override { return inner_->name(); }

  double score(std::span<const std::uint8_t> bytes) const override {
    const auto t0 = Clock::now();
    const double s = inner_->score(bytes);
    const double ms = ms_since(t0);
    ++calls_;
    busy_ms_ += ms;
    t_oracle_ms += ms;
    if (first_benign_ == 0 && s < threshold()) first_benign_ = calls_;
    return s;
  }

  std::unique_ptr<mpass::detect::Detector> clone() const override {
    auto inner = inner_->clone();
    if (!inner) return nullptr;
    return std::make_unique<ProbedDetector>(std::move(inner), attack_, sink_);
  }

 private:
  std::unique_ptr<mpass::detect::Detector> inner_;
  std::string attack_;
  std::shared_ptr<Sink> sink_;
  mutable std::size_t calls_ = 0;
  mutable double busy_ms_ = 0.0;
  mutable std::size_t first_benign_ = 0;
};

/// Times Attack::run and, for the clone run_cell makes per sample, the whole
/// sample task from the clone call to the clone's destruction.
class ProbedAttack : public mpass::attack::Attack {
 public:
  /// Wraps a prototype the caller keeps alive.
  ProbedAttack(mpass::attack::Attack& proto, std::string target,
               std::shared_ptr<Sink> sink)
      : inner_(&proto), target_(std::move(target)), sink_(std::move(sink)) {}

  ~ProbedAttack() override {
    if (!ran_) return;
    rec_.sample_ms = ms_since(born_);
    sink_->add(std::move(rec_));
  }

  ProbedAttack(const ProbedAttack&) = delete;
  ProbedAttack& operator=(const ProbedAttack&) = delete;

  std::string_view name() const override { return inner_->name(); }

  mpass::attack::AttackResult run(std::span<const std::uint8_t> malware,
                                  mpass::detect::HardLabelOracle& oracle,
                                  std::uint64_t seed) override {
    const double oracle0 = t_oracle_ms;
    const auto t0 = Clock::now();
    mpass::attack::AttackResult r = inner_->run(malware, oracle, seed);
    rec_.run_ms += ms_since(t0);
    rec_.oracle_ms += t_oracle_ms - oracle0;
    rec_.attack = std::string(inner_->name());
    rec_.target = target_;
    rec_.sample_digest = mpass::util::fnv1a64(malware);
    rec_.success = r.success;
    rec_.ae_digest = r.success ? mpass::util::fnv1a64(r.adversarial) : 0;
    ran_ = true;
    return r;
  }

  std::unique_ptr<mpass::attack::Attack> clone() const override {
    const auto born = Clock::now();
    auto inner = inner_->clone();
    if (!inner) return nullptr;
    return std::unique_ptr<ProbedAttack>(
        new ProbedAttack(std::move(inner), target_, sink_, born));
  }

 private:
  ProbedAttack(std::unique_ptr<mpass::attack::Attack> owned,
               std::string target, std::shared_ptr<Sink> sink,
               Clock::time_point born)
      : owned_(std::move(owned)),
        inner_(owned_.get()),
        target_(std::move(target)),
        sink_(std::move(sink)),
        born_(born) {}

  std::unique_ptr<mpass::attack::Attack> owned_;
  mpass::attack::Attack* inner_;
  std::string target_;
  std::shared_ptr<Sink> sink_;
  Clock::time_point born_ = Clock::now();
  RunRecord rec_;
  bool ran_ = false;
};

}  // namespace gridbench
