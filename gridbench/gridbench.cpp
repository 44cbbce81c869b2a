// Attack-grid benchmark program.
//
//   gridbench prepare                 train the model zoo into MPASS_CACHE_DIR
//   gridbench selftest                decorator transparency + thread invariance
//   gridbench run --workload W --seed S --seconds T --trace 0|1
//
// `run` builds a detect::ModelZoo from the cache `prepare` wrote, selects
// samples with harness::make_attack_set and attacks with harness::make_attack,
// then runs the workload's cells the way run_grid does: one task per cell on
// a private 2-thread util::ThreadPool, each calling harness::run_cell, which
// fans out one task per sample. A run repeats the cells in rounds, as many
// whole rounds as fit in --seconds. The last stdout line is the JSON result.
//
// Workloads (see BENCHMARK.json and README.md for why each exists):
//   mpass-grad       MPass x {MalConv, NonNeg, LightGBM, MalGCG}, budget 1
//   query-baselines  {RLA, MAB, GAMMA} x {4 offline models, AV1-AV5}, budget 100
//   malrnn-gen       MalRNN x {MalConv, LightGBM}, budget 30
// mpass-grad's budget is 1, not 30: at 30 a sample takes 0.2 s (evades on
// the first query) to 13 s (spends the budget), too bimodal for the ~16
// samples a run can afford to give a steady median; at 1 every sample does
// the same gradient-path work.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"
#include "probes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vm/sandbox.hpp"

namespace gridbench {
namespace {

using mpass::util::ByteBuf;
using mpass::util::median;
namespace detect = mpass::detect;
namespace harness = mpass::harness;

constexpr std::size_t kThreads = 2;
constexpr int kSetupRepeats = 5;

const std::vector<std::string> kAttacks = {"MPass", "RLA", "MAB", "GAMMA",
                                           "MalRNN"};
const std::vector<std::string> kSpans = {
    "core.opt_step", "ml.forward_delta", "ml.byteconv.forward",
    "ml.byteconv.backward", "pem.run", "core.modification",
    "pe.parse", "pe.build", "detect.features"};
const std::vector<std::string> kKinds = {"bytenet", "gbdt", "avsim"};

struct Workload {
  std::string name;
  std::vector<std::string> attacks;
  std::vector<std::string> offline_targets;
  bool avs = false;
  std::size_t budget = 0;
  std::size_t n = 0;  // samples per cell
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"mpass-grad", {"MPass"}, {"MalConv", "NonNeg", "LightGBM", "MalGCG"},
       false, 1, 30},
      {"query-baselines", {"RLA", "MAB", "GAMMA"},
       {"MalConv", "NonNeg", "LightGBM", "MalGCG"}, true, 100, 13},
      {"malrnn-gen", {"MalRNN"}, {"MalConv", "LightGBM"}, false, 30, 5},
  };
  return kWorkloads;
}

// ---- setup --------------------------------------------------------------------

/// Everything a round needs. Built kSetupRepeats times per run; setup_s is
/// the median.
struct Setup {
  std::unique_ptr<detect::ModelZoo> zoo;
  std::vector<detect::Detector*> targets;
  std::vector<ByteBuf> samples;
  struct Cell {
    detect::Detector* target;
    std::unique_ptr<mpass::attack::Attack> attack;
  };
  std::vector<Cell> cells;  // target-major, as run_grid orders them
};

detect::ZooConfig zoo_config() {
  detect::ZooConfig cfg;  // library defaults; cached under MPASS_CACHE_DIR
  cfg.use_cache = true;
  return cfg;
}

Setup make_setup(const Workload& w, std::uint64_t seed) {
  Setup s;
  s.zoo = std::make_unique<detect::ModelZoo>(zoo_config());
  std::vector<const detect::Detector*> gate;
  for (detect::Detector* d : s.zoo->offline()) gate.push_back(d);
  for (const std::string& name : w.offline_targets)
    s.targets.push_back(&s.zoo->offline_by_name(name));
  if (w.avs)
    for (const auto& av : s.zoo->avs()) {
      gate.push_back(av.get());
      s.targets.push_back(av.get());
    }
  s.samples = harness::make_attack_set(gate, w.n, seed);
  if (s.samples.size() != w.n)
    throw std::runtime_error("attack set: only " +
                             std::to_string(s.samples.size()) + " of " +
                             std::to_string(w.n) + " samples pass the gate");
  for (detect::Detector* t : s.targets)
    for (const std::string& a : w.attacks)
      s.cells.push_back({t, harness::make_attack(a, *s.zoo, t->name())});
  return s;
}

// ---- rounds -------------------------------------------------------------------

struct Round {
  double wall_ms = 0.0;
  std::vector<harness::CellStats> cells;
  std::shared_ptr<Sink> sink = std::make_shared<Sink>();
};

/// Runs every cell once. `traced` additionally wraps each target in a
/// ProbedDetector; the attack wrapper (two clock reads per sample) is always
/// on because per-sample times are end-to-end metrics.
Round run_round(Setup& s, const harness::ExperimentConfig& cfg,
                mpass::util::ThreadPool& pool, bool traced) {
  Round r;
  std::vector<std::unique_ptr<ProbedAttack>> attacks;
  std::vector<std::unique_ptr<detect::Detector>> targets;
  for (Setup::Cell& c : s.cells) {
    attacks.push_back(std::make_unique<ProbedAttack>(
        *c.attack, std::string(c.target->name()), r.sink));
    if (traced)
      targets.push_back(std::make_unique<ProbedDetector>(
          c.target->clone(), std::string(c.attack->name()), r.sink));
  }
  const auto t0 = Clock::now();
  std::vector<std::future<harness::CellStats>> futs;
  for (std::size_t i = 0; i < s.cells.size(); ++i)
    futs.push_back(pool.submit([&, i] {
      const detect::Detector& t = traced ? *targets[i] : *s.cells[i].target;
      return harness::run_cell(*attacks[i], t, s.samples, s.samples, cfg,
                               &pool);
    }));
  // Plain get(): the calling thread does not help, so exactly kThreads
  // threads execute cells and samples.
  for (auto& f : futs) r.cells.push_back(f.get());
  r.wall_ms = ms_since(t0);
  attacks.clear();
  targets.clear();
  return r;
}

std::vector<std::uint64_t> digests_of(const Round& r) {
  std::vector<std::uint64_t> d;
  for (const harness::CellStats& c : r.cells) d.push_back(c.result_digest());
  return d;
}

// ---- output checks ----------------------------------------------------------

struct Checks {
  std::size_t failed = 0;
  std::vector<double> sandbox_ms;  // one per AE checked

  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "gridbench: check failed: %s\n", what.c_str());
  }
};

/// Invariants of one round that do not depend on other rounds.
void check_round(const Round& r, const Setup& s, std::size_t budget,
                 Checks& ck) {
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const harness::CellStats& c = r.cells[i];
    const std::string cell = c.attack + " x " + c.target;
    ck.expect(c.n == s.samples.size(), cell + ": n");
    ck.expect(c.successes <= c.n, cell + ": successes > n");
    ck.expect(c.total_queries <= c.n * budget, cell + ": queries > n*budget");
    std::size_t runs = 0;
    for (const RunRecord& rec : r.sink->runs)
      if (rec.attack == c.attack && rec.target == c.target) ++runs;
    // One fresh clone run per sample: no result-cache hit and no
    // sequential fallback.
    ck.expect(runs == c.n, cell + ": attack runs != samples");
  }
}

/// Every AE is benign to a fresh clone of its target and keeps the
/// original's sandbox behaviour. AEs are mapped back to their original
/// through the digests the attack wrapper recorded.
void check_aes(const Round& r, const Setup& s, Checks& ck) {
  std::map<std::uint64_t, const ByteBuf*> by_digest;
  for (const ByteBuf& b : s.samples) by_digest[mpass::util::fnv1a64(b)] = &b;
  const mpass::vm::Sandbox sandbox;
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const harness::CellStats& c = r.cells[i];
    const std::unique_ptr<detect::Detector> fresh = s.cells[i].target->clone();
    for (const ByteBuf& ae : c.aes) {
      const std::uint64_t d = mpass::util::fnv1a64(ae);
      const ByteBuf* orig = nullptr;
      for (const RunRecord& rec : r.sink->runs)
        if (rec.attack == c.attack && rec.target == c.target &&
            rec.ae_digest == d)
          orig = by_digest[rec.sample_digest];
      const std::string cell = c.attack + " x " + c.target;
      ck.expect(orig != nullptr, cell + ": AE without a recorded original");
      ck.expect(!fresh->is_malicious(ae), cell + ": AE detected by target");
      if (!orig) continue;
      const auto t0 = Clock::now();
      const bool ok = sandbox.functionality_preserved(*orig, ae);
      ck.sandbox_ms.push_back(ms_since(t0));
      ck.expect(ok, cell + ": AE fails the sandbox check");
    }
  }
}

/// Compares digests with those an earlier run of this build and seed
/// persisted (traced and untraced runs share the file).
void check_persisted(const std::string& workload, std::uint64_t seed,
                     const std::vector<std::uint64_t>& digests, Checks& ck) {
  const auto dir = mpass::util::cache_dir() / "digests";
  std::filesystem::create_directories(dir);
  const auto path = dir / (workload + "-" + std::to_string(seed) + ".txt");
  std::vector<std::uint64_t> prior;
  if (std::ifstream in(path); in)
    for (std::uint64_t d; in >> d;) prior.push_back(d);
  if (!prior.empty()) {
    ck.expect(prior == digests, "digests differ from an earlier run of seed " +
                                    std::to_string(seed));
    return;
  }
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    for (std::uint64_t d : digests) out << d << '\n';
  }
  std::filesystem::rename(tmp, path);
}

// ---- statistics and output -------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Leaf-span (count, total) summed over every call path ending in the site.
/// Totals only: inherited self times go negative across threads.
std::map<std::string, std::pair<double, double>> span_totals() {
  std::map<std::string, std::pair<double, double>> out;
  for (const mpass::obs::SpanRow& row : mpass::obs::span_snapshot()) {
    const auto slash = row.path.rfind('/');
    const std::string site =
        slash == std::string::npos ? row.path : row.path.substr(slash + 1);
    auto& [count, ms] = out[site];
    count += static_cast<double>(row.count);
    ms += static_cast<double>(row.total_ns) / 1e6;
  }
  return out;
}

double busy_ms(const Round& r) {
  double ms = 0.0;
  for (const harness::CellStats& c : r.cells) ms += c.wall_ms;
  return ms;
}

/// Per-layer metrics of one traced round (see BENCHMARK.json per_layer).
std::vector<Metric> layer_metrics(
    const Round& traced, const Round& untraced,
    const std::map<std::string, std::pair<double, double>>& spans_before,
    const std::map<std::string, std::pair<double, double>>& spans_after,
    const Checks& ck, double gru_us_per_byte, std::size_t attempted) {
  std::vector<Metric> m;
  double run_ms_all = 0.0;
  std::size_t successes = 0;
  for (const std::string& a : kAttacks) {
    double runs = 0, run_ms = 0, oracle_ms = 0, ok = 0;
    for (const RunRecord& rec : traced.sink->runs)
      if (rec.attack == a) {
        ++runs;
        run_ms += rec.run_ms;
        oracle_ms += rec.oracle_ms;
        ok += rec.success ? 1 : 0;
      }
    run_ms_all += run_ms;
    successes += static_cast<std::size_t>(ok);
    m.push_back({"attack." + a + ".runs", runs, "count"});
    m.push_back({"attack." + a + ".run_ms", run_ms, "ms"});
    m.push_back({"attack." + a + ".self_ms", run_ms - oracle_ms, "ms"});
    m.push_back({"attack." + a + ".success_frac", runs ? ok / runs : 0.0,
                 "fraction"});
  }
  for (const std::string& k : kKinds) {
    double calls = 0, ms = 0;
    for (const ScoreRecord& rec : traced.sink->scores)
      if (rec.kind == k) {
        calls += static_cast<double>(rec.calls);
        ms += rec.busy_ms;
      }
    m.push_back({"detectors.score." + k + ".calls", calls, "count"});
    m.push_back({"detectors.score." + k + ".busy_ms", ms, "ms"});
    m.push_back({"detectors.score." + k + ".us_per_call",
                 calls ? 1000.0 * ms / calls : 0.0, "us"});
  }
  for (const std::string& a : kAttacks) {
    double sum = 0, n = 0;
    for (const ScoreRecord& rec : traced.sink->scores)
      if (rec.attack == a && rec.first_benign > 0) {
        sum += static_cast<double>(rec.first_benign);
        ++n;
      }
    m.push_back({"detectors.first_benign_query." + a, n ? sum / n : 0.0,
                 "queries"});
  }
  for (const std::string& site : kSpans) {
    const auto get = [&](const auto& snap) {
      const auto it = snap.find(site);
      return it == snap.end() ? std::pair<double, double>{0, 0} : it->second;
    };
    const auto [c1, t1] = get(spans_after);
    const auto [c0, t0] = get(spans_before);
    m.push_back({site + ".count", c1 - c0, "count"});
    m.push_back({site + ".total_ms", t1 - t0, "ms"});
  }
  const double sandbox = median(ck.sandbox_ms);
  m.push_back({"vm.sandbox.ms_per_check", sandbox, "ms"});
  m.push_back({"ml.gru.us_per_byte", gru_us_per_byte, "us"});
  const double busy = busy_ms(traced);
  m.push_back({"util.pool.busy_frac",
               busy / (static_cast<double>(kThreads) * traced.wall_ms),
               "fraction"});
  // Rows above that cover cell busy time: Attack::run (which contains the
  // oracle, detector and span rows) and the sandbox check run_cell does on
  // each success, estimated from the timed re-checks.
  const double covered = run_ms_all + sandbox * static_cast<double>(successes);
  m.push_back({"unattributed_frac",
               busy > 0 ? std::max(0.0, busy - covered) / busy : 0.0,
               "fraction"});
  m.push_back({"trace.overhead_ratio",
               busy_ms(untraced) > 0 ? busy / busy_ms(untraced) : 0.0,
               "ratio"});
  std::size_t n = 0, ok = 0;
  for (const harness::CellStats& c : traced.cells) {
    n += c.n;
    ok += c.successes;
  }
  m.push_back({"asr_pct", n ? 100.0 * static_cast<double>(ok) /
                                  static_cast<double>(n)
                            : 0.0,
               "%"});
  m.push_back({"failed_frac",
               static_cast<double>(ck.failed) / static_cast<double>(attempted),
               "fraction"});
  return m;
}

double time_gru(detect::ModelZoo& zoo, const ByteBuf& context,
                std::uint64_t seed) {
  constexpr std::size_t kBytes = 8192;
  std::vector<double> us;
  for (int i = 0; i < 3; ++i) {
    mpass::util::Rng rng(seed + static_cast<std::uint64_t>(i));
    const auto t0 = Clock::now();
    const ByteBuf out = zoo.benign_lm().generate(kBytes, rng, context);
    us.push_back(1000.0 * ms_since(t0) / static_cast<double>(out.size()));
  }
  return median(us);
}

// ---- commands -----------------------------------------------------------------

int cmd_prepare() {
  detect::ModelZoo zoo(zoo_config());
  zoo.avs();
  return 0;
}

/// End-to-end metrics of the untraced rounds (see BENCHMARK.json).
std::vector<Metric> end_to_end_metrics(const std::vector<Round>& rounds,
                                       const std::vector<double>& setup_s,
                                       const Workload& w, std::uint64_t seed) {
  // Per-(attack, target, sample) time: the median over rounds, so the
  // percentiles are over a fixed set of distinct samples.
  std::map<std::tuple<std::string, std::string, std::uint64_t>,
           std::vector<double>>
      per_sample;
  double wall_ms = 0.0, queries = 0.0, samples = 0.0;
  std::vector<double> round_s;
  for (const Round& r : rounds) {
    for (const RunRecord& rec : r.sink->runs)
      per_sample[{rec.attack, rec.target, rec.sample_digest}].push_back(
          rec.sample_ms);
    for (const harness::CellStats& c : r.cells) {
      queries += static_cast<double>(c.total_queries);
      samples += static_cast<double>(c.n);
    }
    wall_ms += r.wall_ms;
    round_s.push_back(r.wall_ms / 1000.0);
  }
  std::vector<double> sample_ms;
  for (const auto& [key, v] : per_sample) sample_ms.push_back(median(v));
  std::sort(sample_ms.begin(), sample_ms.end());
  // Highest percentile with at least 10 samples beyond it; the maximum when
  // that percentile would not lie above the median.
  const std::size_t n = sample_ms.size();
  const std::size_t tail_idx = n >= 22 ? n - 11 : n - 1;
  std::printf("gridbench: %s seed %llu: %zu rounds, %zu distinct samples, "
              "tail = p%.1f\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              rounds.size(), n,
              100.0 * static_cast<double>(tail_idx + 1) /
                  static_cast<double>(n));
  return {
      {"setup_s", median(setup_s), "s"},
      {"wall_s", median(round_s), "s"},
      {"samples_per_s", samples / (wall_ms / 1000.0), "1/s"},
      {"queries_per_s", queries / (wall_ms / 1000.0), "1/s"},
      {"sample_ms_p50", median(sample_ms), "ms"},
      {"sample_ms_tail", sample_ms[tail_idx], "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

int cmd_run(const Workload& w, std::uint64_t seed, double seconds,
            bool trace) {
  harness::ExperimentConfig cfg;
  cfg.n_samples = w.n;
  cfg.max_queries = w.budget;
  cfg.seed = seed;
  cfg.use_cache = false;

  std::vector<double> setup_s;
  std::optional<Setup> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.reset();  // release the previous zoo before timing the next
    const auto t0 = Clock::now();
    setup.emplace(make_setup(w, seed));
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  Setup& s = *setup;

  mpass::util::ThreadPool pool(kThreads);
  Checks ck;
  std::vector<Round> rounds;
  std::size_t attempted = 0;
  const auto add_round = [&](bool traced) {
    rounds.push_back(run_round(s, cfg, pool, traced));
    check_round(rounds.back(), s, w.budget, ck);
    attempted += rounds.back().sink->runs.size();
  };

  std::map<std::string, std::pair<double, double>> spans_before, spans_after;
  if (trace) {
    // One untraced round, then the traced one whose layers are reported.
    add_round(false);
    spans_before = span_totals();
    add_round(true);
    spans_after = span_totals();
  } else {
    // As many whole rounds as fit in --seconds, judged by the rounds so
    // far, and at least one.
    double measured_ms = 0.0;
    do {
      add_round(false);
      measured_ms += rounds.back().wall_ms;
    } while (measured_ms * (1.0 + 1.0 / static_cast<double>(rounds.size())) <=
             1000.0 * seconds);
  }

  check_aes(rounds[0], s, ck);
  check_persisted(w.name, seed, digests_of(rounds[0]), ck);
  for (const Round& r : rounds)
    ck.expect(digests_of(r) == digests_of(rounds[0]),
              "digests differ between rounds of one seed");

  const std::vector<Metric> metrics =
      trace ? layer_metrics(rounds[1], rounds[0], spans_before, spans_after,
                            ck, time_gru(*s.zoo, s.samples.front(), seed),
                            attempted)
            : end_to_end_metrics(rounds, setup_s, w, seed);
  print_result(ck.failed == 0, attempted, ck.failed, metrics);
  return 0;
}

// ---- self-test ------------------------------------------------------------------

/// The decorators must be transparent and results thread-count invariant:
/// per-cell digests of plain run_cell on 1 and 2 threads, and of the fully
/// decorated run on 2 threads, must all agree.
int cmd_selftest() {
  Workload w{"selftest", {"MPass", "RLA", "MalRNN"}, {"MalConv", "LightGBM"},
             false, 8, 2};
  harness::ExperimentConfig cfg;
  cfg.n_samples = w.n;
  cfg.max_queries = w.budget;
  cfg.seed = 11;
  cfg.use_cache = false;
  Setup s = make_setup(w, cfg.seed);

  const auto plain = [&](std::size_t threads) {
    mpass::util::ThreadPool pool(threads);
    std::vector<std::uint64_t> d;
    for (Setup::Cell& c : s.cells)
      d.push_back(harness::run_cell(*c.attack, *c.target, s.samples,
                                    s.samples, cfg, &pool)
                      .result_digest());
    return d;
  };
  const std::vector<std::uint64_t> one = plain(1);
  const std::vector<std::uint64_t> two = plain(2);
  mpass::util::ThreadPool pool(kThreads);
  const Round probed = run_round(s, cfg, pool, true);
  Checks ck;
  check_round(probed, s, w.budget, ck);
  ck.expect(one == two, "plain run_cell differs between 1 and 2 threads");
  ck.expect(digests_of(probed) == two, "decorators change result digests");
  std::printf("gridbench selftest: %zu cells, %s\n", s.cells.size(),
              ck.failed ? "FAIL" : "ok");
  return ck.failed ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gridbench prepare | selftest | run --workload W "
               "--seed S --seconds T --trace 0|1\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  mpass::obs::set_log_level(mpass::obs::LogLevel::Warn);
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "prepare") return cmd_prepare();
  if (cmd == "selftest") return cmd_selftest();
  if (cmd != "run") return usage();
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::stoull(val);
    else if (key == "--seconds") seconds = std::stod(val);
    else if (key == "--trace") trace = std::stoi(val);
    else return usage();
  }
  for (const Workload& w : workloads())
    if (w.name == workload && seconds > 0 && (trace == 0 || trace == 1))
      return cmd_run(w, seed, seconds, trace == 1);
  return usage();
}

}  // namespace
}  // namespace gridbench

int main(int argc, char** argv) {
  try {
    return gridbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gridbench: %s\n", e.what());
    return 1;
  }
}
