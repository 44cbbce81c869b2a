// Trace inspector for MPASS_TRACE directories and metrics snapshots.
//
//   mpass_trace check <dir>      validate every JSONL line + reconcile
//                                query budgets (exit 1 on violations)
//   mpass_trace summary <dir>    per-attack query-budget breakdown and
//                                ensemble-loss curves; --spans adds the
//                                top call-path self-times from spans.json
//   mpass_trace diff <a> <b>     compare two metrics.json snapshots
//
// `--check` is accepted as an alias of `check` (CI convenience).
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace_check.hpp"
#include "util/serialize.hpp"

namespace {

using mpass::obs::CellTraceData;
using mpass::obs::Json;
using mpass::obs::SampleTraceData;
using mpass::obs::TraceCheckReport;

int usage() {
  std::fprintf(stderr,
               "usage: mpass_trace check <trace-dir>\n"
               "       mpass_trace summary <trace-dir> [--spans [N]]\n"
               "       mpass_trace diff <a/metrics.json> <b/metrics.json>\n");
  return 2;
}

int run_check(const std::filesystem::path& dir) {
  const TraceCheckReport rep = mpass::obs::check_trace_dir(dir);
  std::printf("%s: %zu files, %zu lines, %zu sample traces, %zu cells\n",
              dir.string().c_str(), rep.files, rep.lines,
              rep.data.samples.size(), rep.data.cells.size());
  for (const std::string& w : rep.warnings)
    std::printf("warning: %s\n", w.c_str());
  for (const std::string& e : rep.errors)
    std::printf("error: %s\n", e.c_str());
  std::printf("%s\n", rep.ok() ? "OK" : "FAILED");
  return rep.ok() ? 0 : 1;
}

/// Renders one sample's opt-loss curve as a compact sparkline-ish row of
/// bucket means (10 columns over the iteration range).
std::string loss_curve(const std::vector<SampleTraceData::Opt>& opts) {
  if (opts.empty()) return "(no opt steps)";
  constexpr std::size_t kCols = 10;
  std::string out;
  char buf[32];
  for (std::size_t c = 0; c < kCols; ++c) {
    const std::size_t lo = c * opts.size() / kCols;
    const std::size_t hi = std::max(lo + 1, (c + 1) * opts.size() / kCols);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi && i < opts.size(); ++i)
      sum += opts[i].loss;
    std::snprintf(buf, sizeof(buf), "%s%.3f", c ? " " : "",
                  sum / static_cast<double>(hi - lo));
    out += buf;
  }
  return out;
}

/// `summary --spans [N]`: top-N call-path self-times from the run's
/// spans.json (written next to metrics.json by write_metrics_snapshot).
int print_spans_section(const std::filesystem::path& dir, std::size_t top_n) {
  const std::filesystem::path path = dir / "spans.json";
  const auto blob = mpass::util::load_file(path);
  if (!blob) {
    std::printf("\n== spans ==\n(no spans.json in %s)\n",
                dir.string().c_str());
    return 0;
  }
  const auto doc = Json::parse(std::string_view(
      reinterpret_cast<const char*>(blob->data()), blob->size()));
  const auto rows = doc ? mpass::obs::parse_spans(*doc) : std::nullopt;
  if (!rows) {
    std::fprintf(stderr, "error: %s: not a valid spans document\n",
                 path.string().c_str());
    return 1;
  }
  std::printf("\n== spans (top %zu by self time) ==\n", top_n);
  std::fputs(mpass::obs::render_span_top(*rows, top_n).c_str(), stdout);
  return 0;
}

int run_summary(const std::filesystem::path& dir, bool spans,
                std::size_t spans_n) {
  const TraceCheckReport rep = mpass::obs::check_trace_dir(dir);
  if (!rep.ok()) {
    for (const std::string& e : rep.errors)
      std::fprintf(stderr, "error: %s\n", e.c_str());
    return 1;
  }

  // Per-attack aggregation across all traced samples.
  struct AttackAgg {
    std::size_t samples = 0, successes = 0, functional = 0;
    std::uint64_t queries = 0, budget = 0;
    std::uint64_t opt_steps = 0;
    std::size_t actions = 0;
    double ms = 0.0;
  };
  std::map<std::string, AttackAgg> by_attack;
  for (const SampleTraceData& s : rep.data.samples) {
    AttackAgg& a = by_attack[s.attack];
    ++a.samples;
    if (s.success) ++a.successes;
    if (s.functional) ++a.functional;
    a.queries += s.end_queries;
    a.budget += s.budget;
    a.opt_steps += s.opts.size();
    a.actions += s.actions;
    a.ms += s.ms;
  }

  std::printf("== per-attack query budget (%zu sample traces) ==\n",
              rep.data.samples.size());
  std::printf("%-16s %8s %8s %8s %10s %8s %10s %9s\n", "attack", "samples",
              "success", "queries", "budget", "used%", "opt-steps", "actions");
  for (const auto& [name, a] : by_attack) {
    const double used =
        a.budget ? 100.0 * static_cast<double>(a.queries) /
                       static_cast<double>(a.budget)
                 : 0.0;
    std::printf("%-16s %8zu %8zu %8llu %10llu %7.1f%% %10llu %9zu\n",
                name.c_str(), a.samples, a.successes,
                static_cast<unsigned long long>(a.queries),
                static_cast<unsigned long long>(a.budget), used,
                static_cast<unsigned long long>(a.opt_steps), a.actions);
  }

  // Cell reconciliation table (from cells.jsonl; later lines win).
  if (!rep.data.cells.empty()) {
    std::printf("\n== cells ==\n");
    std::printf("%-16s %-12s %5s %7s %9s %10s\n", "attack", "target", "n",
                "traced", "queries", "wall-ms");
    for (const CellTraceData& c : rep.data.cells)
      std::printf("%-16s %-12s %5llu %7llu %9llu %10.0f\n", c.attack.c_str(),
                  c.target.c_str(), static_cast<unsigned long long>(c.n),
                  static_cast<unsigned long long>(c.traced),
                  static_cast<unsigned long long>(c.total_queries), c.wall_ms);
  }

  // Loss curves: one row per traced sample that ran the optimizer, capped
  // to keep the output readable.
  constexpr std::size_t kMaxCurves = 12;
  std::size_t shown = 0;
  std::printf("\n== ensemble loss curves (bucket means, %zu max) ==\n",
              kMaxCurves);
  for (const SampleTraceData& s : rep.data.samples) {
    if (s.opts.empty()) continue;
    if (++shown > kMaxCurves) break;
    std::printf("%-10s vs %-10s %s  [%zu steps, %s]\n", s.attack.c_str(),
                s.target.c_str(), s.sample.substr(0, 8).c_str(),
                s.opts.size(), loss_curve(s.opts).c_str());
  }
  if (shown == 0) std::printf("(no optimizer traces)\n");
  if (spans) return print_spans_section(dir, spans_n);
  return 0;
}

/// Loads a metrics.json snapshot into flat name -> value pairs (counters
/// and gauges).
std::optional<std::map<std::string, double>> load_metrics(
    const std::filesystem::path& path) {
  const auto blob = mpass::util::load_file(path);
  if (!blob) {
    std::fprintf(stderr, "cannot read %s\n", path.string().c_str());
    return std::nullopt;
  }
  const auto doc =
      Json::parse(std::string_view(reinterpret_cast<const char*>(blob->data()),
                                   blob->size()));
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "%s: not a JSON object\n", path.string().c_str());
    return std::nullopt;
  }
  std::map<std::string, double> flat;
  if (const Json* counters = doc->get("counters"); counters)
    for (const auto& [name, v] : counters->fields())
      if (v.is_number()) flat[name] = v.number();
  if (const Json* gauges = doc->get("gauges"); gauges)
    for (const auto& [name, v] : gauges->fields())
      if (v.is_number()) flat[name] = v.number();
  return flat;
}

int run_diff(const std::filesystem::path& a_path,
             const std::filesystem::path& b_path) {
  const auto a = load_metrics(a_path);
  const auto b = load_metrics(b_path);
  if (!a || !b) return 2;

  std::vector<std::string> names;
  for (const auto& [name, v] : *a) names.push_back(name);
  for (const auto& [name, v] : *b)
    if (!a->count(name)) names.push_back(name);
  std::sort(names.begin(), names.end());

  std::printf("%-40s %14s %14s %14s\n", "metric", "a", "b", "delta");
  std::size_t changed = 0;
  for (const std::string& name : names) {
    const auto ia = a->find(name), ib = b->find(name);
    const double va = ia == a->end() ? 0.0 : ia->second;
    const double vb = ib == b->end() ? 0.0 : ib->second;
    if (va == vb) continue;
    ++changed;
    std::printf("%-40s %14.6g %14.6g %+14.6g\n", name.c_str(), va, vb,
                vb - va);
  }
  std::printf("%zu metrics differ (of %zu)\n", changed, names.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view cmd = argv[1];
  if (cmd == "check" || cmd == "--check") return run_check(argv[2]);
  if (cmd == "summary") {
    bool spans = false;
    std::size_t spans_n = 20;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--spans") == 0) {
        spans = true;
        if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[i + 1][0])))
          spans_n = std::strtoull(argv[++i], nullptr, 10);
      }
    }
    return run_summary(argv[2], spans, spans_n);
  }
  if (cmd == "diff") {
    if (argc < 4) return usage();
    return run_diff(argv[2], argv[3]);
  }
  return usage();
}
