// Shared table-rendering helpers for the per-table bench binaries, plus the
// machine-readable BENCH_<name>.json report every bench emits (BenchReport).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace mpass::bench {

/// Finds a cell by (attack, target); aborts with a message if missing.
inline const harness::CellStats& cell(
    const std::vector<harness::CellStats>& cells, std::string_view attack,
    std::string_view target) {
  for (const harness::CellStats& c : cells)
    if (c.attack == attack && c.target == target) return c;
  std::fprintf(stderr, "missing cell %s x %s\n", std::string(attack).c_str(),
               std::string(target).c_str());
  std::abort();
}

/// Prints one paper-style table: rows = targets, columns = attacks,
/// metric picked by the selector.
template <typename Selector>
void print_grid(const std::string& title,
                const std::vector<harness::CellStats>& cells,
                const std::vector<std::string>& targets,
                const std::vector<std::string>& attacks, Selector metric,
                int decimals = 1) {
  util::Table table(title);
  std::vector<std::string> header = {"Models"};
  header.insert(header.end(), attacks.begin(), attacks.end());
  table.header(header);
  for (const std::string& t : targets) {
    std::vector<std::string> row = {t};
    for (const std::string& a : attacks)
      row.push_back(util::Table::num(metric(cell(cells, a, t)), decimals));
    table.row(row);
  }
  std::cout << table.render() << std::flush;
}

inline std::vector<std::string> offline_targets() {
  return {"MalConv", "NonNeg", "LightGBM", "MalGCG"};
}

inline std::vector<std::string> av_targets() {
  return {"AV1", "AV2", "AV3", "AV4", "AV5"};
}

inline std::vector<std::string> main_attacks() {
  return {"MPass", "RLA", "MAB", "GAMMA", "MalRNN"};
}

/// Prints the per-cell compute-time / query-throughput counters collected
/// by run_cell (all ~0 when the grid came straight from the result cache).
/// wall_ms sums sample-task durations, so cells are comparable even though
/// they interleave on the shared pool.
inline void print_cell_timings(const std::vector<harness::CellStats>& cells) {
  double total_ms = 0.0;
  std::size_t total_q = 0;
  for (const harness::CellStats& c : cells) {
    total_ms += c.wall_ms;
    total_q += c.total_queries;
  }
  std::printf("cell timing: %zu queries in %.0f ms cpu-cell time (threads=%zu)\n",
              total_q, total_ms, util::ThreadPool::instance().size());
  for (const harness::CellStats& c : cells)
    if (c.wall_ms > 0.0)
      std::printf("  %-12s vs %-10s %8.0f ms %8.0f q/s\n", c.attack.c_str(),
                  c.target.c_str(), c.wall_ms, c.qps);
}

/// Prints the span paths with the most self time in this process: where
/// the run's compute went (near-zero when the grid was served from the
/// result cache).
inline void print_top_timers(std::size_t top_n = 8) {
  std::vector<obs::SpanProfileRow> rows;
  for (const obs::SpanRow& r : obs::span_snapshot())
    rows.push_back({r.path, r.count, static_cast<double>(r.total_ns) / 1e6,
                    static_cast<double>(r.self_ns()) / 1e6});
  std::fputs(obs::render_span_top(rows, top_n).c_str(), stdout);
}

/// Machine-readable per-bench report. Construct at the top of main, feed it
/// every cell the bench computed, and on destruction it writes
/// BENCH_<name>.json (schema v1: wall_ms, one CellStats::write_json record
/// per cell, merged span profile, build metadata) to $MPASS_BENCH_DIR
/// (created if needed) or the working directory, then flushes any MPASS_PROFILE trace. The schema is
/// documented in docs/OBSERVABILITY.md and consumed by tools/mpass_prof
/// (collect / compare) and scripts/run_all_benches.sh.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), t0_(std::chrono::steady_clock::now()) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void add_cells(const std::vector<harness::CellStats>& cells) {
    for (const harness::CellStats& c : cells) {
      obs::JsonLine cell;
      c.write_json(cell);
      if (!cells_.empty()) cells_ += ',';
      cells_ += cell.take();
    }
  }

  ~BenchReport() {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0_)
            .count();

    obs::JsonLine build;
    build.str("compiler", __VERSION__);
#ifdef NDEBUG
    build.str("build_type", "Release");
#else
    build.str("build_type", "Debug");
#endif
    build.num("threads",
              static_cast<double>(util::ThreadPool::instance().size()));

    obs::JsonLine env;
    for (const char* var : {"MPASS_N", "MPASS_MAX_QUERIES", "MPASS_THREADS",
                            "MPASS_NO_CACHE", "MPASS_TRAIN_MAL"})
      if (const char* v = std::getenv(var)) env.str(var, v);

    const std::string spans = obs::spans_to_json(obs::span_snapshot());
    std::string out = obs::JsonLine()
                          .num("schema_version", 1)
                          .str("bench", name_)
                          .num("wall_ms", wall_ms)
                          .raw("build", build.take())
                          .raw("env", env.take())
                          .raw("cells", "[" + cells_ + "]")
                          .raw("spans", spans)
                          .take();
    out += '\n';

    std::filesystem::path dir = ".";
    if (const char* d = std::getenv("MPASS_BENCH_DIR"); d && *d) dir = d;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::filesystem::path path = dir / ("BENCH_" + name_ + ".json");
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (f) {
      f.write(out.data(), static_cast<std::streamsize>(out.size()));
      std::fprintf(stderr, "[bench] wrote %s\n", path.string().c_str());
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n", path.string().c_str());
    }

    obs::flush_profile();
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point t0_;
  std::string cells_;  // serialized cells, comma-separated
};

}  // namespace mpass::bench
