// Span-profile inspector and perf-baseline gate (library: obs/profile.hpp).
//
//   mpass_prof top <file> [-n N]         self-time hotspot table
//   mpass_prof tree <file>               call-path tree with % of parent
//   mpass_prof export <file> <out.json>  synthetic aggregate flame as
//                                        Chrome trace-event JSON (Perfetto)
//   mpass_prof diff <a> <b>              per-path count and total-ms of two
//                                        span documents, changed rows only
//   mpass_prof collect <dir> [--out F] [--expect a,b,c]
//                                        merge BENCH_*.json into a
//                                        schema-versioned BENCH_SUMMARY.json;
//                                        fails on missing or unparsable
//                                        bench output
//   mpass_prof compare <baseline> <current>
//             [--threshold 0.20] [--min-ms 10] [--warn-only]
//             [--only <bench>] [--wall-only]
//                                        compare wall-ms per bench and
//                                        self-ms per span path against a
//                                        baseline; exits nonzero when any
//                                        series regressed past the threshold.
//                                        --only restricts to one bench and
//                                        --wall-only skips the per-span
//                                        series (the enforcing CI micro gate
//                                        uses both; spans stay warn-only)
//
// <file>, <a> and <b> accept a spans.json or a BENCH_<name>.json; compare
// also accepts a BENCH_SUMMARY.json. Exit codes: 0 pass, 1 regression/collect
// failure, 2 usage or parse error.
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_args.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "util/serialize.hpp"

namespace {

using mpass::obs::Json;
using namespace mpass::tools;

int usage() {
  std::fprintf(
      stderr,
      "usage: mpass_prof top <spans.json|BENCH_*.json> [-n N]\n"
      "       mpass_prof tree <spans.json|BENCH_*.json>\n"
      "       mpass_prof export <spans.json|BENCH_*.json> <out.json>\n"
      "       mpass_prof diff <a> <b>\n"
      "       mpass_prof collect <bench-dir> [--out FILE] [--expect a,b,c]\n"
      "       mpass_prof compare <baseline> <current> [--threshold 0.20]\n"
      "                  [--min-ms 10] [--warn-only] [--only <bench>]\n"
      "                  [--wall-only]\n");
  return 2;
}

std::optional<Json> load_json(const std::filesystem::path& path) {
  const auto blob = mpass::util::load_file(path);
  if (!blob) {
    std::fprintf(stderr, "mpass_prof: cannot read %s\n",
                 path.string().c_str());
    return std::nullopt;
  }
  auto doc = Json::parse(std::string_view(
      reinterpret_cast<const char*>(blob->data()), blob->size()));
  if (!doc)
    std::fprintf(stderr, "mpass_prof: %s: invalid JSON\n",
                 path.string().c_str());
  return doc;
}

std::optional<std::vector<mpass::obs::SpanProfileRow>> load_spans(
    const std::filesystem::path& path) {
  const auto doc = load_json(path);
  if (!doc) return std::nullopt;
  auto rows = mpass::obs::parse_spans(*doc);
  if (!rows)
    std::fprintf(stderr, "mpass_prof: %s: no \"spans\" array\n",
                 path.string().c_str());
  return rows;
}

int cmd_top(int argc, char** argv) {
  const auto rows = load_spans(argv[2]);
  if (!rows) return 2;
  const std::size_t n = opt_u64(argc, argv, "-n", 20);
  std::fputs(mpass::obs::render_span_top(*rows, n).c_str(), stdout);
  return 0;
}

int cmd_tree(int, char** argv) {
  const auto rows = load_spans(argv[2]);
  if (!rows) return 2;
  std::fputs(mpass::obs::render_span_tree(*rows).c_str(), stdout);
  return 0;
}

int cmd_export(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto rows = load_spans(argv[2]);
  if (!rows) return 2;
  const std::string json = mpass::obs::chrome_from_spans(*rows);
  std::ofstream out(argv[3], std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "mpass_prof: cannot write %s\n", argv[3]);
    return 2;
  }
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  std::printf("wrote %s (%zu span paths)\n", argv[3], rows->size());
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto a = load_spans(argv[2]);
  const auto b = load_spans(argv[3]);
  if (!a || !b) return 2;
  // Per path: the row in a, the row in b (zero when absent on one side).
  std::map<std::string, std::pair<mpass::obs::SpanProfileRow,
                                  mpass::obs::SpanProfileRow>>
      paths;
  for (const auto& r : *a) paths[r.path].first = r;
  for (const auto& r : *b) paths[r.path].second = r;

  std::printf("%10s %10s %12s %12s %12s  %s\n", "count-a", "count-b",
              "total-ms-a", "total-ms-b", "delta-ms", "path");
  std::size_t changed = 0;
  for (const auto& [path, ab] : paths) {
    const auto& [ra, rb] = ab;
    if (ra.count == rb.count && ra.total_ms == rb.total_ms) continue;
    ++changed;
    std::printf("%10llu %10llu %12.3f %12.3f %+12.3f  %s\n",
                static_cast<unsigned long long>(ra.count),
                static_cast<unsigned long long>(rb.count), ra.total_ms,
                rb.total_ms, rb.total_ms - ra.total_ms, path.c_str());
  }
  std::printf("%zu span paths differ (of %zu)\n", changed, paths.size());
  return 0;
}

int cmd_collect(int argc, char** argv) {
  const std::filesystem::path dir = argv[2];
  std::vector<std::string> expected;
  if (const char* e = opt(argc, argv, "--expect")) {
    std::string cur;
    for (const char* p = e;; ++p) {
      if (*p == ',' || *p == '\0') {
        if (!cur.empty()) expected.push_back(cur);
        cur.clear();
        if (*p == '\0') break;
      } else {
        cur += *p;
      }
    }
  }
  std::string error;
  const auto summary = mpass::obs::collect_bench_dir(dir, expected, &error);
  if (!summary) {
    std::fprintf(stderr, "mpass_prof: collect failed: %s\n", error.c_str());
    return 1;
  }
  const std::filesystem::path out_path =
      opt(argc, argv, "--out") ? std::filesystem::path(opt(argc, argv, "--out"))
                               : dir / "BENCH_SUMMARY.json";
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "mpass_prof: cannot write %s\n",
                 out_path.string().c_str());
    return 1;
  }
  out.write(summary->data(), static_cast<std::streamsize>(summary->size()));
  std::printf("wrote %s\n", out_path.string().c_str());
  return 0;
}

int cmd_compare(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto base = load_json(argv[2]);
  const auto cur = load_json(argv[3]);
  if (!base || !cur) return 2;

  mpass::obs::ProfCompareOptions opts;
  opts.threshold = opt_f64(argc, argv, "--threshold", opts.threshold);
  opts.min_ms = opt_f64(argc, argv, "--min-ms", opts.min_ms);
  if (const char* v = opt(argc, argv, "--only")) opts.only_bench = v;
  opts.wall_only = flag(argc, argv, "--wall-only");
  if (opts.threshold <= 0.0 || opts.min_ms < 0.0) {
    std::fprintf(stderr, "mpass_prof: bad --threshold/--min-ms\n");
    return 2;
  }

  const auto result = mpass::obs::compare_profiles(*base, *cur, opts);
  std::fputs(mpass::obs::render_compare(result, opts).c_str(), stdout);
  if (result.ok()) return 0;
  if (flag(argc, argv, "--warn-only")) {
    std::printf("(--warn-only: regressions reported, exit 0)\n");
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 3) return usage();
  const std::string_view cmd = argv[1];
  if (cmd == "top") return cmd_top(argc, argv);
  if (cmd == "tree") return cmd_tree(argc, argv);
  if (cmd == "export") return cmd_export(argc, argv);
  if (cmd == "diff") return cmd_diff(argc, argv);
  if (cmd == "collect") return cmd_collect(argc, argv);
  if (cmd == "compare") return cmd_compare(argc, argv);
  return usage();
} catch (const UsageError& e) {
  std::fprintf(stderr, "mpass_prof: %s\n", e.what());
  return usage();
}
