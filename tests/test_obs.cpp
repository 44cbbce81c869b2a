// Tests for the observability subsystem: the JSON helpers, the span
// snapshot a trace directory receives, and the JSONL trace sink round-trip
// through the trace reader/validator that backs tools/mpass_trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"

namespace mpass::obs {
namespace {

TEST(Json, LineBuilderOutputParsesBack) {
  JsonLine line;
  const std::vector<std::string> names = {"alpha", "be\"ta"};
  line.str("ev", "start")
      .str("esc", "a\"b\\c\nd")
      .num("pi", 3.25)
      .uint("big", 123456789ull)
      .boolean("yes", true)
      .hex("digest", 0xabcull)
      .strs("names", names);
  const auto doc = Json::parse(line.take());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("ev")->str(), "start");
  EXPECT_EQ(doc->get("esc")->str(), "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ(doc->get("pi")->number(), 3.25);
  EXPECT_DOUBLE_EQ(doc->get("big")->number(), 123456789.0);
  EXPECT_TRUE(doc->get("yes")->boolean());
  EXPECT_EQ(doc->get("digest")->str(), "0000000000000abc");
  ASSERT_EQ(doc->get("names")->items().size(), 2u);
  EXPECT_EQ(doc->get("names")->items()[1].str(), "be\"ta");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("{\"a\":1").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::parse("{'a':1}").has_value());
  EXPECT_TRUE(Json::parse("{\"a\":[1,2,{\"b\":null}]}").has_value());
}

/// RAII trace-dir override pointing at a fresh temp directory.
struct TraceDirGuard {
  std::filesystem::path dir;
  explicit TraceDirGuard(const char* name) {
    dir = std::filesystem::path(testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    set_trace_dir(dir);
  }
  ~TraceDirGuard() {
    set_trace_dir(std::nullopt);
    std::filesystem::remove_all(dir);
  }
};

/// Emits one complete well-formed sample trace (start..end) with `queries`
/// query events. Must mirror what the harness + oracle emit.
void emit_sample(std::string_view attack, std::string_view target,
                 std::uint64_t digest, std::uint64_t queries) {
  TraceScope scope(attack, target, digest, 7, 100);
  ASSERT_TRUE(scope.active());
  ASSERT_TRUE(tracing());
  Event("action").str("kind", "donor").uint("candidates", 4);
  for (std::uint64_t i = 1; i <= 3; ++i)
    Event("opt").uint("iter", i).num("loss", 1.0 / static_cast<double>(i));
  for (std::uint64_t i = 1; i <= queries; ++i)
    Event("query").uint("i", i).boolean("malicious", i != queries).num(
        "score", 0.5);
  Event("end")
      .boolean("success", true)
      .uint("queries", queries)
      .num("apr", 12.5)
      .num("ms", 3.0)
      .boolean("functional", true);
}

/// One cells.jsonl line as run_cell writes it: the cell record of
/// harness::CellStats::write_json between "ev" and "traced".
struct CellLine {
  const char* attack;
  const char* target;
  std::uint64_t n, successes, total_queries;
  double avq, apr, functional;
  std::uint64_t traced;
};

void append_cell(const CellLine& c) {
  append_run_line(
      "cells.jsonl",
      JsonLine()
          .str("ev", "cell")
          .str("attack", c.attack)
          .str("target", c.target)
          .uint("n", c.n)
          .num("asr", 100.0 * static_cast<double>(c.successes) /
                          static_cast<double>(c.n))
          .num("avq", c.avq)
          .num("apr", c.apr)
          .num("functional", c.functional)
          .uint("successes", c.successes)
          .uint("total_queries", c.total_queries)
          .num("wall_ms", 6.0)
          .num("qps", 2000.0)
          .uint("traced", c.traced)
          .take());
}

TEST(Trace, WriterReaderRoundTrip) {
  TraceDirGuard guard("mpass_trace_roundtrip");
  emit_sample("MPass", "MalConv", 0x1234, 5);
  EXPECT_FALSE(tracing());  // scope closed

  const auto path = guard.dir / "MPass-MalConv-0000000000001234.jsonl";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();

  std::vector<std::string> errors;
  const auto data = parse_sample_trace(ss.str(), "roundtrip", &errors);
  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->attack, "MPass");
  EXPECT_EQ(data->target, "MalConv");
  EXPECT_EQ(data->sample, "0000000000001234");
  EXPECT_EQ(data->seed, 7u);
  EXPECT_EQ(data->budget, 100u);
  ASSERT_EQ(data->queries.size(), 5u);
  EXPECT_TRUE(data->queries[0].malicious);
  EXPECT_FALSE(data->queries[4].malicious);
  EXPECT_EQ(data->opts.size(), 3u);
  EXPECT_EQ(data->actions, 1u);
  EXPECT_TRUE(data->has_end);
  EXPECT_TRUE(data->success);
  EXPECT_TRUE(data->functional);
  EXPECT_EQ(data->end_queries, 5u);
  EXPECT_DOUBLE_EQ(data->apr, 12.5);
}

TEST(Trace, CheckDirReconcilesQueryBudgets) {
  TraceDirGuard guard("mpass_trace_checkdir");
  emit_sample("MPass", "MalConv", 0x1, 5);
  emit_sample("MPass", "MalConv", 0x2, 7);
  // Both samples turn benign at their last query, with end.apr 12.5.
  append_cell({"MPass", "MalConv", 2, 2, 12, 6.0, 1250.0, 100.0, 2});
  write_span_snapshot();

  const TraceCheckReport ok = check_trace_dir(guard.dir);
  EXPECT_TRUE(ok.ok()) << ok.errors.front();
  EXPECT_EQ(ok.data.samples.size(), 2u);
  ASSERT_EQ(ok.data.cells.size(), 1u);
  EXPECT_EQ(ok.data.cells[0].total_queries, 12u);
  EXPECT_DOUBLE_EQ(ok.data.cells[0].asr, 100.0);
  EXPECT_DOUBLE_EQ(ok.data.cells[0].qps, 2000.0);
  EXPECT_EQ(ok.data.cells[0].traced, 2u);
  EXPECT_TRUE(ok.data.has_spans);

  // spans.json is versioned.
  std::ifstream in(guard.dir / "spans.json");
  std::stringstream ss;
  ss << in.rdbuf();
  const auto spans = Json::parse(ss.str());
  ASSERT_TRUE(spans.has_value());
  ASSERT_TRUE(spans->get("schema_version"));
  EXPECT_EQ(spans->get("schema_version")->number(), 1.0);
  EXPECT_TRUE(spans->get("spans") && spans->get("spans")->is_array());

  // A spans.json without its span array fails the check.
  std::ofstream(guard.dir / "spans.json", std::ios::trunc)
      << R"({"schema_version":1})";
  const TraceCheckReport no_spans = check_trace_dir(guard.dir);
  EXPECT_FALSE(no_spans.ok());
  EXPECT_FALSE(no_spans.data.has_spans);
  write_span_snapshot();
  EXPECT_TRUE(check_trace_dir(guard.dir).ok());

  // A fully-traced cell whose query totals disagree must fail the check.
  append_cell({"MPass", "MalConv", 2, 2, 99, 6.0, 1250.0, 100.0, 2});
  const TraceCheckReport bad = check_trace_dir(guard.dir);
  EXPECT_FALSE(bad.ok());
}

TEST(Trace, SpanSnapshotWritesNoMetricsJson) {
  TraceDirGuard guard("mpass_trace_spansnapshot");
  {
    OBS_SCOPE("test.obs.snapshot");
  }
  write_span_snapshot();
  // Span counts are the only counts: the snapshot is spans.json alone.
  EXPECT_FALSE(std::filesystem::exists(guard.dir / "metrics.json"));
  std::ifstream in(guard.dir / "spans.json");
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = Json::parse(ss.str());
  ASSERT_TRUE(doc.has_value());
  const auto rows = parse_spans(*doc);
  ASSERT_TRUE(rows.has_value());
  const auto it = std::find_if(rows->begin(), rows->end(), [](const auto& r) {
    return r.path == "test.obs.snapshot";
  });
  ASSERT_NE(it, rows->end());
  EXPECT_GE(it->count, 1u);
}

TEST(Trace, CheckDirReconcilesAvq) {
  TraceDirGuard guard("mpass_trace_checkavq");
  // Sample 0x1 is benign at query 3, then spends two more queries (as MAB's
  // minimization does); sample 0x2 is benign at query 5; 0x3 never is.
  const auto emit = [](std::uint64_t digest, std::uint64_t queries,
                       std::uint64_t first_benign) {
    TraceScope scope("MAB", "MalConv", digest, 7, 100);
    for (std::uint64_t i = 1; i <= queries; ++i)
      Event("query").uint("i", i).boolean("malicious", i < first_benign).num(
          "score", 0.5);
    Event("end")
        .boolean("success", first_benign > 0)
        .uint("queries", queries)
        .num("apr", 0.0)
        .num("ms", 1.0)
        .boolean("functional", true);
  };
  emit(0x1, 5, 3);
  emit(0x2, 5, 5);
  emit(0x3, 4, 0);
  const auto cell = [](double avq) {
    append_cell({"MAB", "MalConv", 3, 2, 14, avq, 0.0, 100.0, 3});
  };
  cell(4.0);  // (3 + 5) / 2
  const TraceCheckReport ok = check_trace_dir(guard.dir);
  EXPECT_TRUE(ok.ok()) << ok.errors.front();
  ASSERT_EQ(ok.data.cells.size(), 1u);
  EXPECT_EQ(ok.data.cells[0].successes, 2u);
  EXPECT_DOUBLE_EQ(ok.data.cells[0].avq, 4.0);

  // An avq of 0 and the mean over all queries, (5 + 5) / 2, must fail.
  cell(0.0);
  EXPECT_FALSE(check_trace_dir(guard.dir).ok());
  cell(5.0);
  EXPECT_FALSE(check_trace_dir(guard.dir).ok());
}

TEST(Trace, CheckDirReconcilesAprAndFunctional) {
  TraceDirGuard guard("mpass_trace_checkapr");
  // Three wins, benign at query 2: APR +50%, -25% (a shrinking AE) and
  // +10%, the last one broken in the sandbox; one loss that spent 3
  // queries and whose end.apr and end.functional must not count.
  const auto emit = [](std::uint64_t digest, bool success, double apr,
                       bool functional) {
    TraceScope scope("GAMMA", "AV2", digest, 7, 100);
    const std::uint64_t queries = success ? 2 : 3;
    for (std::uint64_t i = 1; i <= queries; ++i)
      Event("query")
          .uint("i", i)
          .boolean("malicious", !success || i < 2)
          .num("score", 0.5);
    Event("end")
        .boolean("success", success)
        .uint("queries", queries)
        .num("apr", apr)
        .num("ms", 1.0)
        .boolean("functional", functional);
  };
  emit(0x1, true, 0.5, true);
  emit(0x2, true, -0.25, true);
  emit(0x3, true, 0.1, false);
  emit(0x4, false, 0.9, true);
  const auto cell = [](double apr, double functional) {
    append_cell({"GAMMA", "AV2", 4, 3, 9, 2.0, apr, functional, 4});
  };
  const double apr = 100.0 * (0.5 - 0.25 + 0.1) / 3.0;
  const double functional = 100.0 * 2.0 / 3.0;
  cell(apr, functional);
  const TraceCheckReport ok = check_trace_dir(guard.dir);
  EXPECT_TRUE(ok.ok()) << ok.errors.front();

  // An APR over every sample (the loss included), or over the functional
  // AEs only, must fail; so must a functional rate over all n samples.
  cell(100.0 * (0.5 - 0.25 + 0.1 + 0.9) / 4.0, functional);
  EXPECT_FALSE(check_trace_dir(guard.dir).ok());
  cell(100.0 * (0.5 - 0.25) / 2.0, functional);
  EXPECT_FALSE(check_trace_dir(guard.dir).ok());
  cell(apr, 100.0 * 3.0 / 4.0);
  EXPECT_FALSE(check_trace_dir(guard.dir).ok());
  cell(apr, functional);
  EXPECT_TRUE(check_trace_dir(guard.dir).ok());
}

TEST(Trace, CacheHitCellsWarnInsteadOfFailing) {
  TraceDirGuard guard("mpass_trace_cachehit");
  emit_sample("MPass", "AV1", 0x9, 4);
  // traced < n: one sample came from the result cache, totals can't be
  // reconciled against trace files -- warning, not error.
  append_cell({"MPass", "AV1", 2, 1, 104, 4.0, 1250.0, 100.0, 1});
  const TraceCheckReport rep = check_trace_dir(guard.dir);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.warnings.empty());
}

TEST(Trace, MalformedSampleTraceIsRejected) {
  std::vector<std::string> errors;
  // Query indices must be contiguous from 1.
  const std::string text =
      "{\"ev\":\"start\",\"attack\":\"A\",\"target\":\"B\","
      "\"sample\":\"0000000000000001\",\"seed\":1,\"budget\":10}\n"
      "{\"ev\":\"query\",\"i\":2,\"malicious\":true,\"score\":0.5}\n"
      "{\"ev\":\"end\",\"success\":false,\"queries\":1,\"apr\":0,\"ms\":1,"
      "\"functional\":false}\n";
  parse_sample_trace(text, "malformed", &errors);
  EXPECT_FALSE(errors.empty());
}

TEST(Trace, EventsOutsideScopeAreFreeNoOps) {
  ASSERT_FALSE(tracing());
  Event e("query");
  EXPECT_FALSE(e.active());
  e.uint("i", 1).num("score", 0.0);  // must not crash or allocate a file
}

TEST(Log, LevelParsingAndTagging) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::Info);
  set_log_tag("unit/test");
  EXPECT_EQ(log_tag(), "unit/test");
  set_log_tag("");
}

}  // namespace
}  // namespace mpass::obs
