// Tests for the observability subsystem: metrics registry (exact concurrent
// counting, deterministic snapshot merging across thread retirement, no
// metrics from span sites), the JSON helpers, and the JSONL trace sink
// round-trip through the trace reader/validator that backs
// tools/mpass_trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/trace_check.hpp"

namespace mpass::obs {
namespace {

std::uint64_t counter_value(const Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

TEST(Metrics, ConcurrentIncrementsSumExactly) {
  Registry& reg = Registry::instance();
  const MetricId id = reg.counter("test.obs.concurrent");
  const std::uint64_t before =
      counter_value(reg.snapshot(), "test.obs.concurrent");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&reg, id] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) reg.inc(id);
    });
  for (std::thread& t : threads) t.join();

  const std::uint64_t after =
      counter_value(reg.snapshot(), "test.obs.concurrent");
  EXPECT_EQ(after - before, kThreads * kPerThread);
}

TEST(Metrics, SnapshotMergesRetiredThreadsDeterministically) {
  Registry& reg = Registry::instance();
  const MetricId id = reg.counter("test.obs.retired");
  const std::uint64_t before =
      counter_value(reg.snapshot(), "test.obs.retired");

  // Increment from threads that exit before the snapshot: their per-thread
  // shards retire into the core and must still be counted.
  for (int round = 0; round < 4; ++round) {
    std::thread t([&reg, id] { reg.inc(id, 25); });
    t.join();
  }

  const Snapshot s1 = reg.snapshot();
  const Snapshot s2 = reg.snapshot();
  EXPECT_EQ(counter_value(s1, "test.obs.retired") - before, 100u);
  // No updates between the two snapshots: byte-identical merged views.
  EXPECT_EQ(s1.counters, s2.counters);
  EXPECT_EQ(s1.to_json(), s2.to_json());
}

TEST(Metrics, KindMismatchThrows) {
  Registry& reg = Registry::instance();
  reg.counter("test.obs.kind");
  EXPECT_THROW(reg.gauge("test.obs.kind"), std::invalid_argument);
}

TEST(Metrics, GaugeAndCallbackGaugeAppearInSnapshot) {
  Registry& reg = Registry::instance();
  reg.set(reg.gauge("test.obs.gauge"), 2.5);
  reg.gauge_callback("test.obs.cbgauge", [] { return 7.0; });
  const Snapshot s = reg.snapshot();
  EXPECT_DOUBLE_EQ(s.gauges.at("test.obs.gauge"), 2.5);
  EXPECT_DOUBLE_EQ(s.gauges.at("test.obs.cbgauge"), 7.0);
}

TEST(Metrics, SpanSitesRegisterNoMetric) {
  {
    OBS_SCOPE("test.obs.scope");
  }
  // Every section of the snapshot: no metric name starts with "time.".
  const std::string json = Registry::instance().snapshot().to_json();
  EXPECT_EQ(json.find("\"time."), std::string::npos) << json;
}

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
  append_run_line("cells.jsonl", JsonLine()
                                     .str("ev", "cell")
                                     .str("attack", "MPass")
                                     .str("target", "MalConv")
                                     .uint("n", 2)
                                     .uint("traced", 2)
                                     .uint("total_queries", 12)
                                     .uint("successes", 2)
                                     .num("avq", 6.0)
                                     .num("wall_ms", 6.0)
                                     .take());
  write_metrics_snapshot();
  ASSERT_TRUE(std::filesystem::exists(guard.dir / "metrics.json"));

  const TraceCheckReport ok = check_trace_dir(guard.dir);
  EXPECT_TRUE(ok.ok()) << ok.errors.front();
  EXPECT_EQ(ok.data.samples.size(), 2u);
  ASSERT_EQ(ok.data.cells.size(), 1u);
  EXPECT_EQ(ok.data.cells[0].total_queries, 12u);
  EXPECT_TRUE(ok.data.has_metrics);

  // metrics.json holds counters and gauges only; spans.json is versioned.
  const auto read_json = [&](const char* file) {
    std::ifstream in(guard.dir / file);
    std::stringstream ss;
    ss << in.rdbuf();
    return Json::parse(ss.str());
  };
  const auto metrics = read_json("metrics.json");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_TRUE(metrics->get("counters") && metrics->get("gauges"));
  EXPECT_EQ(metrics->get("histograms"), nullptr);
  const auto spans = read_json("spans.json");
  ASSERT_TRUE(spans.has_value());
  ASSERT_TRUE(spans->get("schema_version"));
  EXPECT_EQ(spans->get("schema_version")->number(), 1.0);
  EXPECT_TRUE(spans->get("spans") && spans->get("spans")->is_array());

  // A snapshot missing its gauges fails the check.
  std::ofstream(guard.dir / "metrics.json", std::ios::trunc)
      << R"({"counters":{}})";
  const TraceCheckReport no_gauges = check_trace_dir(guard.dir);
  EXPECT_FALSE(no_gauges.ok());
  EXPECT_FALSE(no_gauges.data.has_metrics);
  write_metrics_snapshot();
  EXPECT_TRUE(check_trace_dir(guard.dir).ok());

  // A fully-traced cell whose query totals disagree must fail the check.
  append_run_line("cells.jsonl", JsonLine()
                                     .str("ev", "cell")
                                     .str("attack", "MPass")
                                     .str("target", "MalConv")
                                     .uint("n", 2)
                                     .uint("traced", 2)
                                     .uint("total_queries", 99)
                                     .uint("successes", 2)
                                     .num("avq", 6.0)
                                     .num("wall_ms", 6.0)
                                     .take());
  const TraceCheckReport bad = check_trace_dir(guard.dir);
  EXPECT_FALSE(bad.ok());
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
    append_run_line("cells.jsonl", JsonLine()
                                       .str("ev", "cell")
                                       .str("attack", "MAB")
                                       .str("target", "MalConv")
                                       .uint("n", 3)
                                       .uint("traced", 3)
                                       .uint("total_queries", 14)
                                       .uint("successes", 2)
                                       .num("avq", avq)
                                       .num("wall_ms", 3.0)
                                       .take());
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

TEST(Trace, CacheHitCellsWarnInsteadOfFailing) {
  TraceDirGuard guard("mpass_trace_cachehit");
  emit_sample("MPass", "AV1", 0x9, 4);
  // traced < n: one sample came from the result cache, totals can't be
  // reconciled against trace files -- warning, not error.
  append_run_line("cells.jsonl", JsonLine()
                                     .str("ev", "cell")
                                     .str("attack", "MPass")
                                     .str("target", "AV1")
                                     .uint("n", 2)
                                     .uint("traced", 1)
                                     .uint("total_queries", 104)
                                     .uint("successes", 1)
                                     .num("avq", 4.0)
                                     .num("wall_ms", 2.0)
                                     .take());
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
