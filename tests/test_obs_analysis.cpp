// The analysis core behind commroute-obs: JSONL aggregation, span
// self-time accounting, Chrome-trace import, and the bench-diff perf
// gate (the injected-regression case is the acceptance criterion the
// CI gate rests on).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/chrome_trace.hpp"
#include "support/error.hpp"

namespace commroute {
namespace {

obs::JsonValue parse_or_die(const std::string& text) {
  const auto parsed = obs::json_parse(text);
  EXPECT_TRUE(parsed.has_value()) << "invalid JSON: " << text;
  return parsed.value_or(obs::JsonValue{});
}

const obs::EventTypeSummary* find_type(const obs::JsonlSummary& summary,
                                       const std::string& type) {
  for (const obs::EventTypeSummary& row : summary.types) {
    if (row.type == type) {
      return &row;
    }
  }
  return nullptr;
}

TEST(SummarizeJsonl, AggregatesPerTypeWithEveryDurationSpelling) {
  std::istringstream in(
      "{\"type\":\"span\",\"dur_us\":100}\n"
      "{\"type\":\"span\",\"dur_us\":200}\n"
      "{\"type\":\"span\",\"dur_us\":300}\n"
      "{\"type\":\"engine_run\",\"wall_us\":5000}\n"
      "{\"type\":\"engine_run\",\"wall_ms\":2}\n"
      "{\"type\":\"campaign_row\",\"row\":{\"wall_ms\":1.5}}\n"
      "{\"type\":\"no_dur\",\"states\":4}\n"
      "{\"notype\":1}\n"
      "\n"
      "this is not json\n");
  const obs::JsonlSummary summary = obs::summarize_jsonl(in);
  EXPECT_EQ(summary.lines, 9u);  // blank line skipped
  EXPECT_EQ(summary.malformed, 1u);
  ASSERT_EQ(summary.types.size(), 5u);
  EXPECT_EQ(summary.types.front().type, "span");  // count-descending

  const obs::EventTypeSummary* span = find_type(summary, "span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 3u);
  EXPECT_EQ(span->timed, 3u);
  EXPECT_EQ(span->total_us, 600u);
  EXPECT_EQ(span->p50_us, 200u);
  EXPECT_EQ(span->max_us, 300u);

  const obs::EventTypeSummary* run = find_type(summary, "engine_run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->timed, 2u);
  EXPECT_EQ(run->total_us, 7000u);  // wall_us + wall_ms * 1000

  const obs::EventTypeSummary* row = find_type(summary, "campaign_row");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->total_us, 1500u);  // nested row.wall_ms

  const obs::EventTypeSummary* bare = find_type(summary, "no_dur");
  ASSERT_NE(bare, nullptr);
  EXPECT_EQ(bare->count, 1u);
  EXPECT_EQ(bare->timed, 0u);

  EXPECT_NE(find_type(summary, "(untyped)"), nullptr);
}

TEST(SpanSelfTimes, SubtractsDirectChildrenAndSortsBySelf) {
  std::vector<obs::SpanRecord> records;
  const auto add = [&](std::uint32_t id, std::uint32_t parent,
                       std::uint64_t dur, const char* name) {
    obs::SpanRecord rec;
    rec.id = id;
    rec.parent = parent;
    rec.dur_us = dur;
    rec.name = name;
    records.push_back(std::move(rec));
  };
  add(1, 0, 100, "root");
  add(2, 1, 30, "child");
  add(3, 1, 20, "child");
  add(4, 2, 25, "leaf");

  const std::vector<obs::SpanStat> stats = obs::span_self_times(records);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].name, "root");
  EXPECT_EQ(stats[0].self_us, 50u);  // 100 - (30 + 20)
  EXPECT_EQ(stats[0].total_us, 100u);

  const obs::SpanStat& child = stats[1].name == "child" ? stats[1] : stats[2];
  EXPECT_EQ(child.count, 2u);
  EXPECT_EQ(child.total_us, 50u);
  EXPECT_EQ(child.self_us, 25u);  // (30 - 25) + 20; only DIRECT children
  EXPECT_EQ(child.max_us, 30u);

  const obs::SpanStat& leaf = stats[1].name == "leaf" ? stats[1] : stats[2];
  EXPECT_EQ(leaf.self_us, 25u);
}

TEST(SpanSelfTimes, ClampsWhenChildrenOutlastTheParent) {
  std::vector<obs::SpanRecord> records(2);
  records[0].id = 1;
  records[0].dur_us = 10;
  records[0].name = "parent";
  records[1].id = 2;
  records[1].parent = 1;
  records[1].dur_us = 50;  // clock granularity artifact
  records[1].name = "child";
  const auto stats = obs::span_self_times(records);
  for (const obs::SpanStat& stat : stats) {
    if (stat.name == "parent") {
      EXPECT_EQ(stat.self_us, 0u);  // clamped, not wrapped
    }
  }
}

TEST(SpansFromChromeTrace, ReadsSlicesAndIgnoresMetadata) {
  const auto doc = parse_or_die(
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":100,\"pid\":1,"
      "\"tid\":0,\"args\":{\"id\":1,\"parent\":0}},"
      "{\"name\":\"b\",\"ph\":\"X\",\"ts\":10,\"dur\":50,\"pid\":1,"
      "\"tid\":2,\"args\":{\"id\":2,\"parent\":1}},"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1},"
      "{\"name\":\"mark\",\"ph\":\"i\",\"ts\":5}"
      "],\"displayTimeUnit\":\"ms\"}");
  const auto records = obs::spans_from_chrome_trace(doc);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "a");
  EXPECT_EQ(records[0].id, 1u);
  EXPECT_EQ(records[1].parent, 1u);
  EXPECT_EQ(records[1].tid, 2u);
  EXPECT_EQ(records[1].start_us, 10u);
  EXPECT_EQ(records[1].dur_us, 50u);

  // Not a trace document at all: empty, not a crash.
  EXPECT_TRUE(obs::spans_from_chrome_trace(parse_or_die("{}")).empty());
}

obs::JsonValue bench_doc(const std::string& results) {
  return parse_or_die("{\"name\":\"fixture\",\"metrics\":{},\"results\":[" +
                      results + "]}");
}

std::string bench_row(const std::string& name, double ms) {
  return "{\"name\":\"" + name +
         "\",\"iterations\":10,\"real_ms_per_iter\":" +
         obs::json_number(ms) + "}";
}

TEST(BenchDiff, FlagsOnlyDeltasBeyondTheThreshold) {
  const auto baseline = bench_doc(bench_row("A", 2.0) + "," +
                                  bench_row("B", 4.0) + "," +
                                  bench_row("C", 1.0));
  const auto current = bench_doc(bench_row("A", 2.1) + "," +  // +5%
                                 bench_row("B", 4.6) + "," +  // +15%
                                 bench_row("C", 0.8));        // -20%
  const obs::BenchDiff diff = obs::bench_diff(baseline, current, 10.0);
  EXPECT_TRUE(diff.regression);
  ASSERT_EQ(diff.deltas.size(), 3u);
  EXPECT_FALSE(diff.deltas[0].regression);
  EXPECT_NEAR(diff.deltas[0].delta_pct, 5.0, 1e-9);
  EXPECT_TRUE(diff.deltas[1].regression);
  EXPECT_NEAR(diff.deltas[1].delta_pct, 15.0, 1e-9);
  EXPECT_FALSE(diff.deltas[2].regression);  // improvements never flag
  EXPECT_NEAR(diff.deltas[2].delta_pct, -20.0, 1e-9);

  // The same +15% passes under a looser threshold.
  EXPECT_FALSE(obs::bench_diff(baseline, current, 20.0).regression);
}

TEST(BenchDiff, TracksBenchmarksPresentOnOnlyOneSide) {
  const auto baseline = bench_doc(bench_row("A", 2.0) + "," +
                                  bench_row("OLD", 1.0));
  const auto current = bench_doc(bench_row("A", 2.0) + "," +
                                 bench_row("NEW", 3.0));
  const obs::BenchDiff diff = obs::bench_diff(baseline, current, 10.0);
  EXPECT_FALSE(diff.regression);
  ASSERT_EQ(diff.deltas.size(), 1u);
  ASSERT_EQ(diff.only_in_baseline.size(), 1u);
  EXPECT_EQ(diff.only_in_baseline[0], "OLD");
  ASSERT_EQ(diff.only_in_current.size(), 1u);
  EXPECT_EQ(diff.only_in_current[0], "NEW");
}

TEST(BenchDiff, ZeroBaselineNeverDividesByZero) {
  const auto baseline = bench_doc(bench_row("A", 0.0));
  const auto current = bench_doc(bench_row("A", 5.0));
  const obs::BenchDiff diff = obs::bench_diff(baseline, current, 10.0);
  EXPECT_DOUBLE_EQ(diff.deltas[0].delta_pct, 0.0);
  EXPECT_FALSE(diff.regression);
}

TEST(BenchDiff, RejectsDocumentsWithoutTheBenchShape) {
  const auto good = bench_doc(bench_row("A", 1.0));
  EXPECT_THROW(obs::bench_diff(parse_or_die("{\"foo\":1}"), good, 10.0),
               ParseError);
  EXPECT_THROW(obs::bench_diff(good, parse_or_die("{\"foo\":1}"), 10.0),
               ParseError);
  const auto missing_ms =
      parse_or_die("{\"results\":[{\"name\":\"A\"}]}");
  EXPECT_THROW(obs::bench_diff(good, missing_ms, 10.0), ParseError);
}

obs::JsonValue bench_doc_with_metrics(const std::string& metrics) {
  return parse_or_die("{\"name\":\"fixture\",\"metrics\":{" + metrics +
                      "},\"results\":[" + bench_row("A", 1.0) + "]}");
}

TEST(BenchDiff, ByteMetricsGateUnderTheirOwnThreshold) {
  const auto baseline = bench_doc_with_metrics(
      "\"wall_ms\":100,\"peak_rss_bytes\":1000,"
      "\"tracked_peak_bytes\":500");
  const auto current = bench_doc_with_metrics(
      "\"wall_ms\":900,\"peak_rss_bytes\":1100,"  // +10% — under mem gate
      "\"tracked_peak_bytes\":800");              // +60% — over mem gate
  const obs::BenchDiff diff =
      obs::bench_diff(baseline, current, 10.0, 25.0);
  // wall_ms is not a byte metric; the 9x growth never enters the gate.
  ASSERT_EQ(diff.mem_deltas.size(), 2u);
  EXPECT_FALSE(diff.regression);  // real_ms_per_iter is unchanged
  EXPECT_TRUE(diff.mem_regression);
  EXPECT_EQ(diff.mem_deltas[0].name, "peak_rss_bytes");
  EXPECT_FALSE(diff.mem_deltas[0].regression);
  EXPECT_EQ(diff.mem_deltas[1].name, "tracked_peak_bytes");
  EXPECT_TRUE(diff.mem_deltas[1].regression);
  EXPECT_NEAR(diff.mem_deltas[1].delta_pct, 60.0, 1e-9);
  // A looser memory threshold passes the same growth.
  EXPECT_FALSE(obs::bench_diff(baseline, current, 10.0, 80.0)
                   .mem_regression);
}

TEST(BenchDiff, ByteMetricsMissingFromBaselineAreSkipped) {
  // Baselines that predate byte metrics must not fail the gate.
  const auto baseline = bench_doc_with_metrics("\"wall_ms\":100");
  const auto current = bench_doc_with_metrics(
      "\"wall_ms\":100,\"peak_rss_bytes\":999999");
  const obs::BenchDiff diff =
      obs::bench_diff(baseline, current, 10.0, 25.0);
  EXPECT_TRUE(diff.mem_deltas.empty());
  EXPECT_FALSE(diff.mem_regression);
  // And the reverse: a metric dropped from current is skipped too.
  const obs::BenchDiff reverse =
      obs::bench_diff(current, baseline, 10.0, 25.0);
  EXPECT_TRUE(reverse.mem_deltas.empty());
  EXPECT_FALSE(reverse.mem_regression);
}

// ---- Degradation edge cases (malformed / empty inputs) -------------------

TEST(SummarizeJsonl, EmptyAndDurationlessStreamsKeepZeroQuantiles) {
  std::istringstream empty("");
  const obs::JsonlSummary none = obs::summarize_jsonl(empty);
  EXPECT_EQ(none.lines, 0u);
  EXPECT_TRUE(none.types.empty());

  // Events with no duration at all: the percentile path must never
  // index into the empty histogram.
  std::istringstream in(
      "{\"type\":\"bare\"}\n"
      "{\"type\":\"bare\",\"states\":7}\n");
  const obs::JsonlSummary summary = obs::summarize_jsonl(in);
  const obs::EventTypeSummary* bare = find_type(summary, "bare");
  ASSERT_NE(bare, nullptr);
  EXPECT_EQ(bare->count, 2u);
  EXPECT_EQ(bare->timed, 0u);
  EXPECT_EQ(bare->p50_us, 0u);
  EXPECT_EQ(bare->p99_us, 0u);
  EXPECT_EQ(bare->max_us, 0u);
}

TEST(SpansFromJsonl, SkipsRecordsMissingRequiredFields) {
  // Unclosed spans (no dur_us), nameless records, and non-span noise
  // must be dropped without affecting well-formed neighbours.
  std::istringstream in(
      "{\"type\":\"span\",\"name\":\"open\",\"ts_us\":0}\n"
      "{\"type\":\"span\",\"ts_us\":0,\"dur_us\":5}\n"
      "{\"type\":\"event\",\"name\":\"x\",\"ts_us\":0,\"dur_us\":5}\n"
      "{\"type\":\"span\",\"name\":\"ok\",\"ts_us\":1,\"dur_us\":2,"
      "\"id\":1}\n");
  const auto records = obs::spans_from_jsonl(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "ok");
}

TEST(SpanSelfTimes, MisNestedParentsDegradeGracefully) {
  // Parent ids pointing at missing spans, self-parented spans, and
  // children summing past the parent: self time clamps at zero and
  // the totals stay finite.
  std::vector<obs::SpanRecord> records;
  obs::SpanRecord dangling;
  dangling.id = 1;
  dangling.parent = 99;  // no such span
  dangling.name = "dangling";
  dangling.dur_us = 10;
  obs::SpanRecord self_cycle;
  self_cycle.id = 2;
  self_cycle.parent = 2;  // mis-nested: its own parent
  self_cycle.name = "cycle";
  self_cycle.dur_us = 8;
  records.push_back(dangling);
  records.push_back(self_cycle);
  const auto stats = obs::span_self_times(records);
  ASSERT_EQ(stats.size(), 2u);
  for (const obs::SpanStat& stat : stats) {
    if (stat.name == "dangling") {
      EXPECT_EQ(stat.self_us, 10u);  // orphan keeps its full duration
    } else {
      EXPECT_EQ(stat.name, "cycle");
      EXPECT_EQ(stat.self_us, 0u);  // clamped, not underflowed
    }
    EXPECT_EQ(stat.count, 1u);
  }
}

// ---- Out-of-range numbers (-5, 1e30: no unsigned value) ------------------
// A cast of such a number is undefined; every reader handles it the way
// it handles the field being absent.

TEST(SummarizeJsonl, OutOfRangeDurationsReadAsAbsent) {
  std::istringstream in(
      "{\"type\":\"a\",\"dur_us\":-5}\n"
      "{\"type\":\"a\",\"dur_us\":1e30}\n"
      "{\"type\":\"b\",\"dur_us\":-5,\"wall_us\":7}\n"
      "{\"type\":\"c\",\"wall_ms\":-5}\n"
      "{\"type\":\"c\",\"row\":{\"wall_ms\":1e30}}\n");
  const obs::JsonlSummary summary = obs::summarize_jsonl(in);
  const obs::EventTypeSummary* a = find_type(summary, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 2u);
  EXPECT_EQ(a->timed, 0u);
  const obs::EventTypeSummary* b = find_type(summary, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->total_us, 7u);  // the next duration spelling
  const obs::EventTypeSummary* c = find_type(summary, "c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->timed, 0u);
}

TEST(SpansFromJsonl, OutOfRangeNumbersReadAsAbsent) {
  std::istringstream in(
      "{\"type\":\"span\",\"name\":\"neg\",\"ts_us\":-5,\"dur_us\":2}\n"
      "{\"type\":\"span\",\"name\":\"huge\",\"ts_us\":0,"
      "\"dur_us\":1e30}\n"
      "{\"type\":\"span\",\"name\":\"ok\",\"ts_us\":1,\"dur_us\":2,"
      "\"id\":-5,\"parent\":1e30,\"tid\":5e9}\n");
  const auto records = obs::spans_from_jsonl(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "ok");
  EXPECT_EQ(records[0].id, 0u);
  EXPECT_EQ(records[0].parent, 0u);
  EXPECT_EQ(records[0].tid, 0u);  // 5e9 fits 64 bits, not 32
}

TEST(SpansFromChromeTrace, OutOfRangeNumbersReadAsAbsent) {
  const auto doc = parse_or_die(
      "{\"traceEvents\":["
      "{\"name\":\"neg\",\"ph\":\"X\",\"ts\":-5,\"dur\":1},"
      "{\"name\":\"huge\",\"ph\":\"X\",\"ts\":0,\"dur\":1e30},"
      "{\"name\":\"ok\",\"ph\":\"X\",\"ts\":2.75,\"dur\":3.5,\"tid\":-5,"
      "\"args\":{\"id\":1e30,\"parent\":-5}}]}");
  const auto records = obs::spans_from_chrome_trace(doc);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "ok");
  EXPECT_EQ(records[0].start_us, 2u);  // fractions still truncate
  EXPECT_EQ(records[0].dur_us, 3u);
  EXPECT_EQ(records[0].tid, 0u);
  EXPECT_EQ(records[0].id, 0u);
  EXPECT_EQ(records[0].parent, 0u);
}

TEST(ChromeTraceFromJsonl, OutOfRangeNumbersReadAsAbsent) {
  std::istringstream in(
      "{\"type\":\"span\",\"name\":\"neg\",\"ts_us\":-5,\"dur_us\":1}\n"
      "{\"type\":\"span\",\"name\":\"huge\",\"ts_us\":1e30,"
      "\"dur_us\":1}\n"
      "{\"type\":\"span\",\"name\":\"ok\",\"ts_us\":1,\"dur_us\":2,"
      "\"tid\":-5,\"id\":1e30,\"parent\":-5}\n"
      "{\"type\":\"checker_heartbeat\",\"elapsed_ms\":-3}\n"
      "{\"type\":\"checker_heartbeat\",\"elapsed_ms\":1e30}\n"
      "{\"type\":\"mark\"}\n");
  const obs::JsonlConversion conversion = obs::chrome_trace_from_jsonl(in);
  EXPECT_EQ(conversion.skipped, 2u);  // spans without a start time
  EXPECT_EQ(conversion.events, 4u);
  const auto doc = parse_or_die(conversion.trace_json);
  const auto slices = obs::spans_from_chrome_trace(doc);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].tid, 0u);
  EXPECT_EQ(slices[0].id, 0u);
  EXPECT_EQ(slices[0].parent, 0u);
  // Marks without a usable elapsed_ms sit on the synthetic clock.
  std::vector<double> instants;
  for (const obs::JsonValue& event : doc.find("traceEvents")->as_array()) {
    if (event.find("ph")->as_string() == "i") {
      instants.push_back(event.find("ts")->as_number());
    }
  }
  EXPECT_EQ(instants, (std::vector<double>{0, 1, 2}));
}

TEST(MemoryReport, OutOfRangeNumbersReadAsAbsent) {
  std::istringstream in(
      "{\"type\":\"telemetry_snapshot\",\"elapsed_ms\":-3,"
      "\"rss_bytes\":100,\"neg\":-5,\"huge\":1e30}\n"
      "{\"type\":\"checker_summary\",\"tracked_peak_bytes\":-5}\n"
      "{\"type\":\"engine_run\",\"peak_channel_bytes\":1e30}\n"
      "{\"type\":\"campaign_row\",\"row\":{\"peak_channel_bytes\":-5}}\n");
  const obs::MemoryReport report = obs::memory_report(in);
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_EQ(report.series[0].name, "rss_bytes");
  EXPECT_EQ(report.series[0].last, 100u);
  EXPECT_EQ(report.tracked_peak_bytes, 0u);
  EXPECT_EQ(report.peak_channel_bytes, 0u);
}

TEST(PoolReport, OutOfRangeNumbersReadAsAbsent) {
  std::istringstream in(
      "{\"type\":\"pool_summary\",\"workers\":-5,\"tasks_executed\":1e30,"
      "\"busy_us\":-5,\"idle_us\":10,\"queue_depth_peak\":-5,"
      "\"per_worker\":[{\"worker\":1e30,\"tasks\":-5,\"busy_us\":-5}]}\n"
      "{\"type\":\"telemetry_snapshot\",\"elapsed_ms\":-3,"
      "\"pool.queue_depth\":1e30,\"pool.tasks_executed\":-5}\n");
  const obs::PoolReport report = obs::pool_report(in);
  ASSERT_TRUE(report.has_summary);
  EXPECT_EQ(report.workers, 0u);
  EXPECT_EQ(report.tasks_executed, 0u);
  EXPECT_EQ(report.busy_us, 0u);
  EXPECT_EQ(report.queue_depth_peak, 0u);
  EXPECT_DOUBLE_EQ(report.utilization, 0.0);  // 0 busy of 10
  ASSERT_EQ(report.per_worker.size(), 1u);
  EXPECT_EQ(report.per_worker[0].worker, 0u);
  EXPECT_EQ(report.per_worker[0].tasks, 0u);
  EXPECT_EQ(report.per_worker[0].busy_us, 0u);
  ASSERT_EQ(report.timeline.size(), 1u);
  EXPECT_EQ(report.timeline[0].elapsed_ms, 0u);
  EXPECT_EQ(report.timeline[0].queue_depth, 0u);
  EXPECT_EQ(report.timeline[0].tasks_executed, 0u);
}

TEST(BenchDiff, OutOfRangeByteMetricsAreSkipped) {
  const auto baseline = bench_doc_with_metrics(
      "\"ok_bytes\":100,\"neg_bytes\":-5,\"huge_bytes\":1e30,"
      "\"cur_bad_bytes\":100");
  const auto current = bench_doc_with_metrics(
      "\"ok_bytes\":110,\"neg_bytes\":100,\"huge_bytes\":100,"
      "\"cur_bad_bytes\":-5");
  const obs::BenchDiff diff =
      obs::bench_diff(baseline, current, 10.0, 25.0);
  ASSERT_EQ(diff.mem_deltas.size(), 1u);
  EXPECT_EQ(diff.mem_deltas[0].name, "ok_bytes");
  EXPECT_FALSE(diff.mem_regression);
}

}  // namespace
}  // namespace commroute
