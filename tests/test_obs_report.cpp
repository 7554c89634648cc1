// RunReport: the single-pass JSONL -> report builder, the deterministic
// JSON rendering (byte-identical on re-run, no generation metadata),
// the static HTML rendering, and the StreamingSummarizer spill path the
// whole thing sits on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/report.hpp"

namespace commroute::obs {
namespace {

/// A mixed artifact: events with sketch blobs, telemetry, progress,
/// campaign rows, a critical path, a flight recording, and one
/// malformed line.
std::string mixed_fixture() {
  return
      R"({"type":"engine_run","wall_us":1200,"critical_path_len":5,"critical_path_us":900,"obs_budget":"sketched","flap_topk":{"capacity":16,"total":10,"entries":[{"key":3,"count":7,"error":0},{"key":1,"count":3,"error":0}]}})"
      "\n"
      R"({"type":"sim_summary","latency_hist":{"precision_bits":5,"count":4,"sum":40,"min":5,"max":15,"p50":10,"p90":15,"p99":15,"buckets":3}})"
      "\n"
      R"({"type":"telemetry_snapshot","seq":0,"elapsed_ms":0,"rss_bytes":1000,"pool.queue_depth":2})"
      "\n"
      R"({"type":"telemetry_snapshot","seq":1,"elapsed_ms":10,"rss_bytes":3000,"pool.queue_depth":1})"
      "\n"
      R"({"type":"progress_snapshot","name":"campaign.rows","done":3,"total":4,"fraction":0.75,"rate_per_sec":12.5,"eta_ms":80,"elapsed_ms":10,"updates":3})"
      "\n"
      R"({"type":"campaign_row","row":{"instance":"BAD","outcome":"oscillating","steps":40,"wall_ms":1.5}})"
      "\n"
      R"({"type":"campaign_row","row":{"instance":"GOOD","outcome":"converged","steps":12,"wall_ms":0.5}})"
      "\n"
      "this line is not json\n"
      R"({"type":"recording_header","kind":"run","instance_name":"BAD-GADGET","model":"UMS","scheduler":"rr","seed":7,"outcome":"oscillating","first_step":1,"steps":2,"nodes":3,"initial":["e","e","e"]})"
      "\n"
      R"({"type":"recording_step","t":1,"step":"x","pi":["e","d b","e"]})"
      "\n"
      R"({"type":"recording_step","t":2,"step":"y","pi":["d a","d b","e"]})"
      "\n"
      R"({"type":"recording_footer","steps":2,"changes":2})"
      "\n";
}

TEST(RunReport, SinglePassCollectsEverySection) {
  std::istringstream in(mixed_fixture());
  const RunReport report = build_report(in, "fixture.jsonl");

  EXPECT_EQ(report.source, "fixture.jsonl");
  EXPECT_EQ(report.events.lines, 12u);
  EXPECT_EQ(report.events.malformed, 1u);

  // Telemetry series: rss_bytes and pool.queue_depth, two samples each.
  ASSERT_EQ(report.telemetry.size(), 2u);
  EXPECT_EQ(report.telemetry[0].name, "pool.queue_depth");
  EXPECT_EQ(report.telemetry[1].name, "rss_bytes");
  EXPECT_EQ(report.telemetry[1].samples, 2u);
  EXPECT_EQ(report.telemetry[1].peak, 3000u);
  EXPECT_EQ(report.telemetry[1].last, 3000u);

  ASSERT_EQ(report.progress.size(), 1u);
  EXPECT_EQ(report.progress[0].name, "campaign.rows");
  EXPECT_EQ(report.progress[0].done, 3u);
  EXPECT_DOUBLE_EQ(report.progress[0].fraction, 0.75);

  // Structural sketch detection: one histogram blob, one top-K blob.
  ASSERT_EQ(report.quantiles.size(), 1u);
  EXPECT_EQ(report.quantiles[0].label, "sim_summary.latency_hist");
  EXPECT_EQ(report.quantiles[0].count, 4u);
  EXPECT_EQ(report.quantiles[0].p90, 15u);
  ASSERT_EQ(report.topk.size(), 1u);
  EXPECT_EQ(report.topk[0].first, "engine_run.flap_topk");
  const auto entries = report.topk[0].second.top();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, 3u);
  EXPECT_EQ(entries[0].count, 7u);

  EXPECT_EQ(report.campaign_rows, 2u);
  EXPECT_EQ(report.outcome_counts.at("converged"), 1u);
  EXPECT_EQ(report.outcome_counts.at("oscillating"), 1u);
  EXPECT_EQ(report.campaign_steps_hist.count(), 2u);
  EXPECT_EQ(report.campaign_steps_hist.max(), 40u);

  EXPECT_EQ(report.critical_path_events, 1u);
  EXPECT_EQ(report.critical_path_len_max, 5u);
  EXPECT_EQ(report.critical_path_us_max, 900u);

  // Recording: node 1 changes at step 1, node 0 at step 2.
  EXPECT_TRUE(report.has_recording);
  EXPECT_EQ(report.recording_instance, "BAD-GADGET");
  EXPECT_EQ(report.recording_nodes, 3u);
  EXPECT_EQ(report.recording_steps, 2u);
  EXPECT_EQ(report.recording_changes, 2u);
  const auto flappers = report.recording_flappers.top();
  ASSERT_EQ(flappers.size(), 2u);
  EXPECT_EQ(flappers[0].count, 1u);
  EXPECT_EQ(flappers[1].count, 1u);
}

TEST(RunReport, JsonRenderingIsDeterministicAndClockFree) {
  std::istringstream first(mixed_fixture());
  std::istringstream second(mixed_fixture());
  const std::string a = report_json(build_report(first, "f.jsonl"));
  const std::string b = report_json(build_report(second, "f.jsonl"));
  EXPECT_EQ(a, b);
  // The determinism quarantine: no generation wall clock, host, or RSS
  // of the *reporting* process may enter the document.
  EXPECT_EQ(a.find("created_unix_ms"), std::string::npos);
  EXPECT_EQ(a.find("argv"), std::string::npos);
  // And it round-trips as JSON.
  const auto doc = json_parse(a);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("type")->as_string(), "run_report");
  EXPECT_EQ(doc->find("campaign")->find("rows")->as_number(), 2.0);
  EXPECT_EQ(doc->find("recording")->find("steps")->as_number(), 2.0);
}

TEST(RunReport, HtmlIsSelfContainedAndStatic) {
  std::istringstream in(mixed_fixture());
  const RunReport report = build_report(in, "fixture.jsonl");
  const std::string html = report_html(report, "");

  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("<style>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  // Self-contained and static: no scripts, no external fetches.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  // Every section rendered.
  EXPECT_NE(html.find("Events"), std::string::npos);
  EXPECT_NE(html.find("Progress"), std::string::npos);
  EXPECT_NE(html.find("Telemetry"), std::string::npos);
  EXPECT_NE(html.find("Sketched distributions"), std::string::npos);
  EXPECT_NE(html.find("Heavy hitters"), std::string::npos);
  EXPECT_NE(html.find("Campaign"), std::string::npos);
  EXPECT_NE(html.find("Critical path"), std::string::npos);
  EXPECT_NE(html.find("Flight recording"), std::string::npos);
  EXPECT_NE(html.find("BAD-GADGET"), std::string::npos);
  // The custom title lands in <title> and <h1>.
  const std::string titled = report_html(report, "nightly sweep");
  EXPECT_NE(titled.find("<title>nightly sweep</title>"), std::string::npos);
  EXPECT_NE(titled.find("<h1>nightly sweep</h1>"), std::string::npos);
}

TEST(RunReport, EmptyInputProducesAnEmptyButValidReport) {
  std::istringstream in("");
  const RunReport report = build_report(in, "empty.jsonl");
  EXPECT_EQ(report.events.lines, 0u);
  const auto doc = json_parse(report_json(report));
  ASSERT_TRUE(doc.has_value());
  const std::string html = report_html(report, "");
  EXPECT_NE(html.find("0 lines"), std::string::npos);
}

TEST(RunReport, OutOfRangeNumbersReadAsAbsentFields) {
  // -5 and 1e30 have no uint64 value (a cast would be undefined): each
  // field reads as if it were missing.
  std::istringstream in(
      R"({"type":"telemetry_snapshot","elapsed_ms":-3,"rss_bytes":10,"neg":-5,"huge":1e30})"
      "\n"
      R"({"type":"progress_snapshot","name":"rows","done":-5,"total":1e30,"fraction":-5,"elapsed_ms":1e30})"
      "\n"
      R"({"type":"engine_run","critical_path_len":-5,"critical_path_us":1e30,"hist":{"precision_bits":5,"count":-5,"sum":1e30,"buckets":1},"top":{"capacity":16,"entries":[{"key":-5,"count":7},{"key":1e30,"count":7},{"key":2,"count":-5},{"key":3,"count":1e30},{"key":4,"count":2}]}})"
      "\n"
      R"({"type":"recording_footer","changes":-5})"
      "\n");
  const RunReport report = build_report(in, "out_of_range.jsonl");
  using Points = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

  ASSERT_EQ(report.telemetry.size(), 1u);
  EXPECT_EQ(report.telemetry[0].name, "rss_bytes");
  EXPECT_EQ(report.telemetry[0].points, (Points{{0, 10}}));

  ASSERT_EQ(report.progress.size(), 1u);
  EXPECT_EQ(report.progress[0].done, 0u);
  EXPECT_EQ(report.progress[0].total, 0u);
  ASSERT_EQ(report.progress_series.size(), 1u);
  EXPECT_EQ(report.progress_series[0].points, (Points{{0, 0}}));

  EXPECT_EQ(report.critical_path_events, 0u);
  ASSERT_EQ(report.quantiles.size(), 1u);
  EXPECT_EQ(report.quantiles[0].count, 0u);
  EXPECT_EQ(report.quantiles[0].sum, 0u);
  ASSERT_EQ(report.topk.size(), 1u);
  const auto entries = report.topk[0].second.top();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, 4u);
  EXPECT_EQ(entries[0].count, 2u);
  EXPECT_EQ(report.recording_changes, 0u);
}

TEST(ReportSeries, DecimationIsBoundedAndDeterministic) {
  ReportSeries a;
  a.name = "rss_bytes";
  for (std::uint64_t i = 0; i < 5000; ++i) {
    a.add(i, i * 2);
  }
  EXPECT_EQ(a.samples, 5000u);
  EXPECT_LE(a.points.size(), ReportSeries::kSeriesCap);
  EXPECT_GE(a.points.size(), ReportSeries::kSeriesCap / 4);
  EXPECT_EQ(a.peak, 9998u);
  EXPECT_EQ(a.last, 9998u);
  EXPECT_EQ(a.points.front().first, 0u);
  // Same stream, same decimation.
  ReportSeries b;
  b.name = "rss_bytes";
  for (std::uint64_t i = 0; i < 5000; ++i) {
    b.add(i, i * 2);
  }
  EXPECT_EQ(a.points, b.points);
}

TEST(StreamingSummarizer, IncrementalFeedMatchesOneShotSummary) {
  const std::string fixture = mixed_fixture();
  std::istringstream batch(fixture);
  const JsonlSummary expected = summarize_jsonl(batch);

  StreamingSummarizer streaming;
  std::istringstream lines(fixture);
  std::string line;
  while (std::getline(lines, line)) {
    streaming.add_line(line);
  }
  const JsonlSummary got = streaming.summary();
  ASSERT_EQ(got.types.size(), expected.types.size());
  EXPECT_EQ(got.lines, expected.lines);
  EXPECT_EQ(got.malformed, expected.malformed);
  for (std::size_t i = 0; i < got.types.size(); ++i) {
    EXPECT_EQ(got.types[i].type, expected.types[i].type);
    EXPECT_EQ(got.types[i].count, expected.types[i].count);
    EXPECT_EQ(got.types[i].p50_us, expected.types[i].p50_us);
    EXPECT_EQ(got.types[i].p99_us, expected.types[i].p99_us);
  }
}

TEST(StreamingSummarizer, SpillsPastTheExactCapWithBoundedError) {
  StreamingSummarizer summarizer;
  const std::size_t n = StreamingSummarizer::kExactCap * 3;
  for (std::size_t i = 0; i < n; ++i) {
    // Durations 1..n in arrival order; p50 of the whole stream is n/2.
    summarizer.add_line(R"({"type":"span","name":"s","ts_us":0,"dur_us":)" +
                        std::to_string(i + 1) + "}");
  }
  const JsonlSummary summary = summarizer.summary();
  ASSERT_EQ(summary.types.size(), 1u);
  const EventTypeSummary& row = summary.types[0];
  EXPECT_EQ(row.count, n);
  EXPECT_EQ(row.timed, n);
  EXPECT_EQ(row.max_us, n);
  // Sketched percentiles: upper bounds within the LogHistogram(7)
  // relative error (< 1%), clamped to the observed max.
  const auto check = [&](std::uint64_t got, double pct) {
    const double truth = pct * static_cast<double>(n);
    EXPECT_GE(static_cast<double>(got), truth * 0.999);
    EXPECT_LE(static_cast<double>(got), truth * 1.01);
  };
  check(row.p50_us, 0.5);
  check(row.p90_us, 0.9);
  check(row.p99_us, 0.99);
  EXPECT_LE(row.p99_us, row.max_us);
}

}  // namespace
}  // namespace commroute::obs
