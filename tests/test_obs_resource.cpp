// Resource telemetry: process-memory probing, the TelemetrySampler
// lifecycle, and the mem/pool report consumers.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "obs/analysis.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/resource.hpp"

namespace {

using namespace commroute;

TEST(ProcessMemory, ReportsResidentSet) {
  const obs::ProcessMemory mem = obs::read_process_memory();
#if defined(__linux__)
  EXPECT_GT(mem.rss_bytes, 0u);
  EXPECT_GT(mem.peak_rss_bytes, 0u);
  EXPECT_GE(mem.peak_rss_bytes, mem.rss_bytes);
#else
  (void)mem;  // zero fields are the documented degradation
#endif
}

TEST(TelemetrySampler, EmitsFirstAndFinalSnapshot) {
  obs::MemorySink sink;
  std::atomic<std::uint64_t> probe_value{7};
  // Long interval: only the start() snapshot and the stop() snapshot
  // fire, keeping the test fast and deterministic in count.
  obs::TelemetrySampler sampler(sink, {.interval_ms = 60000});
  sampler.add_probe("tasks", [&probe_value] {
    return probe_value.load(std::memory_order_relaxed);
  });
  EXPECT_FALSE(sampler.running());
  sampler.start();
  EXPECT_TRUE(sampler.running());
  probe_value.store(11, std::memory_order_relaxed);
  sampler.stop();
  EXPECT_FALSE(sampler.running());

  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_EQ(sampler.snapshots(), 2u);
  const auto last = obs::json_parse(sink.lines().back());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->find("type")->as_string(), "telemetry_snapshot");
  EXPECT_EQ(last->find("seq")->as_number(), 1.0);
  ASSERT_NE(last->find("elapsed_ms"), nullptr);
  ASSERT_NE(last->find("rss_bytes"), nullptr);
  EXPECT_EQ(last->find("tasks")->as_number(), 11.0);
}

TEST(TelemetrySampler, RegistrationAfterStartThrows) {
  obs::MemorySink sink;
  obs::TelemetrySampler sampler(sink, {.interval_ms = 60000});
  sampler.start();
  EXPECT_THROW(sampler.add_probe("late", [] { return 0ull; }),
               std::logic_error);
  sampler.stop();
  sampler.stop();  // idempotent
  EXPECT_EQ(sink.lines().size(), 2u);
}

TEST(TelemetrySampler, StopsOnDestruction) {
  obs::MemorySink sink;
  {
    obs::TelemetrySampler sampler(sink, {.interval_ms = 60000});
    sampler.start();
  }  // destructor must join the sampler thread
  EXPECT_EQ(sink.lines().size(), 2u);
}

TEST(MemoryReport, AggregatesSnapshotsAndSummaries) {
  std::istringstream in(
      "{\"type\":\"telemetry_snapshot\",\"seq\":0,\"elapsed_ms\":0,"
      "\"rss_bytes\":1000,\"seen_bytes\":64,\"seen_bytes_peak\":64}\n"
      "not json at all\n"
      "{\"type\":\"telemetry_snapshot\",\"seq\":1,\"elapsed_ms\":10,"
      "\"rss_bytes\":900,\"seen_bytes\":32,\"seen_bytes_peak\":96}\n"
      "{\"type\":\"checker_summary\",\"tracked_peak_bytes\":5000,"
      "\"bytes_per_state\":125.0}\n"
      "{\"type\":\"checker_summary\",\"tracked_peak_bytes\":4000,"
      "\"bytes_per_state\":99.0}\n"
      "{\"type\":\"engine_run\",\"peak_channel_bytes\":777}\n"
      "{\"type\":\"campaign_row\",\"row\":{\"peak_channel_bytes\":888}}\n");
  const obs::MemoryReport report = obs::memory_report(in);
  EXPECT_EQ(report.snapshots, 2u);
  EXPECT_EQ(report.checker_summaries, 2u);
  EXPECT_EQ(report.tracked_peak_bytes, 5000u);
  EXPECT_DOUBLE_EQ(report.bytes_per_state, 125.0);
  EXPECT_EQ(report.peak_channel_bytes, 888u);
  ASSERT_EQ(report.series.size(), 3u);  // rss, seen, seen_peak
  bool found = false;
  for (const obs::MemorySeries& s : report.series) {
    if (s.name == "rss_bytes") {
      found = true;
      EXPECT_EQ(s.last, 900u);
      EXPECT_EQ(s.peak, 1000u);
      EXPECT_EQ(s.samples, 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MemoryReport, EmptyStreamIsZero) {
  std::istringstream in("");
  const obs::MemoryReport report = obs::memory_report(in);
  EXPECT_EQ(report.snapshots, 0u);
  EXPECT_TRUE(report.series.empty());
  EXPECT_EQ(report.tracked_peak_bytes, 0u);
}

TEST(PoolReport, ReadsSummaryAndTimeline) {
  std::istringstream in(
      "{\"type\":\"telemetry_snapshot\",\"elapsed_ms\":0,"
      "\"pool.queue_depth\":12,\"pool.tasks_executed\":3}\n"
      "{\"type\":\"telemetry_snapshot\",\"elapsed_ms\":5,"
      "\"rss_bytes\":1}\n"
      "{\"type\":\"telemetry_snapshot\",\"elapsed_ms\":10,"
      "\"pool.queue_depth\":0,\"pool.tasks_executed\":40}\n"
      "{\"type\":\"pool_summary\",\"workers\":4,\"tasks_executed\":40,"
      "\"busy_us\":300,\"idle_us\":100,\"utilization\":0.75,"
      "\"queue_depth_peak\":12,\"per_worker\":["
      "{\"worker\":0,\"tasks\":10,\"busy_us\":75,\"idle_us\":25},"
      "{\"worker\":1,\"tasks\":30,\"busy_us\":225,\"idle_us\":75}]}\n");
  const obs::PoolReport report = obs::pool_report(in);
  EXPECT_TRUE(report.has_summary);
  EXPECT_EQ(report.workers, 4u);
  EXPECT_EQ(report.tasks_executed, 40u);
  EXPECT_DOUBLE_EQ(report.utilization, 0.75);
  EXPECT_EQ(report.queue_depth_peak, 12u);
  ASSERT_EQ(report.per_worker.size(), 2u);
  EXPECT_EQ(report.per_worker[1].tasks, 30u);
  // Only snapshots carrying pool probes enter the timeline.
  ASSERT_EQ(report.timeline.size(), 2u);
  EXPECT_EQ(report.timeline[0].queue_depth, 12u);
  EXPECT_EQ(report.timeline[1].elapsed_ms, 10u);
  EXPECT_EQ(report.timeline[1].tasks_executed, 40u);
}

TEST(PoolReport, UtilizationDerivedWhenAbsent) {
  std::istringstream in(
      "{\"type\":\"pool_summary\",\"workers\":2,\"tasks_executed\":8,"
      "\"busy_us\":60,\"idle_us\":40}\n");
  const obs::PoolReport report = obs::pool_report(in);
  EXPECT_TRUE(report.has_summary);
  EXPECT_DOUBLE_EQ(report.utilization, 0.6);
}

}  // namespace
