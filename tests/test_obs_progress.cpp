// ProgressEstimator semantics (monotone counts, fraction/ETA shape) and
// the TelemetrySampler progress_snapshot integration.
#include <gtest/gtest.h>

#include <string>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/progress.hpp"
#include "obs/resource.hpp"

namespace commroute::obs {
namespace {

TEST(ProgressEstimator, FractionAndCountsTrackUpdates) {
  ProgressEstimator progress("explore");
  ProgressSnapshot snap = progress.snapshot();
  EXPECT_EQ(snap.name, "explore");
  EXPECT_EQ(snap.done, 0u);
  EXPECT_EQ(snap.total, 0u);
  EXPECT_DOUBLE_EQ(snap.fraction, 0.0);
  EXPECT_EQ(snap.updates, 0u);

  progress.update(25, 100);
  snap = progress.snapshot();
  EXPECT_EQ(snap.done, 25u);
  EXPECT_EQ(snap.total, 100u);
  EXPECT_DOUBLE_EQ(snap.fraction, 0.25);
  EXPECT_EQ(snap.updates, 1u);

  // done > total (open-ended frontiers can shrink the denominator):
  // fraction clamps to 1.
  progress.update(120, 100);
  snap = progress.snapshot();
  EXPECT_DOUBLE_EQ(snap.fraction, 1.0);
}

TEST(ProgressEstimator, StaleSmallerCountsNeverRollBackwards) {
  // Concurrent workers report fetch_add(1) + 1 out of order; a late
  // smaller value must not rewind the bar.
  ProgressEstimator progress("campaign.rows");
  progress.update(7, 10);
  progress.update(3, 10);
  const ProgressSnapshot snap = progress.snapshot();
  EXPECT_EQ(snap.done, 7u);
  EXPECT_EQ(snap.updates, 2u);
}

TEST(ProgressEstimator, EtaIsZeroWithoutAnObservedRate) {
  ProgressEstimator progress("idle");
  progress.update(1, 100);
  // A single update gives no rate sample, hence no ETA guess.
  const ProgressSnapshot snap = progress.snapshot();
  EXPECT_DOUBLE_EQ(snap.rate_per_sec, 0.0);
  EXPECT_EQ(snap.eta_ms, 0u);
}

TEST(TelemetrySampler, EmitsOneProgressSnapshotPerEstimatorPerTick) {
  MemorySink sink;
  ProgressEstimator rows("campaign.rows");
  ProgressEstimator steps("engine.steps");
  rows.update(2, 8);
  steps.update(128, 4096);
  TelemetrySampler::Options options;
  options.interval_ms = 3600 * 1000;  // only the start/stop snapshots
  TelemetrySampler sampler(sink, options);
  sampler.add_progress(&rows);
  sampler.add_progress(&steps);
  sampler.start();
  sampler.stop();

  std::size_t telemetry = 0;
  std::size_t rows_snapshots = 0;
  std::size_t steps_snapshots = 0;
  for (const std::string& line : sink.lines()) {
    const auto event = json_parse(line);
    ASSERT_TRUE(event.has_value());
    const std::string type = event->find("type")->as_string();
    if (type == "telemetry_snapshot") {
      ++telemetry;
      continue;
    }
    ASSERT_EQ(type, "progress_snapshot");
    const std::string name = event->find("name")->as_string();
    if (name == "campaign.rows") {
      ++rows_snapshots;
      EXPECT_EQ(event->find("done")->as_number(), 2.0);
      EXPECT_EQ(event->find("total")->as_number(), 8.0);
      EXPECT_DOUBLE_EQ(event->find("fraction")->as_number(), 0.25);
    } else {
      EXPECT_EQ(name, "engine.steps");
      ++steps_snapshots;
      EXPECT_EQ(event->find("done")->as_number(), 128.0);
    }
  }
  // start() + stop() each emit one telemetry snapshot and one progress
  // snapshot per registered estimator.
  EXPECT_EQ(telemetry, 2u);
  EXPECT_EQ(rows_snapshots, 2u);
  EXPECT_EQ(steps_snapshots, 2u);
}

TEST(TelemetrySampler, ProgressRegistrationMustPrecedeStart) {
  MemorySink sink;
  ProgressEstimator progress("late");
  TelemetrySampler::Options options;
  options.interval_ms = 3600 * 1000;
  TelemetrySampler sampler(sink, options);
  sampler.start();
  EXPECT_THROW(sampler.add_progress(&progress), std::logic_error);
  sampler.stop();
}

}  // namespace
}  // namespace commroute::obs
