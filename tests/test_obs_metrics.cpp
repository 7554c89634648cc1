#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace commroute::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetOverwritesRecordMaxKeepsHighWater) {
  Gauge g;
  g.set(10);
  g.set(3);
  EXPECT_EQ(g.value(), 3u);
  g.record_max(7);
  g.record_max(5);
  EXPECT_EQ(g.value(), 7u);
}

TEST(Histogram, BucketSemanticsAreLeInclusive) {
  Histogram h({10, 100});
  h.observe(5);
  h.observe(10);   // boundary lands in the le=10 bucket
  h.observe(11);
  h.observe(1000);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1026u);
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10, 10}), PreconditionError);
  EXPECT_THROW(Histogram({10, 5}), PreconditionError);
}

TEST(Histogram, ExponentialBucketsGrowByFactor) {
  const auto bounds = exponential_buckets(16, 4.0, 4);
  EXPECT_EQ(bounds, (std::vector<std::uint64_t>{16, 64, 256, 1024}));
}

TEST(Registry, ReturnsTheSameMetricPerName) {
  Registry r;
  Counter& c = r.counter("a");
  r.counter("a").add(2);
  EXPECT_EQ(c.value(), 2u);
  Gauge& g = r.gauge("g");
  r.gauge("g").record_max(9);
  EXPECT_EQ(g.value(), 9u);
  Histogram& h = r.histogram("h", {1, 2});
  r.histogram("h", {99}).observe(1);  // bounds of later calls ignored
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.upper_bounds(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Registry, SnapshotListsEveryMetric) {
  Registry r;
  r.counter("steps").add(5);
  r.gauge("frontier").set(3);
  r.histogram("lat", {10}).observe(4);
  const auto samples = r.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const MetricSample& s : samples) {
    if (s.name == "steps") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kCounter);
      EXPECT_EQ(s.value, 5u);
      saw_counter = true;
    } else if (s.name == "frontier") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kGauge);
      EXPECT_EQ(s.value, 3u);
      saw_gauge = true;
    } else if (s.name == "lat") {
      EXPECT_EQ(s.kind, MetricSample::Kind::kHistogram);
      EXPECT_EQ(s.value, 1u);  // count
      EXPECT_EQ(s.sum, 4u);
      EXPECT_EQ(s.counts.size(), 2u);
      saw_histogram = true;
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histogram);
}

TEST(Registry, ToJsonRoundTripsThroughTheParser) {
  Registry r;
  r.counter("engine.steps").add(123);
  r.gauge("checker.frontier_peak").record_max(17);
  r.histogram("engine.run_steps", {16, 64}).observe(20);
  const auto parsed = json_parse(r.to_json());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* steps = counters->find("engine.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_DOUBLE_EQ(steps->as_number(), 123.0);
  const JsonValue* gauges = parsed->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("checker.frontier_peak"), nullptr);
  const JsonValue* histograms = parsed->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* hist = histograms->find("engine.run_steps");
  ASSERT_NE(hist, nullptr);
  const JsonValue* buckets = hist->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  EXPECT_EQ(buckets->as_array().size(), 3u);  // two bounds + overflow
}

TEST(RegistryMerge, CountersAddGaugesMaxHistogramsAddBucketwise) {
  Registry target;
  target.counter("c").add(10);
  target.gauge("g").record_max(5);
  target.histogram("h", {10, 100}).observe(7);

  Registry shard;
  shard.counter("c").add(3);
  shard.counter("only_in_shard").add(1);
  shard.gauge("g").record_max(9);
  shard.gauge("low").record_max(2);
  shard.histogram("h", {10, 100}).observe(50);
  shard.histogram("h", {10, 100}).observe(5000);
  shard.histogram("new_h", {1}).observe(0);

  target.merge_from(shard);
  EXPECT_EQ(target.counter("c").value(), 13u);
  EXPECT_EQ(target.counter("only_in_shard").value(), 1u);
  EXPECT_EQ(target.gauge("g").value(), 9u);
  EXPECT_EQ(target.gauge("low").value(), 2u);
  const Histogram& h = target.histogram("h", {});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 7u + 50u + 5000u);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(target.histogram("new_h", {}).count(), 1u);
}

TEST(RegistryMerge, IsOrderIndependent) {
  // Merge combiners commute, so shard order cannot change the result —
  // the property the parallel campaign's determinism guarantee rests on.
  Registry a, b;
  a.counter("x").add(2);
  a.gauge("g").record_max(4);
  b.counter("x").add(5);
  b.gauge("g").record_max(3);

  Registry ab, ba;
  ab.merge_from(a);
  ab.merge_from(b);
  ba.merge_from(b);
  ba.merge_from(a);
  EXPECT_EQ(ab.counter("x").value(), ba.counter("x").value());
  EXPECT_EQ(ab.gauge("g").value(), ba.gauge("g").value());
}

TEST(RegistryMerge, SingleBucketHistogramMerges) {
  // The degenerate single-bound shape (one bucket + overflow) must
  // merge like any other: same-bounds requirement, bucket-wise adds.
  Registry target, shard;
  target.histogram("h", {10}).observe(3);    // in-bucket
  shard.histogram("h", {10}).observe(10);    // boundary is <=-inclusive
  shard.histogram("h", {10}).observe(11);    // overflow
  target.merge_from(shard);
  const Histogram& h = target.histogram("h", {});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 24u);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 1}));

  // Merging an empty shard (histogram declared, never observed) is a
  // no-op, not a corruption.
  Registry empty;
  empty.histogram("h", {10});
  target.merge_from(empty);
  EXPECT_EQ(target.histogram("h", {}).count(), 3u);
}

TEST(RegistryMerge, MismatchedHistogramBoundsThrow) {
  Registry target, shard;
  target.histogram("h", {1, 2}).observe(1);
  shard.histogram("h", {1, 3}).observe(1);
  EXPECT_THROW(target.merge_from(shard), PreconditionError);
}

TEST(RegistryMerge, GaugePoliciesMergeMaxAndSum) {
  // Shard-and-merge with per-gauge semantics: high-watermarks take the
  // max, occurrence counts add.
  Registry target, shard_a, shard_b;
  target.gauge("peak").set(10);                         // kMax default
  target.gauge("occurrences", GaugeMerge::kSum).set(2);
  shard_a.gauge("peak").set(30);
  shard_a.gauge("occurrences", GaugeMerge::kSum).set(5);
  shard_b.gauge("peak").set(20);
  shard_b.gauge("occurrences", GaugeMerge::kSum).set(3);
  target.merge_from(shard_a);
  target.merge_from(shard_b);
  EXPECT_EQ(target.gauge("peak").value(), 30u);
  EXPECT_EQ(target.gauge("occurrences", GaugeMerge::kSum).value(), 10u);
}

TEST(RegistryMerge, SumPolicyGaugesSurviveParallelSharding) {
  // The regression this policy exists for: N workers each flagging
  // engine.cycle_detection_disabled once must merge to N, not silently
  // max-merge to 1 and hide how many rows ran blind.
  Registry target;
  for (int worker = 0; worker < 8; ++worker) {
    Registry shard;
    shard.gauge("engine.cycle_detection_disabled", GaugeMerge::kSum)
        .add(1);
    target.merge_from(shard);
  }
  EXPECT_EQ(
      target.gauge("engine.cycle_detection_disabled", GaugeMerge::kSum)
          .value(),
      8u);
}

TEST(RegistryMerge, GaugePolicyIsFixedAtCreation) {
  Registry registry;
  registry.gauge("g", GaugeMerge::kSum).set(1);
  // A later lookup with a different policy does not silently rewrite
  // the merge semantics.
  EXPECT_EQ(registry.gauge("g").merge_policy(), GaugeMerge::kSum);
  Registry shard;
  shard.gauge("g", GaugeMerge::kSum).set(4);
  registry.merge_from(shard);
  EXPECT_EQ(registry.gauge("g").value(), 5u);
}

TEST(JsonNumber, FormatsRoundTrippably) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  const double v = 0.1;
  char* end = nullptr;
  EXPECT_EQ(std::strtod(json_number(v).c_str(), &end), v);
}

}  // namespace
}  // namespace commroute::obs
