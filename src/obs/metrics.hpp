// Metrics registry for the hot loops: monotonic counters, gauges and
// fixed-bucket histograms. Everything is plain uint64_t — no atomics,
// no strings on the update path, and zero overhead when no registry is
// attached (instrumented code holds a nullable pointer and publishes
// aggregates once per run).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace commroute::obs {

/// A monotonically increasing count (steps executed, messages sent).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// How Registry::merge_from combines two same-named gauges. kMax is the
/// historical default (high-water marks); kSum is for counters-in-
/// gauge-clothing (per-shard occurrence flags that must add up, e.g.
/// engine.cycle_detection_disabled).
enum class GaugeMerge {
  kMax,
  kSum,
};

/// A point-in-time value (frontier size, channel-occupancy high-water).
class Gauge {
 public:
  void set(std::uint64_t v) { value_ = v; }
  /// Adds to the value — for kSum-merged occurrence gauges, where
  /// set(1) would collapse per-shard counts on the serial path.
  void add(std::uint64_t v = 1) { value_ += v; }
  /// Keeps the maximum ever seen (high-water-mark semantics).
  void record_max(std::uint64_t v) {
    if (v > value_) {
      value_ = v;
    }
  }
  std::uint64_t value() const { return value_; }
  GaugeMerge merge_policy() const { return merge_; }

 private:
  friend class Registry;
  std::uint64_t value_ = 0;
  GaugeMerge merge_ = GaugeMerge::kMax;
};

/// Fixed-bucket histogram: each bucket counts observations `<=` its
/// upper bound; one implicit overflow bucket catches the rest.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing.
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  void observe(std::uint64_t v);

  /// Adds another histogram's observations. Requires identical bounds
  /// (merging shards of the same metric, not arbitrary histograms).
  void merge_from(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  const std::vector<std::uint64_t>& upper_bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// `count` strictly increasing bounds starting at `start`, each `factor`
/// times the previous (rounded up to stay strictly increasing).
std::vector<std::uint64_t> exponential_buckets(std::uint64_t start,
                                               double factor, int count);

/// One metric in a registry snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t value = 0;  ///< counter/gauge value; histogram count
  std::uint64_t sum = 0;    ///< histogram only
  std::vector<std::uint64_t> bounds;  ///< histogram only
  std::vector<std::uint64_t> counts;  ///< histogram only (bounds + overflow)
};

/// Owns metrics by name. References returned by counter()/gauge()/
/// histogram() stay valid for the registry's lifetime (node-based map),
/// so hot loops can resolve a name once and update through the pointer.
class Registry {
 public:
  Counter& counter(const std::string& name);
  /// `policy` applies on first creation (like histogram bounds); later
  /// calls return the existing gauge with its original policy. The
  /// one-argument form never downgrades an explicit policy.
  Gauge& gauge(const std::string& name,
               GaugeMerge policy = GaugeMerge::kMax);
  /// `bounds` applies on first creation; later calls return the existing
  /// histogram unchanged.
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds);

  /// Folds another registry into this one: counters add, gauges combine
  /// per their GaugeMerge policy (max by default; sum for occurrence
  /// gauges), histograms add bucket-wise (same-name histograms must
  /// share bounds). This is how per-worker registry shards collapse into
  /// a campaign-level registry after a parallel sweep; every combiner is
  /// commutative and associative, so the merged aggregates are identical
  /// regardless of which worker ran which row. A gauge created here by
  /// the merge inherits the incoming shard's policy.
  void merge_from(const Registry& other);

  /// All metrics, name-sorted within each kind.
  std::vector<MetricSample> snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace commroute::obs
