#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"
#include "support/error.hpp"

namespace commroute::obs {

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  CR_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "histogram bounds must be strictly increasing");
}

void Histogram::observe(std::uint64_t v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

void Histogram::merge_from(const Histogram& other) {
  CR_REQUIRE(bounds_ == other.bounds_,
             "Histogram::merge_from requires identical bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::vector<std::uint64_t> exponential_buckets(std::uint64_t start,
                                               double factor, int count) {
  CR_REQUIRE(start > 0 && factor > 1.0 && count > 0,
             "exponential_buckets needs start > 0, factor > 1, count > 0");
  std::vector<std::uint64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = static_cast<double>(start);
  for (int i = 0; i < count; ++i) {
    std::uint64_t b = static_cast<std::uint64_t>(std::llround(bound));
    if (!bounds.empty() && b <= bounds.back()) {
      b = bounds.back() + 1;
    }
    bounds.push_back(b);
    bound *= factor;
  }
  return bounds;
}

Counter& Registry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name, GaugeMerge policy) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    return it->second;
  }
  Gauge& g = gauges_[name];
  g.merge_ = policy;
  return g;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<std::uint64_t> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return it->second;
  }
  return histograms_.emplace(name, Histogram(std::move(bounds)))
      .first->second;
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].add(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauge(name, g.merge_policy());
    switch (g.merge_policy()) {
      case GaugeMerge::kMax:
        mine.record_max(g.value());
        break;
      case GaugeMerge::kSum:
        mine.add(g.value());
        break;
    }
  }
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else {
      it->second.merge_from(h);
    }
  }
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> samples;
  samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = c.value();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = g.value();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.value = h.count();
    s.sum = h.sum();
    s.bounds = h.upper_bounds();
    s.counts = h.bucket_counts();
    samples.push_back(std::move(s));
  }
  return samples;
}

std::string Registry::to_json() const {
  JsonWriter counters;
  for (const auto& [name, c] : counters_) {
    counters.field(name, c.value());
  }
  JsonWriter gauges;
  for (const auto& [name, g] : gauges_) {
    gauges.field(name, g.value());
  }
  JsonWriter histograms;
  for (const auto& [name, h] : histograms_) {
    JsonWriter entry;
    entry.field("count", h.count());
    entry.field("sum", h.sum());
    std::string buckets = "[";
    const auto& bounds = h.upper_bounds();
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) {
        buckets += ',';
      }
      JsonWriter bucket;
      if (i < bounds.size()) {
        bucket.field("le", bounds[i]);
      } else {
        bucket.field("le", "+inf");
      }
      bucket.field("count", counts[i]);
      buckets += bucket.str();
    }
    buckets += ']';
    entry.raw_field("buckets", buckets);
    histograms.raw_field(name, entry.str());
  }
  JsonWriter top;
  top.raw_field("counters", counters.str());
  top.raw_field("gauges", gauges.str());
  top.raw_field("histograms", histograms.str());
  return top.str();
}

}  // namespace commroute::obs
