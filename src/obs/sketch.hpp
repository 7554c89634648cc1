// Streaming sketches: bounded-memory, deterministic summaries of one
// stream. Two structures:
//
//   * LogHistogram — an HDR-style log-bucketed histogram with
//     configurable precision and an exact quantile-error contract:
//     quantile(q) returns an upper bound u on the true empirical
//     quantile v with (u - v) / v < 2^-precision_bits. Memory is
//     O(buckets touched), never O(samples).
//   * TopK — a space-saving heavy-hitter sketch (most-flapped nodes,
//     hottest channels, deepest-queue channels). Counts are exact
//     upper bounds with a per-entry overestimation `error`; evictions
//     break ties deterministically.
//
// StreamingSummarizer (`commroute-obs summarize`) spills its duration
// quantiles into a LogHistogram, and the run report reads both kinds of
// blob back from event streams.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace commroute::obs {

/// Log-bucketed histogram over uint64 values. Values below
/// 2^precision_bits are counted exactly; above, buckets group values
/// sharing the top precision_bits+1 significant bits, so each bucket's
/// relative width is below 2^-precision_bits. Sparse storage: only
/// touched buckets cost memory (at most 2^precision_bits x 65 total).
class LogHistogram {
 public:
  /// `precision_bits` in [1, 16]; default 5 gives a < 3.125% relative
  /// quantile error at ~70 buckets per power-of-two decade group.
  explicit LogHistogram(unsigned precision_bits = 5);

  void observe(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  unsigned precision_bits() const { return bits_; }
  std::size_t bucket_count() const { return buckets_.size(); }

  /// Upper bound on the empirical q-quantile (q in [0, 1]), clamped to
  /// the exact observed maximum. Error contract: for the true quantile
  /// value v, quantile(q) >= v and (quantile(q) - v) / v <
  /// 2^-precision_bits. 0 when empty.
  std::uint64_t quantile(double q) const;

  /// Documented bound on the relative quantile error: 2^-precision_bits.
  double relative_error_bound() const {
    return 1.0 / static_cast<double>(1u << bits_);
  }

  /// {"precision_bits":..,"count":..,"sum":..,"min":..,"max":..,
  ///  "p50":..,"p90":..,"p99":..,"buckets":..} — a pure function of the
  /// observed multiset.
  std::string to_json() const;

 private:
  std::uint32_t bucket_index(std::uint64_t v) const;
  std::uint64_t bucket_upper(std::uint32_t index) const;

  unsigned bits_;
  std::map<std::uint32_t, std::uint64_t> buckets_;  ///< index -> count
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Space-saving top-K heavy hitters over uint64 keys (node ids, channel
/// indices). Reported counts overestimate by at most `error`; any key
/// with true frequency above total_weight() / capacity is guaranteed
/// present. Eviction ties break deterministically: the minimum-count
/// entry with the largest key is replaced first.
class TopK {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  ///< upper bound on the true frequency
    std::uint64_t error = 0;  ///< count - error <= true frequency
  };

  explicit TopK(std::size_t capacity);

  void add(std::uint64_t key, std::uint64_t weight = 1);

  /// Entries sorted by count descending, key ascending.
  std::vector<Entry> top() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  std::uint64_t total_weight() const { return total_; }

  /// {"capacity":..,"total":..,"entries":[{"key":..,"count":..,
  ///  "error":..},...]} in top() order.
  std::string to_json() const;

 private:
  struct Cell {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::map<std::uint64_t, Cell> entries_;
};

}  // namespace commroute::obs
