#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"
#include "support/error.hpp"

namespace commroute::obs {

namespace {

/// floor(log2(v)) for v > 0.
unsigned floor_log2(std::uint64_t v) {
  unsigned e = 0;
  while (v >>= 1) {
    ++e;
  }
  return e;
}

}  // namespace

// ---- LogHistogram --------------------------------------------------------

LogHistogram::LogHistogram(unsigned precision_bits) : bits_(precision_bits) {
  CR_REQUIRE(precision_bits >= 1 && precision_bits <= 16,
             "LogHistogram precision_bits must be in [1, 16]");
}

std::uint32_t LogHistogram::bucket_index(std::uint64_t v) const {
  // Values below 2^bits are their own (exact) bucket. Above, group by
  // the top bits_+1 significant bits: with e = floor(log2 v) >= bits_,
  // the bucket spans 2^(e-bits_) consecutive values.
  const std::uint64_t exact = 1ULL << bits_;
  if (v < exact) {
    return static_cast<std::uint32_t>(v);
  }
  const unsigned e = floor_log2(v);
  const unsigned shift = e - bits_;
  const std::uint64_t sub = (v >> shift) - exact;
  return static_cast<std::uint32_t>(
      exact + (static_cast<std::uint64_t>(shift) << bits_) + sub);
}

std::uint64_t LogHistogram::bucket_upper(std::uint32_t index) const {
  const std::uint64_t exact = 1ULL << bits_;
  if (index < exact) {
    return index;
  }
  const std::uint64_t r = index - exact;
  const unsigned shift = static_cast<unsigned>(r >> bits_);
  const std::uint64_t sub = r & (exact - 1);
  const std::uint64_t lower = (exact + sub) << shift;
  return lower + ((1ULL << shift) - 1);
}

void LogHistogram::observe(std::uint64_t v) {
  ++buckets_[bucket_index(v)];
  ++count_;
  sum_ += v;
  if (count_ == 1 || v < min_) {
    min_ = v;
  }
  if (v > max_) {
    max_ = v;
  }
}

std::uint64_t LogHistogram::quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (const auto& [index, n] : buckets_) {
    cum += n;
    if (cum >= rank) {
      return std::min(bucket_upper(index), max_);
    }
  }
  return max_;
}

std::string LogHistogram::to_json() const {
  JsonWriter w;
  w.field("precision_bits", static_cast<std::uint64_t>(bits_))
      .field("count", count_)
      .field("sum", sum_)
      .field("min", min())
      .field("max", max_)
      .field("p50", quantile(0.50))
      .field("p90", quantile(0.90))
      .field("p99", quantile(0.99))
      .field("buckets", static_cast<std::uint64_t>(buckets_.size()));
  return w.str();
}

// ---- TopK ----------------------------------------------------------------

TopK::TopK(std::size_t capacity) : capacity_(capacity) {
  CR_REQUIRE(capacity > 0, "TopK capacity must be positive");
}

void TopK::add(std::uint64_t key, std::uint64_t weight) {
  total_ += weight;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.count += weight;
    return;
  }
  if (entries_.size() < capacity_) {
    entries_.emplace(key, Cell{weight, 0});
    return;
  }
  // Space-saving replacement: evict the minimum-count entry (ties break
  // toward the largest key — smaller keys stay stable) and inherit its
  // count as the new entry's error bound.
  auto victim = entries_.begin();
  for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
    if (cand->second.count < victim->second.count ||
        (cand->second.count == victim->second.count &&
         cand->first > victim->first)) {
      victim = cand;
    }
  }
  const std::uint64_t floor = victim->second.count;
  entries_.erase(victim);
  entries_.emplace(key, Cell{floor + weight, floor});
}

std::vector<TopK::Entry> TopK::top() const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [key, cell] : entries_) {
    out.push_back(Entry{key, cell.count, cell.error});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.key < b.key;
  });
  return out;
}

std::string TopK::to_json() const {
  std::string entries = "[";
  bool first = true;
  for (const Entry& e : top()) {
    if (!first) {
      entries += ',';
    }
    first = false;
    JsonWriter w;
    w.field("key", e.key).field("count", e.count).field("error", e.error);
    entries += w.str();
  }
  entries += ']';
  JsonWriter w;
  w.field("capacity", static_cast<std::uint64_t>(capacity_))
      .field("total", total_);
  w.raw_field("entries", entries);
  return w.str();
}

}  // namespace commroute::obs
