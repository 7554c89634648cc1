// Accuracy contracts of the streaming sketches: LogHistogram quantiles
// must respect the documented relative error bound on adversarial
// distributions, and TopK keeps heavy hitters with bounded error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/sketch.hpp"

namespace commroute::obs {
namespace {

/// Deterministic value stream (no std:: distribution, so the sequence
/// is pinned across standard libraries).
std::vector<std::uint64_t> lcg_stream(std::size_t n, std::uint64_t seed,
                                      std::uint64_t modulus) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out.push_back((x >> 17) % modulus + 1);
  }
  return out;
}

/// True empirical quantile under the library's rank convention:
/// rank = max(1, ceil(q * count)), 1-indexed into the sorted sample.
std::uint64_t exact_quantile(std::vector<std::uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const auto count = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * count));
  rank = std::max<std::size_t>(1, std::min(rank, values.size()));
  return values[rank - 1];
}

TEST(LogHistogram, QuantileErrorBoundHoldsOnAdversarialDistributions) {
  // Adversarial inputs: values hugging bucket boundaries (2^k - 1,
  // 2^k, 2^k + 1), a geometric heavy tail, and a uniform stream.
  std::vector<std::vector<std::uint64_t>> distributions;
  std::vector<std::uint64_t> boundaries;
  for (unsigned k = 1; k < 40; ++k) {
    const std::uint64_t p = 1ull << k;
    boundaries.push_back(p - 1);
    boundaries.push_back(p);
    boundaries.push_back(p + 1);
  }
  distributions.push_back(boundaries);
  std::vector<std::uint64_t> geometric;
  std::uint64_t g = 1;
  for (int i = 0; i < 40; ++i) {
    for (int r = 0; r < 64 >> (i / 8); ++r) {
      geometric.push_back(g);
    }
    g = g * 3 + 1;
  }
  distributions.push_back(geometric);
  distributions.push_back(lcg_stream(20000, 7, 1ull << 32));

  for (const unsigned bits : {3u, 5u, 7u}) {
    const double bound = 1.0 / static_cast<double>(1u << bits);
    for (const auto& values : distributions) {
      LogHistogram hist(bits);
      for (const std::uint64_t v : values) {
        hist.observe(v);
      }
      EXPECT_DOUBLE_EQ(hist.relative_error_bound(), bound);
      for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const std::uint64_t truth = exact_quantile(values, q);
        const std::uint64_t est = hist.quantile(q);
        ASSERT_GE(est, truth) << "q=" << q << " bits=" << bits;
        const double rel =
            static_cast<double>(est - truth) / static_cast<double>(truth);
        ASSERT_LT(rel, bound) << "q=" << q << " bits=" << bits
                              << " est=" << est << " truth=" << truth;
      }
    }
  }
}

TEST(LogHistogram, SmallValuesAreExactAndMaxIsClamped) {
  LogHistogram hist(5);
  for (std::uint64_t v = 1; v <= 31; ++v) {
    hist.observe(v);
  }
  // Below 2^precision_bits every value has its own bucket.
  EXPECT_EQ(hist.quantile(0.5), 16u);
  EXPECT_EQ(hist.quantile(1.0), 31u);
  hist.observe(1000003);
  // The top quantile reports the exact observed maximum, not the
  // bucket's upper bound.
  EXPECT_EQ(hist.quantile(1.0), 1000003u);
  EXPECT_EQ(hist.max(), 1000003u);
}

TEST(TopK, HeavyHittersSurviveEvictionWithBoundedError) {
  TopK top(4);
  // Two heavy keys drowned in 64 singleton keys.
  for (int i = 0; i < 300; ++i) {
    top.add(1);
  }
  for (int i = 0; i < 200; ++i) {
    top.add(2);
  }
  for (std::uint64_t noise = 100; noise < 164; ++noise) {
    top.add(noise);
  }
  const auto entries = top.top();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].key, 1u);
  EXPECT_EQ(entries[1].key, 2u);
  // Space-saving invariant: count - error <= true frequency <= count.
  EXPECT_GE(entries[0].count, 300u);
  EXPECT_LE(entries[0].count - entries[0].error, 300u);
  EXPECT_GE(entries[1].count, 200u);
  EXPECT_LE(entries[1].count - entries[1].error, 200u);
}

}  // namespace
}  // namespace commroute::obs
