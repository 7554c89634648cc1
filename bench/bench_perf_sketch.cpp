// Sketch microbenchmarks (google-benchmark): LogHistogram observe
// throughput and TopK add under eviction pressure. Run with
// --json to write BENCH_perf_sketch.json instead of the console table.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_gbench.hpp"
#include "obs/sketch.hpp"

namespace {

using namespace commroute;

std::vector<std::uint64_t> value_stream(std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out.push_back((x & 0xffffffffull) + 1);
  }
  return out;
}

void BM_LogHistogramObserve(benchmark::State& state) {
  const auto values = value_stream(4096);
  obs::LogHistogram hist(
      static_cast<unsigned>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    hist.observe(values[i++ & 4095]);
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LogHistogramObserve)->Arg(3)->Arg(5)->Arg(7);

void BM_TopKAddUnderEviction(benchmark::State& state) {
  // Key space far beyond capacity: every add churns the eviction path.
  const auto values = value_stream(4096);
  obs::TopK top(static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    top.add(values[i++ & 4095] % 1024);
  }
  benchmark::DoNotOptimize(top.total_weight());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TopKAddUnderEviction)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return commroute::bench::gbench_main("perf_sketch", "items_per_sec",
                                       argc, argv);
}
