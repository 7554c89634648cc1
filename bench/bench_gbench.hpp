// Shared main() for the google-benchmark perf benches. Normal mode is
// the stock console reporter; --json / COMMROUTE_BENCH_JSON=1 captures
// every run instead and writes BENCH_<name>.json (wall_ms plus a peak
// throughput metric) via bench_json.hpp, printing the same JSON object
// to stdout.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/resource.hpp"

namespace commroute::bench {

class CaptureReporter : public benchmark::BenchmarkReporter {
 public:
  struct Row {
    std::string name;
    std::int64_t iterations = 0;
    double real_ms_per_iter = 0.0;
    double items_per_second = 0.0;  ///< 0 when the bench sets no items
  };

  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration) {
        continue;  // skip aggregate (mean/median/stddev) rows
      }
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      if (run.iterations > 0) {
        row.real_ms_per_iter =
            run.real_accumulated_time /
            static_cast<double>(run.iterations) * 1e3;
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        row.items_per_second = it->second.value;
      }
      rows_.push_back(std::move(row));
    }
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

/// `throughput_key` names the peak-throughput metric in the JSON output:
/// the highest items/sec over the rows that report items, or, when none
/// does, the highest iterations/sec. `<throughput_key>_row` names the
/// row it comes from.
/// `extra_metrics`, when given, runs after the benchmarks in JSON mode
/// so a bench can stamp workload-specific metrics (tracked byte peaks,
/// state counts) into the document; bench-diff gates "*_bytes" keys
/// under its separate memory threshold. Every JSON document also
/// carries `peak_rss_bytes` — the OS-level high watermark of the whole
/// bench process.
inline int gbench_main(
    const std::string& name, const std::string& throughput_key, int argc,
    char** argv,
    const std::function<void(BenchJson&)>& extra_metrics = {}) {
  const bool json = parse_json_mode(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  if (!json) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }

  CaptureReporter reporter;
  const auto t0 = std::chrono::steady_clock::now();
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  benchmark::Shutdown();

  BenchJson output(name);
  const bool any_items = std::any_of(
      reporter.rows().begin(), reporter.rows().end(),
      [](const CaptureReporter::Row& row) {
        return row.items_per_second > 0.0;
      });
  double peak_throughput = 0.0;
  std::string peak_row;
  for (const CaptureReporter::Row& row : reporter.rows()) {
    obs::JsonWriter w;
    w.field("name", row.name)
        .field("iterations", row.iterations)
        .field("real_ms_per_iter", row.real_ms_per_iter);
    if (row.items_per_second > 0.0) {
      w.field("items_per_second", row.items_per_second);
    }
    const double throughput =
        any_items ? row.items_per_second
        : row.real_ms_per_iter > 0.0 ? 1e3 / row.real_ms_per_iter  // iter/s
                                     : 0.0;
    if (throughput > peak_throughput) {
      peak_throughput = throughput;
      peak_row = row.name;
    }
    output.add_result(w);
  }
  output.set_metric("wall_ms", wall_ms);
  output.set_metric(throughput_key, peak_throughput);
  output.set_label(throughput_key + "_row", peak_row);
  output.set_metric("peak_rss_bytes",
                    static_cast<double>(
                        obs::read_process_memory().peak_rss_bytes));
  if (extra_metrics) {
    extra_metrics(output);
  }
  output.write();
  std::cout << output.to_json() << "\n";
  return 0;
}

}  // namespace commroute::bench
