// Machine-readable bench output. Every perf bench supports a JSON-only
// mode (the --json flag or COMMROUTE_BENCH_JSON=1): the human banner and
// tables are suppressed and the run's metrics are written to
// BENCH_<name>.json in the working directory, establishing a perf
// trajectory that CI can archive per commit.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/meta.hpp"
#include "support/error.hpp"

namespace commroute::bench {

inline bool& json_mode_flag() {
  static bool flag = [] {
    const char* env = std::getenv("COMMROUTE_BENCH_JSON");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return flag;
}

/// True after --json was parsed or COMMROUTE_BENCH_JSON=1 is set.
inline bool json_mode() { return json_mode_flag(); }

/// Strips --json from argv (so later flag parsing never sees it) and
/// enables JSON mode when present. Call first thing in main().
inline bool parse_json_mode(int& argc, char** argv) {
  obs::set_process_argv(argc, argv);  // stamp the artifact headers
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json_mode_flag() = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  argv[argc] = nullptr;
  return json_mode();
}

/// Human-output stream: std::cout normally, a discarding stream in JSON
/// mode (a null streambuf sets badbit; insertions become no-ops).
inline std::ostream& out() {
  static std::ostream null_stream(nullptr);
  return json_mode() ? null_stream : std::cout;
}

/// Accumulates one bench run's top-level metrics and per-case result
/// rows, then renders/writes BENCH_<name>.json:
///   {"name":...,"metrics":{"wall_ms":...,...},"results":[{...},...]}
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void set_metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }
  /// A string entry of the "metrics" object (e.g. which result row a
  /// metric was taken from); bench-diff gates numbers only.
  void set_label(const std::string& key, const std::string& value) {
    labels_.emplace_back(key, value);
  }
  void add_result(const obs::JsonWriter& row) {
    results_.push_back(row.str());
  }

  std::string to_json() const {
    obs::JsonWriter metrics;
    for (const auto& [key, value] : metrics_) {
      metrics.field(key, value);
    }
    for (const auto& [key, value] : labels_) {
      metrics.field(key, value);
    }
    std::string rows = "[";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      if (i > 0) {
        rows += ',';
      }
      rows += results_[i];
    }
    rows += ']';
    obs::JsonWriter meta;
    obs::add_metadata_fields(meta);
    obs::JsonWriter top;
    top.field("name", name_);
    top.raw_field("meta", meta.str());
    top.raw_field("metrics", metrics.str());
    top.raw_field("results", rows);
    return top.str();
  }

  /// Writes BENCH_<name>.json to the working directory; returns the path.
  std::string write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream file(path, std::ios::trunc);
    CR_REQUIRE(file.is_open(), "cannot write " + path);
    file << to_json() << "\n";
    return path;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> labels_;
  std::vector<std::string> results_;
};

}  // namespace commroute::bench
