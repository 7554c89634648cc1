// perfbench: runs one workload of commroute's end-to-end benchmark and
// prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics (setup_s, verdict_s,
// peak_rss_mb); --trace 1 runs the workload once through the program and
// through the layer replicas, then the replica self-tests, and prints the
// per-layer metrics. See README.md for what each number means.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/meta.hpp"
#include "obs/resource.hpp"

namespace {

using namespace perfbench;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimisedBuild = true;
#else
constexpr bool kOptimisedBuild = false;
#endif

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

/// Fewest passes per untraced run: the repeat checks compare against the
/// first pass, and verdict_s takes each part's fastest run.
constexpr std::size_t kMinPasses = 2;

/// Below this CPU/wall ratio the host took the CPU for a noticeable part
/// of the run; the run is flagged, not failed.
constexpr double kContendedRatio = 0.9;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  int seen = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return std::nullopt;
    }
    ++seen;
  }
  if (seen != 4 || argc != 9 || args.seconds <= 0.0) {
    return std::nullopt;
  }
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }


/// The "metrics" object: name -> {"value", "unit"}, values in full
/// precision.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char number[40];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
             number + ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.str().c_str());
}

void print_timing(const char* name, const Elapsed& e) {
  std::printf("%s cpu=%.6fs wall=%.6fs\n", name, e.cpu_s, e.wall_s);
}

/// Flags (never fails) a run during which the host took the CPU.
double report_cpu_wall(const Elapsed& e) {
  const double r = ratio(e.cpu_s, e.wall_s);
  std::printf("cpu/wall %.3f%s\n", r,
              r < kContendedRatio ? "  (host contended: the process got "
                                    "less than the core it asked for)"
                                  : "");
  return r;
}

Metrics layer_metrics(const Layers& l, double cpu_wall_ratio) {
  Metrics m;
  m.add("spp.generate_s", l.spp_generate_s, "s");
  m.add("spp.channels", static_cast<double>(l.spp_channels), "count");
  m.add("spp.permitted_paths", static_cast<double>(l.spp_permitted_paths),
        "count");

  const auto& e = l.engine_us;
  m.add("engine.sched_next_us", e[kSchedNext], "us");
  m.add("engine.execute_us", e[kEngineExecute], "us");
  m.add("engine.quiescence_us", e[kQuiescence], "us");
  m.add("engine.channel_usage_us", e[kChannelUsage], "us");
  m.add("engine.cycle_us", e[kCycle], "us");
  m.add("engine.run_residual_us",
        l.engine_run_us - e[kSchedNext] - e[kEngineExecute] -
            e[kQuiescence] - e[kChannelUsage] - e[kCycle],
        "us");
  m.add("engine.steps", static_cast<double>(l.engine_steps), "count");
  m.add("engine.messages_sent", static_cast<double>(l.engine_messages_sent),
        "count");
  m.add("engine.state_bytes", static_cast<double>(l.engine_state_bytes), "B");

  m.add("sim.run_us", l.sim_run_us, "us");
  m.add("sim.engine_replay_us", l.sim_replay_us, "us");
  m.add("sim.self_us", l.sim_run_us - l.sim_replay_us, "us");
  m.add("sim.events", static_cast<double>(l.sim_events), "count");
  m.add("sim.messages_delivered",
        static_cast<double>(l.sim_messages_delivered), "count");
  m.add("sim.queue_peak_events", static_cast<double>(l.sim_queue_peak_events),
        "count");

  const auto& c = l.checker_us;
  m.add("checker.enumerate_us", c[kEnumerate], "us");
  m.add("checker.copy_us", c[kCopy], "us");
  m.add("checker.execute_us", c[kCheckerExecute], "us");
  m.add("checker.hash_us", c[kHash], "us");
  m.add("checker.intern_us", c[kIntern], "us");
  m.add("checker.residual_us",
        l.checker_explore_us - c[kEnumerate] - c[kCopy] - c[kCheckerExecute] -
            c[kHash] - c[kIntern],
        "us");
  const auto states = static_cast<double>(l.checker_states);
  m.add("checker.states", states, "count");
  m.add("checker.transitions", static_cast<double>(l.checker_transitions),
        "count");
  m.add("checker.dedup_hits", static_cast<double>(l.checker_dedup_hits),
        "count");
  m.add("checker.new_state_ratio",
        ratio(states, static_cast<double>(l.checker_transitions)), "frac");
  m.add("checker.bytes_per_state",
        ratio(static_cast<double>(l.checker_tracked_bytes), states),
        "B/state");
  m.add("checker.states_per_s", ratio(states, l.checker_explore_us * 1e-6),
        "1/s");

  // Per-operation rates, over every run the traced run made.
  m.add("engine_us_per_step",
        ratio(l.engine_run_us, static_cast<double>(l.engine_steps)), "us");
  m.add("sim_us_per_step",
        ratio(l.sim_run_us, static_cast<double>(l.sim_steps)), "us");
  m.add("rows_per_s",
        ratio(static_cast<double>(l.study_rows), l.obs_attached_s), "1/s");
  m.add("cells_per_s",
        ratio(static_cast<double>(l.study_cells), l.study_matrix_s), "1/s");
  m.add("study.rows", static_cast<double>(l.study_rows), "count");
  m.add("study.steps", static_cast<double>(l.study_steps), "count");
  m.add("study.cells", static_cast<double>(l.study_cells), "count");
  m.add("study.cell_states", static_cast<double>(l.study_cell_states),
        "count");

  m.add("obs.overhead_frac",
        ratio(l.obs_attached_s - l.obs_detached_s, l.obs_detached_s), "frac");
  m.add("obs.events", static_cast<double>(l.obs_events), "count");
  m.add("obs.event_bytes", static_cast<double>(l.obs_event_bytes), "B");

  m.add("bench.trace_overhead_frac",
        ratio(static_cast<double>(l.laps) * lap_cost_s(), l.program_s),
        "frac");
  m.add("bench.cpu_wall_ratio", cpu_wall_ratio, "frac");
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <explore-badgadget|"
                 "converge-400|sweep-small> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  if (!kOptimisedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a build without "
                 "optimisation or without NDEBUG (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const std::unique_ptr<Workload> workload =
      make_workload(args->workload, args->seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args->workload.c_str());
    return 2;
  }

  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"git\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %ld}}\n",
      args->workload.c_str(), static_cast<unsigned long long>(args->seed),
      args->trace ? 1 : 0, obs::git_describe().c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN));

  try {
    if (args->trace) {
      workload->setup();
      Layers layers;
      const Clock start = Clock::now();
      const PassResult pass = workload->traced(layers);
      self_tests(args->seed, layers);
      const Elapsed run = since(start);
      print_timing("traced", run);
      for (const std::string& mismatch : layers.mismatches) {
        std::fprintf(stderr, "replica mismatch: %s\n", mismatch.c_str());
      }
      const std::uint64_t failed = pass.failed + layers.mismatches.size();
      print_result(failed == 0, pass.attempted + layers.checks, failed,
                   layer_metrics(layers, report_cpu_wall(run)));
      return 0;
    }

    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
      const Clock start = Clock::now();
      workload->setup();
      const Elapsed e = since(start);
      print_timing("setup", e);
      setup_s.push_back(e.cpu_s);
    }

    std::vector<double> pass_s;
    std::vector<std::vector<double>> part_s;  // [part][pass]
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Elapsed measured;
    const Clock start = Clock::now();
    for (;;) {
      const PassResult pass = workload->pass();
      Elapsed total;
      part_s.resize(pass.parts.size());
      for (std::size_t i = 0; i < pass.parts.size(); ++i) {
        part_s[i].push_back(pass.parts[i].cpu_s);
        total += pass.parts[i];
      }
      print_timing("pass", total);
      pass_s.push_back(total.cpu_s);
      attempted += pass.attempted;
      failed += pass.failed;
      measured += total;
      const double elapsed = since(start).wall_s;
      if (pass_s.size() >= kMinPasses &&
          elapsed + median(pass_s) > args->seconds) {
        break;
      }
    }
    report_cpu_wall(measured);

    Metrics metrics;
    metrics.add("setup_s", median(setup_s), "s");
    // Each part's fastest run, summed: the shared host's interference
    // only ever slows a part down, and later passes in one process also
    // inherit the allocator state of earlier ones.
    double verdict_s = 0.0;
    for (const std::vector<double>& part : part_s) {
      verdict_s += *std::min_element(part.begin(), part.end());
    }
    metrics.add("verdict_s", verdict_s, "s");
    metrics.add("peak_rss_mb",
                static_cast<double>(obs::read_process_memory().peak_rss_bytes) /
                    (1024.0 * 1024.0),
                "MB");
    print_result(failed == 0, attempted, failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
