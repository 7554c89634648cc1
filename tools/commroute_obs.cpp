// commroute-obs: consumer CLI for the observability artifacts the
// library emits — JSONL event traces, span traces, BENCH_*.json perf
// output, and flight-recorder recordings. Closes the loop PR-wise: what
// the instrumented loops write, this tool aggregates, converts, gates
// on, replays, and dissects.
//
//   commroute-obs summarize RUN.jsonl [--follow]   per-type counts + latency quantiles
//   commroute-obs report RUN.jsonl [--json] [--title T]
//                                                  self-contained HTML (or JSON) run report
//   commroute-obs spans TRACE[.jsonl|.json] [--top N]   self-time table
//   commroute-obs convert RUN.jsonl OUT.json       Chrome trace / Perfetto export
//   commroute-obs bench-diff BASE.json CUR.json [--threshold PCT] [--mem-threshold PCT]
//                                                  perf+mem gate: exit 1 on regression
//   commroute-obs mem RUN.jsonl [--json]           memory telemetry report
//   commroute-obs pool RUN.jsonl [--json]          thread-pool utilization report
//   commroute-obs replay REC.recording.jsonl       deterministic re-execution diff
//   commroute-obs flaps REC.recording.jsonl        per-node route-flap timelines
//   commroute-obs oscillation REC.recording.jsonl  cycle extraction
//   commroute-obs causality REC.recording.jsonl    happens-before DAG stats + influence
//   commroute-obs critical-path REC.recording.jsonl  longest dependency chain, hop by hop
//
// Input handling: a missing or unreadable file exits 2 with a clear
// message; an empty file is a valid zero-event input for summarize /
// spans / convert and a hard error (exit 2) where structure is required
// (bench-diff and the recording commands).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/report.hpp"
#include "obs/causality.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/forensics.hpp"
#include "obs/json.hpp"
#include "obs/meta.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "trace/recording_io.hpp"

namespace {

using namespace commroute;

constexpr int kExitOk = 0;
// Exit 1 = the analysis itself says "no": a perf regression, a replay
// divergence, or no oscillation found. Exit 2 = usage / input errors.
constexpr int kExitFinding = 1;
constexpr int kExitUsage = 2;

int usage() {
  std::cerr
      << "usage: commroute-obs <command> [args]\n"
         "  summarize FILE.jsonl [--follow]    aggregate a JSONL event "
         "trace per event type\n"
         "                                     (--follow tails the file, "
         "re-printing as it grows)\n"
         "  report FILE.jsonl [--json] [--title T]\n"
         "                                     render any JSONL artifact "
         "into one self-contained\n"
         "                                     HTML page (inline CSS/SVG, "
         "no scripts); --json emits\n"
         "                                     the deterministic report "
         "document instead\n"
         "  spans FILE [--top N]               span self-time table "
         "(JSONL or Chrome trace input)\n"
         "  convert FILE.jsonl OUT.json        JSONL -> Chrome "
         "trace-event JSON (open in Perfetto)\n"
         "  bench-diff BASELINE.json CURRENT.json [--threshold PCT] "
         "[--mem-threshold PCT]\n"
         "                                     compare BENCH_*.json runs; "
         "exit 1 beyond threshold (default 10,\n"
         "                                     byte metrics gated "
         "separately, default 25)\n"
         "  mem FILE.jsonl [--json]            memory telemetry: snapshot "
         "gauges, checker/engine byte peaks\n"
         "  pool FILE.jsonl [--json]           thread-pool utilization "
         "from pool_summary + snapshots\n"
         "  replay FILE.recording.jsonl [--json]\n"
         "                                     re-execute a recording and "
         "diff per-step assignments; exit 1 on divergence\n"
         "  flaps FILE.recording.jsonl [--json]\n"
         "                                     per-node route-flap "
         "timelines + channel occupancy peaks\n"
         "  oscillation FILE.recording.jsonl [--json]\n"
         "                                     extract the recurring "
         "pi-cycle; exit 1 when none is found\n"
         "  causality FILE.recording.jsonl [--json] [--why NODE]\n"
         "                                     happens-before DAG stats + "
         "per-node influence; --why traces\n"
         "                                     the adoption chain behind "
         "NODE's final assignment\n"
         "  critical-path FILE.recording.jsonl [--json]\n"
         "                                     longest dependency chain to "
         "the last assignment change,\n"
         "                                     hop by hop; exit 1 when "
         "nothing ever changed\n";
  return kExitUsage;
}

/// Opens `path` for reading; on failure prints the message every
/// subcommand shares and leaves the stream !is_open().
std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::cerr << "commroute-obs: cannot open " << path
              << ": no such file or not readable\n";
  }
  return in;
}

std::string slurp(std::ifstream& in) {
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool blank(const std::string& content) {
  return trim(content).empty();
}

std::string format_us(std::uint64_t us) {
  char buf[32];
  if (us >= 1000000) {
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(us) / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof buf, "%.2fms",
                  static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lluus",
                  static_cast<unsigned long long>(us));
  }
  return buf;
}

std::string format_bytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.2fGiB",
                  static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
  } else if (bytes >= 1024ull * 1024) {
    std::snprintf(buf, sizeof buf, "%.2fMiB",
                  static_cast<double>(bytes) / (1024.0 * 1024));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%.1fKiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

void print_summary(const obs::JsonlSummary& summary) {
  TextTable table;
  table.set_header({"type", "count", "timed", "total", "p50", "p90",
                    "p99", "max"});
  for (const obs::EventTypeSummary& row : summary.types) {
    table.add_row({row.type, std::to_string(row.count),
                   std::to_string(row.timed), format_us(row.total_us),
                   format_us(row.p50_us), format_us(row.p90_us),
                   format_us(row.p99_us), format_us(row.max_us)});
  }
  std::cout << table.render();
  std::cout << summary.lines << " line(s), " << summary.malformed
            << " malformed\n";
}

int cmd_summarize(const std::vector<std::string>& args) {
  bool follow = false;
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    if (arg == "--follow") {
      follow = true;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 1) {
    return usage();
  }
  std::ifstream in = open_input(files[0]);
  if (!in.is_open()) {
    return kExitUsage;
  }
  if (!follow) {
    const obs::JsonlSummary summary = obs::summarize_jsonl(in);
    if (summary.lines == 0) {
      std::cout << files[0] << ": empty input (0 events)\n";
      return kExitOk;
    }
    print_summary(summary);
    return kExitOk;
  }
  // Tail mode: one StreamingSummarizer lives for the whole watch, so
  // memory stays bounded however long the producer runs. Each pass
  // drains whatever was appended since the last EOF, clears the eof bit,
  // and re-prints only when the file actually grew. Runs until killed.
  obs::StreamingSummarizer summarizer;
  std::size_t reported = static_cast<std::size_t>(-1);
  for (;;) {
    summarizer.consume(in);
    if (summarizer.lines() != reported) {
      reported = summarizer.lines();
      print_summary(summarizer.summary());
      std::cout.flush();
    }
    if (in.bad()) {
      std::cerr << "commroute-obs: read error on " << files[0] << "\n";
      return kExitUsage;
    }
    in.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
}

int cmd_report(const std::vector<std::string>& args) {
  std::string file;
  std::string title;
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--title" && i + 1 < args.size()) {
      title = args[++i];
    } else if (file.empty()) {
      file = args[i];
    } else {
      return usage();
    }
  }
  if (file.empty()) {
    return usage();
  }
  std::ifstream in = open_input(file);
  if (!in.is_open()) {
    return kExitUsage;
  }
  const obs::RunReport report = obs::build_report(in, file);
  if (json) {
    // Deterministic by design (no generation metadata): CI runs this
    // twice and byte-compares, like causality_report.
    std::cout << obs::report_json(report) << "\n";
  } else {
    std::cout << obs::report_html(report, title);
  }
  return kExitOk;
}

int cmd_spans(const std::vector<std::string>& args) {
  std::size_t top = 20;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top" && i + 1 < args.size()) {
      top = static_cast<std::size_t>(std::stoul(args[++i]));
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 1) {
    return usage();
  }
  std::ifstream in = open_input(files[0]);
  if (!in.is_open()) {
    return kExitUsage;
  }
  // A Chrome trace document is one JSON object spanning the whole file;
  // a span trace is JSONL. Try the document parse first.
  const std::string content = slurp(in);
  std::vector<obs::SpanRecord> records;
  if (const auto doc = obs::json_parse(content);
      doc.has_value() && doc->find("traceEvents") != nullptr) {
    records = obs::spans_from_chrome_trace(*doc);
  } else {
    std::istringstream jsonl(content);
    records = obs::spans_from_jsonl(jsonl);
  }
  if (records.empty()) {
    std::cout << "no spans in " << files[0] << "\n";
    return kExitOk;
  }
  const std::vector<obs::SpanStat> stats = obs::span_self_times(records);

  TextTable table;
  table.set_header({"span", "count", "self", "total", "max"});
  for (std::size_t i = 0; i < stats.size() && i < top; ++i) {
    const obs::SpanStat& s = stats[i];
    table.add_row({s.name, std::to_string(s.count), format_us(s.self_us),
                   format_us(s.total_us), format_us(s.max_us)});
  }
  std::cout << table.render();
  std::cout << records.size() << " span(s), " << stats.size()
            << " distinct name(s)\n";
  return kExitOk;
}

int cmd_convert(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    return usage();
  }
  std::ifstream in = open_input(args[0]);
  if (!in.is_open()) {
    return kExitUsage;
  }
  const obs::JsonlConversion conversion = obs::chrome_trace_from_jsonl(in);
  std::ofstream out(args[1], std::ios::trunc);
  CR_REQUIRE(out.is_open(), "cannot write " + args[1]);
  out << conversion.trace_json << "\n";
  std::cout << args[1] << ": " << conversion.events << " event(s), "
            << conversion.skipped
            << " skipped — open in chrome://tracing or ui.perfetto.dev\n";
  return kExitOk;
}

std::optional<obs::JsonValue> parse_json_file(const std::string& path,
                                              const char* expected) {
  std::ifstream in = open_input(path);
  if (!in.is_open()) {
    return std::nullopt;
  }
  const std::string content = slurp(in);
  if (blank(content)) {
    std::cerr << "commroute-obs: " << path << ": empty file (expected "
              << expected << ")\n";
    return std::nullopt;
  }
  auto doc = obs::json_parse(content);
  if (!doc.has_value()) {
    std::cerr << "commroute-obs: " << path << " is not valid JSON\n";
  }
  return doc;
}

/// Shared "FILE [--json]" argument shape (mem, pool, and the
/// recording commands).
struct RecordingArgs {
  std::string file;
  bool json = false;
  bool ok = false;
};

RecordingArgs parse_recording_args(const std::vector<std::string>& args) {
  RecordingArgs out;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      out.json = true;
    } else if (out.file.empty()) {
      out.file = arg;
    } else {
      return out;  // too many positionals
    }
  }
  out.ok = !out.file.empty();
  return out;
}

int cmd_bench_diff(const std::vector<std::string>& args) {
  double threshold = 10.0;
  double mem_threshold = 25.0;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--threshold" && i + 1 < args.size()) {
      threshold = std::stod(args[++i]);
    } else if (args[i] == "--mem-threshold" && i + 1 < args.size()) {
      mem_threshold = std::stod(args[++i]);
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.size() != 2) {
    return usage();
  }
  const auto baseline = parse_json_file(files[0], "BENCH_*.json");
  if (!baseline.has_value()) {
    return kExitUsage;
  }
  const auto current = parse_json_file(files[1], "BENCH_*.json");
  if (!current.has_value()) {
    return kExitUsage;
  }
  const obs::BenchDiff diff = obs::bench_diff(*baseline, *current,
                                              threshold, mem_threshold);

  TextTable table;
  table.set_header({"benchmark", "baseline", "current", "delta", ""});
  for (const obs::BenchDelta& d : diff.deltas) {
    char base[32], cur[32], delta[32];
    std::snprintf(base, sizeof base, "%.3fms", d.base_ms);
    std::snprintf(cur, sizeof cur, "%.3fms", d.current_ms);
    std::snprintf(delta, sizeof delta, "%+.1f%%", d.delta_pct);
    table.add_row({d.name, base, cur, delta,
                   d.regression ? "REGRESSION" : ""});
  }
  std::cout << table.render();
  for (const std::string& name : diff.only_in_baseline) {
    std::cout << "missing from current: " << name << "\n";
  }
  for (const std::string& name : diff.only_in_current) {
    std::cout << "new in current: " << name << "\n";
  }
  if (!diff.mem_deltas.empty()) {
    TextTable mem;
    mem.set_header({"byte metric", "baseline", "current", "delta", ""});
    for (const obs::MemDelta& d : diff.mem_deltas) {
      char delta[32];
      std::snprintf(delta, sizeof delta, "%+.1f%%", d.delta_pct);
      mem.add_row({d.name, format_bytes(d.base_bytes),
                   format_bytes(d.current_bytes), delta,
                   d.regression ? "REGRESSION" : ""});
    }
    std::cout << "\n" << mem.render();
  }
  if (diff.regression || diff.mem_regression) {
    if (diff.regression) {
      std::cout << "FAIL: at least one benchmark regressed more than "
                << threshold << "%\n";
    }
    if (diff.mem_regression) {
      std::cout << "FAIL: at least one byte metric grew more than "
                << mem_threshold << "%\n";
    }
    return kExitFinding;
  }
  std::cout << "OK: no benchmark regressed more than " << threshold
            << "%";
  if (!diff.mem_deltas.empty()) {
    std::cout << ", no byte metric grew more than " << mem_threshold
              << "%";
  }
  std::cout << "\n";
  return kExitOk;
}

int cmd_mem(const std::vector<std::string>& args) {
  const RecordingArgs opts = parse_recording_args(args);
  if (!opts.ok) {
    return usage();
  }
  std::ifstream in = open_input(opts.file);
  if (!in.is_open()) {
    return kExitUsage;
  }
  const obs::MemoryReport report = obs::memory_report(in);

  if (opts.json) {
    obs::JsonWriter w;
    w.field("type", "memory_report");
    obs::add_metadata_fields(w);
    w.field("file", opts.file)
        .field("snapshots", report.snapshots)
        .field("checker_summaries", report.checker_summaries)
        .field("tracked_peak_bytes", report.tracked_peak_bytes)
        .field("bytes_per_state", report.bytes_per_state)
        .field("peak_channel_bytes", report.peak_channel_bytes);
    std::string series = "[";
    for (std::size_t i = 0; i < report.series.size(); ++i) {
      const obs::MemorySeries& s = report.series[i];
      if (i > 0) {
        series += ',';
      }
      obs::JsonWriter row;
      row.field("name", s.name)
          .field("last", s.last)
          .field("peak", s.peak)
          .field("samples", s.samples);
      series += row.str();
    }
    series += ']';
    w.raw_field("series", series);
    std::cout << w.str() << "\n";
    return kExitOk;
  }

  if (report.snapshots == 0 && report.checker_summaries == 0 &&
      report.peak_channel_bytes == 0) {
    std::cout << opts.file << ": no memory telemetry found (no "
              << "telemetry_snapshot / checker_summary / engine_run "
              << "events)\n";
    return kExitOk;
  }
  if (!report.series.empty()) {
    TextTable table;
    table.set_header({"gauge", "last", "peak", "samples"});
    for (const obs::MemorySeries& s : report.series) {
      // Only gauges named *_bytes carry byte semantics; other probes
      // (pool.busy_us, pool.tasks_executed, ...) print as raw counts.
      const bool is_bytes =
          s.name.size() >= 6 &&
          (s.name.rfind("_bytes") == s.name.size() - 6 ||
           (s.name.size() >= 11 &&
            s.name.rfind("_bytes_peak") == s.name.size() - 11));
      table.add_row({s.name,
                     is_bytes ? format_bytes(s.last) : std::to_string(s.last),
                     is_bytes ? format_bytes(s.peak) : std::to_string(s.peak),
                     std::to_string(s.samples)});
    }
    std::cout << table.render();
  }
  std::cout << report.snapshots << " snapshot(s)";
  if (report.checker_summaries > 0) {
    char bps[32];
    std::snprintf(bps, sizeof bps, "%.1f", report.bytes_per_state);
    std::cout << "; checker tracked peak "
              << format_bytes(report.tracked_peak_bytes) << " (" << bps
              << " bytes/state over " << report.checker_summaries
              << " exploration(s))";
  }
  if (report.peak_channel_bytes > 0) {
    std::cout << "; engine peak in-flight "
              << format_bytes(report.peak_channel_bytes);
  }
  std::cout << "\n";
  return kExitOk;
}

int cmd_pool(const std::vector<std::string>& args) {
  const RecordingArgs opts = parse_recording_args(args);
  if (!opts.ok) {
    return usage();
  }
  std::ifstream in = open_input(opts.file);
  if (!in.is_open()) {
    return kExitUsage;
  }
  const obs::PoolReport report = obs::pool_report(in);

  if (opts.json) {
    obs::JsonWriter w;
    w.field("type", "pool_report");
    obs::add_metadata_fields(w);
    w.field("file", opts.file)
        .field("has_summary", report.has_summary)
        .field("workers", report.workers)
        .field("tasks_executed", report.tasks_executed)
        .field("busy_us", report.busy_us)
        .field("idle_us", report.idle_us)
        .field("utilization", report.utilization)
        .field("queue_depth_peak", report.queue_depth_peak);
    std::string workers = "[";
    for (std::size_t i = 0; i < report.per_worker.size(); ++i) {
      const obs::PoolWorkerRow& r = report.per_worker[i];
      if (i > 0) {
        workers += ',';
      }
      obs::JsonWriter row;
      row.field("worker", r.worker)
          .field("tasks", r.tasks)
          .field("busy_us", r.busy_us)
          .field("idle_us", r.idle_us);
      workers += row.str();
    }
    workers += ']';
    w.raw_field("per_worker", workers);
    std::string timeline = "[";
    for (std::size_t i = 0; i < report.timeline.size(); ++i) {
      const obs::PoolTimelinePoint& p = report.timeline[i];
      if (i > 0) {
        timeline += ',';
      }
      obs::JsonWriter row;
      row.field("elapsed_ms", p.elapsed_ms)
          .field("queue_depth", p.queue_depth)
          .field("tasks_executed", p.tasks_executed);
      timeline += row.str();
    }
    timeline += ']';
    w.raw_field("timeline", timeline);
    std::cout << w.str() << "\n";
    return kExitOk;
  }

  if (!report.has_summary && report.timeline.empty()) {
    std::cout << opts.file << ": no pool telemetry found (no "
              << "pool_summary / telemetry_snapshot pool probes)\n";
    return kExitOk;
  }
  if (report.has_summary) {
    char util[32];
    std::snprintf(util, sizeof util, "%.1f%%",
                  report.utilization * 100.0);
    std::cout << report.workers << " worker(s), "
              << report.tasks_executed << " task(s), utilization "
              << util << ", queue depth peak "
              << report.queue_depth_peak << "\n";
    if (!report.per_worker.empty()) {
      TextTable table;
      table.set_header({"worker", "tasks", "busy", "idle"});
      for (const obs::PoolWorkerRow& r : report.per_worker) {
        table.add_row({std::to_string(r.worker),
                       std::to_string(r.tasks), format_us(r.busy_us),
                       format_us(r.idle_us)});
      }
      std::cout << table.render();
    }
  }
  if (!report.timeline.empty()) {
    std::cout << report.timeline.size()
              << " snapshot(s) with pool probes; final queue depth "
              << report.timeline.back().queue_depth << ", final tasks "
              << report.timeline.back().tasks_executed << "\n";
  }
  return kExitOk;
}

// ---- Recording commands --------------------------------------------------

/// Loads a recording with the shared missing/empty/malformed handling;
/// nullopt means the error is already reported (exit 2).
std::optional<trace::LoadedRecording> load_recording(
    const std::string& path) {
  std::ifstream in = open_input(path);
  if (!in.is_open()) {
    return std::nullopt;
  }
  const std::string content = slurp(in);
  if (blank(content)) {
    std::cerr << "commroute-obs: " << path
              << ": empty file (expected a flight-recorder recording)\n";
    return std::nullopt;
  }
  std::istringstream stream(content);
  try {
    return trace::load_recording_jsonl(stream);
  } catch (const Error& e) {
    std::cerr << "commroute-obs: " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

std::string assignment_text(const spp::Instance& inst,
                            const trace::Assignment& a) {
  std::string out;
  for (NodeId v = 0; v < static_cast<NodeId>(a.size()); ++v) {
    if (v > 0) {
      out += ' ';
    }
    out += inst.graph().name(v) + "=" + inst.path_name(a[v]);
  }
  return out;
}

void describe_recording(const trace::LoadedRecording& loaded) {
  const trace::RecordingMeta& meta = loaded.doc.meta;
  std::cout << meta.kind << " of "
            << (meta.instance_name.empty() ? "<unnamed instance>"
                                           : meta.instance_name)
            << " (" << loaded.instance.node_count() << " nodes)";
  if (!meta.model.empty()) {
    std::cout << ", model " << meta.model;
  }
  if (!meta.scheduler.empty()) {
    std::cout << ", scheduler " << meta.scheduler;
  }
  std::cout << ": steps " << meta.first_step << ".."
            << (meta.first_step + loaded.doc.steps.size() - 1);
  if (!meta.outcome.empty()) {
    std::cout << ", outcome " << meta.outcome;
  }
  std::cout << (loaded.doc.complete() ? "" : " [partial ring window]")
            << "\n";
}

int cmd_replay(const std::vector<std::string>& args) {
  const RecordingArgs opts = parse_recording_args(args);
  if (!opts.ok) {
    return usage();
  }
  const auto loaded = load_recording(opts.file);
  if (!loaded.has_value()) {
    return kExitUsage;
  }
  if (!loaded->doc.complete()) {
    std::cerr << "commroute-obs: " << opts.file
              << ": partial (ring-buffer) recording starting at step "
              << loaded->doc.meta.first_step
              << " cannot be replayed; record in full mode for replay\n";
    return kExitUsage;
  }
  const trace::ReplayResult result = trace::replay_recording(*loaded);
  const std::size_t collapsed = loaded->doc.trace.change_count() + 1;

  if (opts.json) {
    obs::JsonWriter w;
    w.field("type", "replay_report");
    obs::add_metadata_fields(w);
    w.field("file", opts.file)
        .field("steps_replayed", result.steps_replayed)
        .field("identical", result.identical)
        .field("collapsed_states",
               static_cast<std::uint64_t>(collapsed));
    if (result.divergence.has_value()) {
      obs::JsonWriter d;
      d.field("step", result.divergence->step)
          .field("node",
                 loaded->instance.graph().name(result.divergence->node))
          .field("expected",
                 loaded->instance.path_name(result.divergence->expected))
          .field("actual",
                 loaded->instance.path_name(result.divergence->actual));
      w.raw_field("divergence", d.str());
    }
    std::cout << w.str() << "\n";
  } else {
    describe_recording(*loaded);
    if (result.identical) {
      std::cout << "replayed " << result.steps_replayed
                << " step(s): identical per-step path assignments ("
                << collapsed << " collapsed states)\n";
    } else if (result.divergence.has_value()) {
      const trace::ReplayDivergence& d = *result.divergence;
      std::cout << "DIVERGENCE at step " << d.step << ": node "
                << loaded->instance.graph().name(d.node) << " expected "
                << loaded->instance.path_name(d.expected) << ", got "
                << loaded->instance.path_name(d.actual) << "\n";
    }
  }
  return result.identical ? kExitOk : kExitFinding;
}

int cmd_flaps(const std::vector<std::string>& args) {
  const RecordingArgs opts = parse_recording_args(args);
  if (!opts.ok) {
    return usage();
  }
  const auto loaded = load_recording(opts.file);
  if (!loaded.has_value()) {
    return kExitUsage;
  }
  const obs::FlapReport report =
      obs::flap_timelines(loaded->instance, loaded->doc);
  const bool have_io = !loaded->doc.io.empty();
  std::vector<obs::ChannelOccupancy> occupancy;
  if (have_io) {
    occupancy = obs::channel_occupancy(loaded->instance, loaded->doc);
  }

  if (opts.json) {
    std::string nodes = "[";
    for (std::size_t i = 0; i < report.nodes.size(); ++i) {
      const obs::NodeFlapTimeline& n = report.nodes[i];
      if (i > 0) {
        nodes += ',';
      }
      obs::JsonWriter w;
      w.field("node", n.name)
          .field("changes", n.changes)
          .field("withdrawals", n.withdrawals)
          .field("first_change_step", n.first_change_step)
          .field("last_change_step", n.last_change_step)
          .field("distinct_paths",
                 static_cast<std::uint64_t>(n.distinct_paths));
      nodes += w.str();
    }
    nodes += ']';
    std::string channels = "[";
    for (std::size_t i = 0; i < occupancy.size(); ++i) {
      const obs::ChannelOccupancy& c = occupancy[i];
      if (i > 0) {
        channels += ',';
      }
      obs::JsonWriter w;
      w.field("channel", c.name)
          .field("peak", static_cast<std::uint64_t>(c.peak))
          .field("sent", c.sent)
          .field("processed", c.processed)
          .field("dropped", c.dropped);
      std::string series = "[";
      for (std::size_t t = 0; t < c.series.size(); ++t) {
        if (t > 0) {
          series += ',';
        }
        series += std::to_string(c.series[t]);
      }
      series += ']';
      w.raw_field("series", series);
      channels += w.str();
    }
    channels += ']';
    obs::JsonWriter top;
    top.field("type", "flap_report");
    obs::add_metadata_fields(top);
    top.field("file", opts.file)
        .field("steps", report.steps)
        .field("first_step", report.first_step)
        .field("total_changes", report.total_changes);
    top.raw_field("nodes", nodes);
    top.raw_field("channels", channels);
    std::cout << top.str() << "\n";
    return kExitOk;
  }

  describe_recording(*loaded);
  TextTable table;
  table.set_header({"node", "changes", "withdrawals", "first", "last",
                    "distinct paths"});
  for (const obs::NodeFlapTimeline& n : report.nodes) {
    table.add_row({n.name, std::to_string(n.changes),
                   std::to_string(n.withdrawals),
                   std::to_string(n.first_change_step),
                   std::to_string(n.last_change_step),
                   std::to_string(n.distinct_paths)});
  }
  std::cout << table.render();
  std::cout << report.total_changes << " assignment change(s) over "
            << report.steps << " recorded step(s)\n";
  if (have_io) {
    TextTable channels;
    channels.set_header({"channel", "peak", "sent", "processed",
                         "dropped"});
    for (const obs::ChannelOccupancy& c : occupancy) {
      channels.add_row({c.name, std::to_string(c.peak),
                        std::to_string(c.sent),
                        std::to_string(c.processed),
                        std::to_string(c.dropped)});
    }
    std::cout << "\n" << channels.render();
  }
  return kExitOk;
}

int cmd_oscillation(const std::vector<std::string>& args) {
  const RecordingArgs opts = parse_recording_args(args);
  if (!opts.ok) {
    return usage();
  }
  const auto loaded = load_recording(opts.file);
  if (!loaded.has_value()) {
    return kExitUsage;
  }
  // A converged recording's pi-sequence can transiently revisit its
  // final state; the outcome metadata is authoritative there.
  const bool converged = loaded->doc.meta.outcome == "converged";
  const obs::OscillationCycle cycle =
      converged ? obs::OscillationCycle{}
                : obs::extract_cycle(loaded->doc);

  if (opts.json) {
    obs::JsonWriter w;
    w.field("type", "oscillation_report");
    obs::add_metadata_fields(w);
    w.field("file", opts.file)
        .field("found", cycle.found)
        .field("collapsed_states",
               static_cast<std::uint64_t>(
                   converged ? loaded->doc.trace.change_count() + 1
                             : cycle.collapsed_states));
    if (cycle.found) {
      w.field("period", static_cast<std::uint64_t>(cycle.period))
          .field("cycle_start_step", cycle.cycle_start_step);
      std::string states = "[";
      for (std::size_t k = 0; k < cycle.cycle.size(); ++k) {
        if (k > 0) {
          states += ',';
        }
        states += '"' +
                  obs::json_escape(
                      assignment_text(loaded->instance, cycle.cycle[k])) +
                  '"';
      }
      states += ']';
      w.raw_field("cycle", states);
      std::string steps = "[";
      for (std::size_t k = 0; k < cycle.witness_steps.size(); ++k) {
        if (k > 0) {
          steps += ',';
        }
        steps += std::to_string(cycle.witness_steps[k]);
      }
      steps += ']';
      w.raw_field("witness_steps", steps);
    }
    std::cout << w.str() << "\n";
    return cycle.found ? kExitOk : kExitFinding;
  }

  describe_recording(*loaded);
  if (!cycle.found) {
    std::cout << (converged
                      ? "recording converged; no oscillation to extract\n"
                      : "no recurring pi-cycle found in the recorded "
                        "window\n");
    return kExitFinding;
  }
  std::cout << "oscillation cycle: period " << cycle.period
            << " (collapsed states), entered at step "
            << cycle.cycle_start_step << "\n";
  for (std::size_t k = 0; k < cycle.cycle.size(); ++k) {
    std::cout << "  [step " << cycle.witness_steps[k] << "] "
              << assignment_text(loaded->instance, cycle.cycle[k]) << "\n";
  }
  return kExitOk;
}

/// NodeId for `name`, or kNoNode (with a message) when unknown.
NodeId node_by_name(const spp::Instance& inst, const std::string& name) {
  for (NodeId v = 0; v < static_cast<NodeId>(inst.node_count()); ++v) {
    if (inst.graph().name(v) == name) {
      return v;
    }
  }
  std::cerr << "commroute-obs: no node named \"" << name
            << "\" in this instance\n";
  return kNoNode;
}

/// pi at each hop of one chain, advanced through the recording's trace.
/// A chain is root first, so its steps only go up and the walk applies
/// each step's changes once.
class ChainPi {
 public:
  explicit ChainPi(const trace::LoadedRecording& loaded)
      : loaded_(loaded), pi_(loaded.doc.trace.at(0)) {}

  /// pi(link.node) right after link.step, rendered; "" when the
  /// recording window does not cover that step.
  std::string at(const obs::CausalLink& link) {
    const std::uint64_t first = loaded_.doc.meta.first_step;
    if (link.step < first) {
      return "";
    }
    const std::uint64_t local = link.step - first + 1;
    if (local >= loaded_.doc.trace.size()) {
      return "";
    }
    CR_REQUIRE(local >= t_, "chain steps must not decrease");
    for (; t_ < local; ++t_) {
      for (const trace::Change& change : loaded_.doc.trace.changes(t_ + 1)) {
        pi_[change.node] = change.path;
      }
    }
    return loaded_.instance.path_name(pi_[link.node]);
  }

 private:
  const trace::LoadedRecording& loaded_;
  trace::Assignment pi_;  ///< pi(t_) of the window
  std::size_t t_ = 0;
};

/// How the hop was reached: the arriving channel, program order, or the
/// chain root.
std::string link_via(const obs::CausalityGraph& graph,
                     const obs::CausalLink& link, bool root) {
  if (link.via != kNoChannel) {
    return graph.channel_name(link.via);
  }
  return root ? "(root)" : "(local)";
}

/// ["{...}",...] of chain hops, shared by causality --why and
/// critical-path --json.
std::string chain_json(const trace::LoadedRecording& loaded,
                       const obs::CausalityGraph& graph,
                       const std::vector<obs::CausalLink>& chain) {
  ChainPi pi_at(loaded);
  std::string out = "[";
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const obs::CausalLink& link = chain[i];
    if (i > 0) {
      out += ',';
    }
    obs::JsonWriter w;
    w.field("step", link.step)
        .field("node", graph.node_name(link.node))
        .field("changed", link.changed);
    if (graph.timed()) {
      w.field("t_us", link.t_us);
    }
    if (link.via != kNoChannel) {
      w.field("via", graph.channel_name(link.via));
    }
    const std::string pi = pi_at.at(link);
    if (!pi.empty() || link.changed) {
      w.field("pi", pi);
    }
    out += w.str();
  }
  out += ']';
  return out;
}

void print_chain(const trace::LoadedRecording& loaded,
                 const obs::CausalityGraph& graph,
                 const std::vector<obs::CausalLink>& chain) {
  TextTable table;
  if (graph.timed()) {
    table.set_header({"step", "t", "node", "via", "pi"});
  } else {
    table.set_header({"step", "node", "via", "pi"});
  }
  ChainPi pi_at(loaded);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const obs::CausalLink& link = chain[i];
    std::vector<std::string> row;
    row.push_back(std::to_string(link.step));
    if (graph.timed()) {
      row.push_back(format_us(link.t_us));
    }
    row.push_back(graph.node_name(link.node));
    row.push_back(link_via(graph, link, i == 0));
    row.push_back(pi_at.at(link));
    table.add_row(row);
  }
  std::cout << table.render();
}

int cmd_causality(const std::vector<std::string>& args) {
  std::string file;
  std::string why;
  bool json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--why" && i + 1 < args.size()) {
      why = args[++i];
    } else if (file.empty()) {
      file = args[i];
    } else {
      return usage();
    }
  }
  if (file.empty()) {
    return usage();
  }
  const auto loaded = load_recording(file);
  if (!loaded.has_value()) {
    return kExitUsage;
  }
  // PreconditionError (ring window without I/O) propagates to main's
  // handler: exit 2 with the library's message.
  const obs::CausalityGraph graph =
      obs::build_causality(loaded->instance, loaded->doc);
  const obs::CausalityStats stats = graph.stats();
  const std::vector<std::uint64_t> influence = graph.influence();
  obs::CausalityGraph::RootCause cause;
  if (!why.empty()) {
    const NodeId v = node_by_name(loaded->instance, why);
    if (v == kNoNode) {
      return kExitUsage;
    }
    cause = graph.root_cause(v);
  }

  if (json) {
    obs::JsonWriter w;
    // Deliberately no created_unix_ms/argv header: this report is part
    // of the determinism contract (CI byte-compares two runs).
    w.field("type", "causality_report")
        .field("schema_version", obs::kArtifactSchemaVersion)
        .field("file", file)
        .field("activations", stats.activations)
        .field("messages", stats.messages)
        .field("consume_edges", stats.consume_edges)
        .field("program_edges", stats.program_edges)
        .field("adoption_edges", stats.adoption_edges)
        .field("emit_edges", stats.emit_edges)
        .field("dropped_messages", stats.dropped_messages)
        .field("in_flight_messages", stats.in_flight_messages)
        .field("unknown_origin_messages", stats.unknown_origin_messages)
        .field("faults", stats.faults)
        .field("flushed_messages", stats.flushed_messages)
        .field("roots", stats.roots)
        .field("max_depth", stats.max_depth)
        .field("critical_path_len", stats.critical_path_len)
        .field("critical_path_us", stats.critical_path_us)
        .field("truncated", stats.truncated)
        .field("timed", stats.timed);
    std::string rows = "[";
    for (NodeId v = 0; v < static_cast<NodeId>(influence.size()); ++v) {
      if (v > 0) {
        rows += ',';
      }
      obs::JsonWriter row;
      row.field("node", graph.node_name(v)).field("influence", influence[v]);
      rows += row.str();
    }
    rows += ']';
    w.raw_field("influence", rows);
    if (!why.empty()) {
      obs::JsonWriter c;
      c.field("node", graph.node_name(cause.node))
          .field("complete", cause.complete);
      c.raw_field("chain", chain_json(*loaded, graph, cause.chain));
      w.raw_field("root_cause", c.str());
    }
    std::cout << w.str() << "\n";
    return kExitOk;
  }

  describe_recording(*loaded);
  std::cout << "happens-before DAG: " << stats.activations
            << " activation(s), " << stats.messages << " message(s), "
            << stats.consume_edges + stats.program_edges + stats.emit_edges
            << " edge(s) (" << stats.consume_edges << " consume, "
            << stats.program_edges << " program, " << stats.emit_edges
            << " emit; " << stats.adoption_edges
            << " adoption data-flow)\n";
  std::cout << "messages: " << stats.dropped_messages << " dropped, "
            << stats.in_flight_messages << " still in flight, "
            << stats.unknown_origin_messages << " of unknown origin\n";
  if (stats.faults > 0) {
    std::cout << "faults: " << stats.faults << " injected, "
              << stats.flushed_messages << " message(s) flushed in flight\n";
  }
  std::cout << "depth: max " << stats.max_depth << " over " << stats.roots
            << " root(s); critical path " << stats.critical_path_len
            << " activation(s)";
  if (stats.timed) {
    std::cout << " / " << format_us(stats.critical_path_us)
              << " virtual";
  }
  std::cout << "\n";
  if (stats.truncated) {
    std::cout << "NOTE: ring-buffer window (starts at step "
              << graph.first_step()
              << "); chains may continue past the window edge, all "
              << "figures are lower bounds\n";
  }
  TextTable table;
  table.set_header({"node", "influence"});
  for (NodeId v = 0; v < static_cast<NodeId>(influence.size()); ++v) {
    table.add_row({graph.node_name(v), std::to_string(influence[v])});
  }
  std::cout << table.render();
  if (!why.empty()) {
    std::cout << "root cause of " << graph.node_name(cause.node)
              << "'s final assignment"
              << (cause.complete ? ":" : " (incomplete — provenance "
                                         "leaves the recorded window):")
              << "\n";
    if (cause.chain.empty()) {
      std::cout << "  pi(" << graph.node_name(cause.node)
                << ") never changed inside the window\n";
    } else {
      print_chain(*loaded, graph, cause.chain);
    }
  }
  return kExitOk;
}

int cmd_critical_path(const std::vector<std::string>& args) {
  const RecordingArgs opts = parse_recording_args(args);
  if (!opts.ok) {
    return usage();
  }
  const auto loaded = load_recording(opts.file);
  if (!loaded.has_value()) {
    return kExitUsage;
  }
  const obs::CausalityGraph graph =
      obs::build_causality(loaded->instance, loaded->doc);
  const std::vector<obs::CausalLink> chain = graph.critical_path();

  if (opts.json) {
    obs::JsonWriter w;
    // Deterministic by design, like causality_report.
    w.field("type", "critical_path_report")
        .field("schema_version", obs::kArtifactSchemaVersion)
        .field("file", opts.file)
        .field("found", !chain.empty())
        .field("length", static_cast<std::uint64_t>(chain.size()))
        .field("critical_path_us", graph.critical_path_us())
        .field("truncated", graph.truncated())
        .field("timed", graph.timed());
    w.raw_field("chain", chain_json(*loaded, graph, chain));
    std::cout << w.str() << "\n";
    return chain.empty() ? kExitFinding : kExitOk;
  }

  describe_recording(*loaded);
  if (chain.empty()) {
    std::cout << "no assignment ever changed in the recorded window; "
              << "there is no critical path\n";
    return kExitFinding;
  }
  std::cout << "critical path: " << chain.size() << " activation(s)";
  if (graph.timed()) {
    std::cout << ", virtual length " << format_us(graph.critical_path_us());
  }
  if (graph.truncated()) {
    std::cout << " (lower bound: window starts at step "
              << graph.first_step() << ")";
  }
  std::cout << "\n";
  print_chain(*loaded, graph, chain);
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  commroute::obs::set_process_argv(argc, argv);
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "summarize") {
      return cmd_summarize(args);
    }
    if (command == "report") {
      return cmd_report(args);
    }
    if (command == "spans") {
      return cmd_spans(args);
    }
    if (command == "convert") {
      return cmd_convert(args);
    }
    if (command == "bench-diff") {
      return cmd_bench_diff(args);
    }
    if (command == "mem") {
      return cmd_mem(args);
    }
    if (command == "pool") {
      return cmd_pool(args);
    }
    if (command == "replay") {
      return cmd_replay(args);
    }
    if (command == "flaps") {
      return cmd_flaps(args);
    }
    if (command == "oscillation") {
      return cmd_oscillation(args);
    }
    if (command == "causality") {
      return cmd_causality(args);
    }
    if (command == "critical-path") {
      return cmd_critical_path(args);
    }
    std::cerr << "unknown command: " << command << "\n";
    return usage();
  } catch (const commroute::Error& e) {
    std::cerr << "commroute-obs: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "commroute-obs: " << e.what() << "\n";
    return kExitUsage;
  }
}
