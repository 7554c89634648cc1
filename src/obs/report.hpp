// Self-contained run reports: one streaming pass over any JSONL
// artifact this repo produces (engine/checker/sim event streams,
// campaign outputs, telemetry side channels, flight recordings — or a
// concatenation) builds a RunReport, which renders either as a single
// static HTML file (inline CSS, SVG sparklines, zero JavaScript, no
// network fetches) or as deterministic JSON.
//
// Determinism contract: report_json() is a pure function of the input
// bytes — no generation timestamp, hostname, or RSS enters the
// document — so CI can double-run `commroute-obs report --json` and
// byte-compare. The HTML shares the same property but is meant for
// humans, not diffing. Memory is bounded regardless of input length:
// event aggregation runs on StreamingSummarizer, time series are
// decimated to a fixed point budget, and heavy-hitter tables are
// TopK sketches.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/sketch.hpp"

namespace commroute::obs {

/// One numeric time series (telemetry gauge, progress fraction),
/// decimated deterministically: when the point budget fills, every
/// other point is dropped and the keep-stride doubles, so the series
/// always spans the whole stream with at most kSeriesCap points.
struct ReportSeries {
  static constexpr std::size_t kSeriesCap = 512;

  std::string name;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> points;  ///< (x, y)
  std::uint64_t samples = 0;  ///< points seen (>= points.size())
  std::uint64_t peak = 0;
  std::uint64_t last = 0;

  void add(std::uint64_t x, std::uint64_t y);

 private:
  std::uint64_t stride_ = 1;
};

/// Latest parsed log-histogram sketch of one labeled source, labeled
/// `<event type>.<key>` (older artifacts carry them on sim_summary and
/// checker_summary).
struct ReportQuantiles {
  std::string label;
  std::uint64_t occurrences = 0;  ///< events that carried this sketch
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
};

/// Final state of one progress_snapshot source.
struct ReportProgress {
  std::string name;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  double fraction = 0.0;
  double rate_per_sec = 0.0;
  std::uint64_t eta_ms = 0;
  std::uint64_t updates = 0;
};

/// Everything the HTML/JSON renderers need, built in one pass.
struct RunReport {
  std::string source;  ///< input label (file path or "stdin")

  /// Per-event-type counts and duration percentiles (bounded memory).
  JsonlSummary events;

  /// telemetry_snapshot numeric fields over elapsed_ms (x axis).
  std::vector<ReportSeries> telemetry;
  /// progress_snapshot fraction (permille, y) over elapsed_ms per
  /// source name, plus the final snapshot per source.
  std::vector<ReportSeries> progress_series;
  std::vector<ReportProgress> progress;

  /// Embedded log-histogram sketches by label, latest occurrence.
  std::vector<ReportQuantiles> quantiles;
  /// Embedded top-K sketches by label, merged across occurrences
  /// (per-key counts add; the table is itself a TopK(16)).
  std::vector<std::pair<std::string, TopK>> topk;

  /// campaign_row aggregation.
  std::uint64_t campaign_rows = 0;
  std::map<std::string, std::uint64_t> outcome_counts;
  LogHistogram campaign_steps_hist;

  /// Causality: largest critical path seen on any event carrying one.
  std::uint64_t critical_path_events = 0;
  std::uint64_t critical_path_len_max = 0;
  std::uint64_t critical_path_us_max = 0;

  /// Flight-recording view (recording_header/step/footer lines): header
  /// metadata, per-node assignment-change heavy hitters (streamed — one
  /// previous assignment is kept, never the recording), footer totals.
  bool has_recording = false;
  std::string recording_instance;
  std::string recording_model;
  std::string recording_scheduler;
  std::string recording_outcome;
  std::uint64_t recording_seed = 0;
  std::uint64_t recording_nodes = 0;
  std::uint64_t recording_steps = 0;
  std::uint64_t recording_changes = 0;  ///< footer total (0 if absent)
  TopK recording_flappers{16};
};

/// One streaming pass over a JSONL stream. Never throws on malformed
/// lines (they are counted in events.malformed).
RunReport build_report(std::istream& in, std::string source);

/// Deterministic single-line JSON rendering (see file comment).
std::string report_json(const RunReport& report);

/// Self-contained static HTML document (inline CSS, SVG sparklines, no
/// scripts). `title` defaults to the source label when empty.
std::string report_html(const RunReport& report, const std::string& title);

}  // namespace commroute::obs
