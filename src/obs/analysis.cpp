#include "obs/analysis.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <map>
#include <unordered_map>

#include "support/error.hpp"

namespace commroute::obs {

namespace {

/// The event's duration in microseconds, if it carries one.
std::optional<std::uint64_t> event_duration_us(const JsonValue& event) {
  if (const auto us = truncate_number<std::uint64_t>(event.find("dur_us"))) {
    return us;
  }
  if (const auto us = truncate_number<std::uint64_t>(event.find("wall_us"))) {
    return us;
  }
  if (const auto us =
          truncate_number<std::uint64_t>(event.find("wall_ms"), 1000.0)) {
    return us;
  }
  if (const JsonValue* row = event.find("row"); row != nullptr) {
    return truncate_number<std::uint64_t>(row->find("wall_ms"), 1000.0);
  }
  return std::nullopt;
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted,
                         int pct) {
  return sorted[(sorted.size() - 1) * static_cast<std::size_t>(pct) / 100];
}

}  // namespace

void StreamingSummarizer::add_line(const std::string& line) {
  if (line.empty()) {
    return;
  }
  ++lines_;
  const auto parsed = json_parse(line);
  if (!parsed.has_value() || !parsed->is_object()) {
    ++malformed_;
    return;
  }
  const JsonValue* type = parsed->find("type");
  Acc& acc = by_type_[(type != nullptr && type->is_string())
                          ? type->as_string()
                          : "(untyped)"];
  ++acc.count;
  if (const auto dur = event_duration_us(*parsed); dur.has_value()) {
    ++acc.timed;
    acc.total_us += *dur;
    acc.max_us = std::max(acc.max_us, *dur);
    if (acc.exact.size() < kExactCap) {
      acc.exact.push_back(*dur);
    } else {
      if (!acc.spill.has_value()) {
        // Past the cap everything sketches — including the exact prefix,
        // so spilled percentiles cover the whole distribution.
        acc.spill.emplace(7u);
        for (const std::uint64_t d : acc.exact) {
          acc.spill->observe(d);
        }
      }
      acc.spill->observe(*dur);
    }
  }
}

void StreamingSummarizer::consume(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    add_line(line);
  }
}

JsonlSummary StreamingSummarizer::summary() const {
  JsonlSummary summary;
  summary.lines = lines_;
  summary.malformed = malformed_;
  for (const auto& [type, acc] : by_type_) {
    EventTypeSummary row;
    row.type = type;
    row.count = acc.count;
    row.timed = acc.timed;
    row.total_us = acc.total_us;
    row.max_us = acc.max_us;
    if (acc.spill.has_value()) {
      row.p50_us = std::min(acc.spill->quantile(0.50), acc.max_us);
      row.p90_us = std::min(acc.spill->quantile(0.90), acc.max_us);
      row.p99_us = std::min(acc.spill->quantile(0.99), acc.max_us);
    } else if (!acc.exact.empty()) {
      std::vector<std::uint64_t> sorted = acc.exact;
      std::sort(sorted.begin(), sorted.end());
      row.p50_us = percentile(sorted, 50);
      row.p90_us = percentile(sorted, 90);
      row.p99_us = percentile(sorted, 99);
    }
    summary.types.push_back(std::move(row));
  }
  std::stable_sort(summary.types.begin(), summary.types.end(),
                   [](const EventTypeSummary& a, const EventTypeSummary& b) {
                     return a.count > b.count;
                   });
  return summary;
}

JsonlSummary summarize_jsonl(std::istream& in) {
  StreamingSummarizer s;
  s.consume(in);
  return s.summary();
}

std::vector<SpanRecord> spans_from_jsonl(std::istream& in) {
  std::vector<SpanRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    const auto parsed = json_parse(line);
    if (!parsed.has_value() || !parsed->is_object()) {
      continue;
    }
    const JsonValue* type = parsed->find("type");
    if (type == nullptr || !type->is_string() ||
        type->as_string() != "span") {
      continue;
    }
    const JsonValue* name = parsed->find("name");
    const auto ts = truncate_number<std::uint64_t>(parsed->find("ts_us"));
    const auto dur = truncate_number<std::uint64_t>(parsed->find("dur_us"));
    if (name == nullptr || !name->is_string() || !ts.has_value() ||
        !dur.has_value()) {
      continue;
    }
    SpanRecord rec;
    rec.name = name->as_string();
    rec.start_us = *ts;
    rec.dur_us = *dur;
    const auto u32 = [&](const char* key) {
      return truncate_number<std::uint32_t>(parsed->find(key)).value_or(0);
    };
    rec.id = u32("id");
    rec.parent = u32("parent");
    rec.tid = u32("tid");
    if (const JsonValue* args = parsed->find("args");
        args != nullptr && args->is_object()) {
      rec.args_json = json_render(*args);
    }
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<SpanRecord> spans_from_chrome_trace(const JsonValue& doc) {
  std::vector<SpanRecord> records;
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return records;
  }
  for (const JsonValue& event : events->as_array()) {
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->as_string() != "X") {
      continue;
    }
    const JsonValue* name = event.find("name");
    const auto ts = truncate_number<std::uint64_t>(event.find("ts"));
    const auto dur = truncate_number<std::uint64_t>(event.find("dur"));
    if (name == nullptr || !name->is_string() || !ts.has_value() ||
        !dur.has_value()) {
      continue;
    }
    SpanRecord rec;
    rec.name = name->as_string();
    rec.start_us = *ts;
    rec.dur_us = *dur;
    rec.tid = truncate_number<std::uint32_t>(event.find("tid")).value_or(0);
    if (const JsonValue* args = event.find("args"); args != nullptr) {
      rec.id = truncate_number<std::uint32_t>(args->find("id")).value_or(0);
      rec.parent =
          truncate_number<std::uint32_t>(args->find("parent")).value_or(0);
    }
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<SpanStat> span_self_times(
    const std::vector<SpanRecord>& records) {
  // Direct-children duration per span id (id 0 = roots, discarded).
  std::unordered_map<std::uint32_t, std::uint64_t> child_us;
  for (const SpanRecord& rec : records) {
    if (rec.parent != 0) {
      child_us[rec.parent] += rec.dur_us;
    }
  }

  std::map<std::string, SpanStat> by_name;
  for (const SpanRecord& rec : records) {
    SpanStat& stat = by_name[rec.name];
    stat.name = rec.name;
    ++stat.count;
    stat.total_us += rec.dur_us;
    stat.max_us = std::max(stat.max_us, rec.dur_us);
    const auto it = child_us.find(rec.id);
    const std::uint64_t children = it != child_us.end() ? it->second : 0;
    // Clock granularity can make children sum past the parent; clamp.
    stat.self_us += rec.dur_us > children ? rec.dur_us - children : 0;
  }

  std::vector<SpanStat> stats;
  stats.reserve(by_name.size());
  for (auto& [name, stat] : by_name) {
    stats.push_back(std::move(stat));
  }
  std::stable_sort(stats.begin(), stats.end(),
                   [](const SpanStat& a, const SpanStat& b) {
                     return a.self_us > b.self_us;
                   });
  return stats;
}

namespace {

std::uint64_t u64_field(const JsonValue& obj, const char* key) {
  return truncate_number<std::uint64_t>(obj.find(key)).value_or(0);
}

}  // namespace

MemoryReport memory_report(std::istream& in) {
  MemoryReport report;
  std::map<std::string, MemorySeries> series;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const auto parsed = json_parse(line);
    if (!parsed.has_value() || !parsed->is_object()) {
      continue;
    }
    const JsonValue* type = parsed->find("type");
    if (type == nullptr || !type->is_string()) {
      continue;
    }
    if (type->as_string() == "telemetry_snapshot") {
      ++report.snapshots;
      for (const auto& [name, value] : parsed->as_object()) {
        const auto last = truncate_number<std::uint64_t>(&value);
        if (!last.has_value() || name == "type" || name == "seq" ||
            name == "elapsed_ms") {
          continue;
        }
        MemorySeries& s = series[name];
        s.name = name;
        s.last = *last;
        s.peak = std::max(s.peak, s.last);
        ++s.samples;
      }
    } else if (type->as_string() == "checker_summary") {
      ++report.checker_summaries;
      const std::uint64_t tracked =
          u64_field(*parsed, "tracked_peak_bytes");
      if (tracked >= report.tracked_peak_bytes) {
        report.tracked_peak_bytes = tracked;
        if (const JsonValue* bps = parsed->find("bytes_per_state");
            bps != nullptr && bps->is_number()) {
          report.bytes_per_state = bps->as_number();
        }
      }
    } else if (type->as_string() == "engine_run") {
      report.peak_channel_bytes =
          std::max(report.peak_channel_bytes,
                   u64_field(*parsed, "peak_channel_bytes"));
    } else if (type->as_string() == "campaign_row") {
      if (const JsonValue* row = parsed->find("row");
          row != nullptr && row->is_object()) {
        report.peak_channel_bytes =
            std::max(report.peak_channel_bytes,
                     u64_field(*row, "peak_channel_bytes"));
      }
    }
  }
  report.series.reserve(series.size());
  for (auto& [name, s] : series) {
    report.series.push_back(std::move(s));
  }
  return report;
}

PoolReport pool_report(std::istream& in) {
  PoolReport report;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const auto parsed = json_parse(line);
    if (!parsed.has_value() || !parsed->is_object()) {
      continue;
    }
    const JsonValue* type = parsed->find("type");
    if (type == nullptr || !type->is_string()) {
      continue;
    }
    if (type->as_string() == "pool_summary") {
      report.has_summary = true;
      report.workers = u64_field(*parsed, "workers");
      report.tasks_executed = u64_field(*parsed, "tasks_executed");
      report.busy_us = u64_field(*parsed, "busy_us");
      report.idle_us = u64_field(*parsed, "idle_us");
      report.queue_depth_peak = u64_field(*parsed, "queue_depth_peak");
      if (const JsonValue* util = parsed->find("utilization");
          util != nullptr && util->is_number()) {
        report.utilization = util->as_number();
      } else if (report.busy_us + report.idle_us > 0) {
        report.utilization =
            static_cast<double>(report.busy_us) /
            static_cast<double>(report.busy_us + report.idle_us);
      }
      report.per_worker.clear();
      if (const JsonValue* workers = parsed->find("per_worker");
          workers != nullptr && workers->is_array()) {
        for (const JsonValue& w : workers->as_array()) {
          if (!w.is_object()) {
            continue;
          }
          PoolWorkerRow row;
          row.worker = u64_field(w, "worker");
          row.tasks = u64_field(w, "tasks");
          row.busy_us = u64_field(w, "busy_us");
          row.idle_us = u64_field(w, "idle_us");
          report.per_worker.push_back(row);
        }
      }
    } else if (type->as_string() == "telemetry_snapshot") {
      const JsonValue* depth = parsed->find("pool.queue_depth");
      const JsonValue* tasks = parsed->find("pool.tasks_executed");
      if (depth == nullptr && tasks == nullptr) {
        continue;
      }
      PoolTimelinePoint point;
      point.elapsed_ms = u64_field(*parsed, "elapsed_ms");
      point.queue_depth = u64_field(*parsed, "pool.queue_depth");
      point.tasks_executed = u64_field(*parsed, "pool.tasks_executed");
      report.timeline.push_back(point);
    }
  }
  return report;
}

namespace {

/// name -> real_ms_per_iter rows of one BENCH_<name>.json document,
/// in document order.
std::vector<std::pair<std::string, double>> bench_rows(
    const JsonValue& doc, const char* which) {
  const JsonValue* results = doc.find("results");
  if (results == nullptr || !results->is_array()) {
    throw ParseError(std::string(which) +
                     " is not bench JSON (missing \"results\" array)");
  }
  std::vector<std::pair<std::string, double>> rows;
  for (const JsonValue& row : results->as_array()) {
    const JsonValue* name = row.find("name");
    const JsonValue* ms = row.find("real_ms_per_iter");
    if (name == nullptr || !name->is_string() || ms == nullptr ||
        !ms->is_number()) {
      throw ParseError(std::string(which) +
                       " has a result row without name/real_ms_per_iter");
    }
    rows.emplace_back(name->as_string(), ms->as_number());
  }
  return rows;
}

/// Ends-with helper for the "_bytes" metric-key convention.
bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

BenchDiff bench_diff(const JsonValue& baseline, const JsonValue& current,
                     double threshold_pct, double mem_threshold_pct) {
  const auto base_rows = bench_rows(baseline, "baseline");
  const auto current_rows = bench_rows(current, "current");
  std::unordered_map<std::string, double> current_ms;
  for (const auto& [name, ms] : current_rows) {
    current_ms.emplace(name, ms);
  }

  BenchDiff diff;
  diff.threshold_pct = threshold_pct;
  for (const auto& [name, base] : base_rows) {
    const auto it = current_ms.find(name);
    if (it == current_ms.end()) {
      diff.only_in_baseline.push_back(name);
      continue;
    }
    BenchDelta delta;
    delta.name = name;
    delta.base_ms = base;
    delta.current_ms = it->second;
    delta.delta_pct =
        base > 0.0 ? (it->second - base) / base * 100.0 : 0.0;
    delta.regression = delta.delta_pct > threshold_pct;
    diff.regression = diff.regression || delta.regression;
    diff.deltas.push_back(std::move(delta));
  }
  std::unordered_map<std::string, double> base_ms(base_rows.begin(),
                                                  base_rows.end());
  for (const auto& [name, ms] : current_rows) {
    if (base_ms.find(name) == base_ms.end()) {
      diff.only_in_current.push_back(name);
    }
  }

  // Memory gate: byte metrics from the top-level "metrics" objects.
  // Only keys present in both documents participate — baselines that
  // predate byte metrics skip the gate instead of failing it.
  diff.mem_threshold_pct = mem_threshold_pct;
  const JsonValue* base_metrics = baseline.find("metrics");
  const JsonValue* current_metrics = current.find("metrics");
  if (base_metrics != nullptr && base_metrics->is_object() &&
      current_metrics != nullptr && current_metrics->is_object()) {
    for (const auto& [name, value] : base_metrics->as_object()) {
      if (!ends_with(name, "_bytes")) {
        continue;
      }
      const auto base = truncate_number<std::uint64_t>(&value);
      const auto cur =
          truncate_number<std::uint64_t>(current_metrics->find(name));
      if (!base.has_value() || !cur.has_value()) {
        continue;
      }
      MemDelta delta;
      delta.name = name;
      delta.base_bytes = *base;
      delta.current_bytes = *cur;
      delta.delta_pct =
          delta.base_bytes > 0
              ? (static_cast<double>(delta.current_bytes) -
                 static_cast<double>(delta.base_bytes)) /
                    static_cast<double>(delta.base_bytes) * 100.0
              : 0.0;
      delta.regression = delta.delta_pct > mem_threshold_pct;
      diff.mem_regression = diff.mem_regression || delta.regression;
      diff.mem_deltas.push_back(std::move(delta));
    }
  }
  return diff;
}

}  // namespace commroute::obs
