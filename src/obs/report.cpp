#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <optional>
#include <sstream>
#include <utility>

namespace commroute::obs {

namespace {

std::optional<std::uint64_t> num_field(const JsonValue& obj,
                                       std::string_view key) {
  return truncate_number<std::uint64_t>(obj.find(key));
}

double dbl_field(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : 0.0;
}

std::string str_field(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::string();
}

/// An embedded LogHistogram::to_json blob (see sketch.hpp)?
bool is_hist_blob(const JsonValue& v) {
  return v.is_object() && v.find("precision_bits") != nullptr &&
         v.find("buckets") != nullptr;
}

/// An embedded TopK::to_json blob?
bool is_topk_blob(const JsonValue& v) {
  return v.is_object() && v.find("capacity") != nullptr &&
         v.find("entries") != nullptr;
}

void absorb_hist_blob(ReportQuantiles& row, const JsonValue& blob) {
  ++row.occurrences;
  row.count = num_field(blob, "count").value_or(0);
  row.sum = num_field(blob, "sum").value_or(0);
  row.min = num_field(blob, "min").value_or(0);
  row.max = num_field(blob, "max").value_or(0);
  row.p50 = num_field(blob, "p50").value_or(0);
  row.p90 = num_field(blob, "p90").value_or(0);
  row.p99 = num_field(blob, "p99").value_or(0);
}

void absorb_topk_blob(TopK& sketch, const JsonValue& blob) {
  const JsonValue* entries = blob.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return;
  }
  for (const JsonValue& entry : entries->as_array()) {
    if (!entry.is_object()) {
      continue;
    }
    const auto key = num_field(entry, "key");
    const auto count = num_field(entry, "count");
    if (key.has_value() && count.has_value() && *count > 0) {
      sketch.add(*key, *count);
    }
  }
}

}  // namespace

void ReportSeries::add(std::uint64_t x, std::uint64_t y) {
  ++samples;
  last = y;
  peak = std::max(peak, y);
  // Keep every stride_-th sample; when the buffer fills, thin to every
  // other kept point and double the stride. Pure function of the sample
  // sequence, so decimation never breaks report determinism.
  if ((samples - 1) % stride_ != 0) {
    return;
  }
  points.emplace_back(x, y);
  if (points.size() > kSeriesCap) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kept;
    kept.reserve(points.size() / 2 + 1);
    for (std::size_t i = 0; i < points.size(); i += 2) {
      kept.push_back(points[i]);
    }
    points.swap(kept);
    stride_ *= 2;
  }
}

RunReport build_report(std::istream& in, std::string source) {
  RunReport report;
  report.source = std::move(source);

  StreamingSummarizer summarizer;
  std::map<std::string, ReportSeries> telemetry;
  std::map<std::string, ReportSeries> progress_series;
  std::map<std::string, ReportProgress> progress;
  std::map<std::string, ReportQuantiles> quantiles;
  std::map<std::string, TopK> topk;
  std::vector<std::string> prev_pi;  ///< last recording assignment

  std::string line;
  while (std::getline(in, line)) {
    summarizer.add_line(line);
    if (line.empty()) {
      continue;
    }
    const auto parsed = json_parse(line);
    if (!parsed.has_value() || !parsed->is_object()) {
      continue;
    }
    const JsonValue& ev = *parsed;
    const std::string type = str_field(ev, "type");

    if (type == "telemetry_snapshot") {
      const std::uint64_t elapsed = num_field(ev, "elapsed_ms").value_or(0);
      for (const auto& [key, value] : ev.as_object()) {
        const auto y = truncate_number<std::uint64_t>(&value);
        if (!y.has_value() || key == "seq" || key == "elapsed_ms") {
          continue;
        }
        ReportSeries& series = telemetry[key];
        series.name = key;
        series.add(elapsed, *y);
      }
    } else if (type == "progress_snapshot") {
      const std::string name = str_field(ev, "name");
      ReportProgress& p = progress[name];
      p.name = name;
      p.done = num_field(ev, "done").value_or(0);
      p.total = num_field(ev, "total").value_or(0);
      p.fraction = dbl_field(ev, "fraction");
      p.rate_per_sec = dbl_field(ev, "rate_per_sec");
      p.eta_ms = num_field(ev, "eta_ms").value_or(0);
      p.updates = num_field(ev, "updates").value_or(0);
      ReportSeries& series = progress_series[name];
      series.name = name;
      series.add(num_field(ev, "elapsed_ms").value_or(0),
                 truncate_number<std::uint64_t>(ev.find("fraction"), 1000.0)
                     .value_or(0));
    } else if (type == "campaign_row") {
      if (const JsonValue* row = ev.find("row");
          row != nullptr && row->is_object()) {
        ++report.campaign_rows;
        ++report.outcome_counts[str_field(*row, "outcome")];
        if (const auto steps = num_field(*row, "steps"); steps.has_value()) {
          report.campaign_steps_hist.observe(*steps);
        }
      }
    } else if (type == "recording_header") {
      report.has_recording = true;
      report.recording_instance = str_field(ev, "instance_name");
      report.recording_model = str_field(ev, "model");
      report.recording_scheduler = str_field(ev, "scheduler");
      report.recording_outcome = str_field(ev, "outcome");
      report.recording_seed = num_field(ev, "seed").value_or(0);
      report.recording_nodes = num_field(ev, "nodes").value_or(0);
      prev_pi.clear();
      if (const JsonValue* initial = ev.find("initial");
          initial != nullptr && initial->is_array()) {
        for (const JsonValue& a : initial->as_array()) {
          prev_pi.push_back(json_render(a));
        }
      }
    } else if (type == "recording_step") {
      ++report.recording_steps;
      if (const JsonValue* pi = ev.find("pi");
          pi != nullptr && pi->is_array()) {
        const JsonValue::Array& now = pi->as_array();
        for (std::size_t node = 0; node < now.size(); ++node) {
          std::string rendered = json_render(now[node]);
          if (node < prev_pi.size() && prev_pi[node] != rendered) {
            report.recording_flappers.add(node);
          }
          if (node < prev_pi.size()) {
            prev_pi[node] = std::move(rendered);
          } else {
            prev_pi.push_back(std::move(rendered));
          }
        }
      }
    } else if (type == "recording_footer") {
      report.recording_changes = num_field(ev, "changes").value_or(0);
    }

    // Any event may carry embedded sketch blobs (LogHistogram / TopK
    // to_json objects under any key, as older artifacts carry on
    // engine_run, sim_summary and checker_summary) or a critical path.
    // Detected structurally, so producers need no report edit.
    for (const auto& [key, value] : ev.as_object()) {
      if (is_hist_blob(value)) {
        ReportQuantiles& row = quantiles[type + "." + key];
        row.label = type + "." + key;
        absorb_hist_blob(row, value);
      } else if (is_topk_blob(value)) {
        absorb_topk_blob(
            topk.try_emplace(type + "." + key, std::size_t{16})
                .first->second,
            value);
      }
    }
    const auto cp_len = num_field(ev, "critical_path_len");
    const auto cp_us = num_field(ev, "critical_path_us");
    if (cp_len.has_value() || cp_us.has_value()) {
      ++report.critical_path_events;
      report.critical_path_len_max =
          std::max(report.critical_path_len_max, cp_len.value_or(0));
      report.critical_path_us_max =
          std::max(report.critical_path_us_max, cp_us.value_or(0));
    }
  }

  report.events = summarizer.summary();
  for (auto& [name, series] : telemetry) {
    report.telemetry.push_back(std::move(series));
  }
  for (auto& [name, series] : progress_series) {
    report.progress_series.push_back(std::move(series));
  }
  for (auto& [name, p] : progress) {
    report.progress.push_back(std::move(p));
  }
  for (auto& [label, row] : quantiles) {
    report.quantiles.push_back(std::move(row));
  }
  for (auto& [label, sketch] : topk) {
    report.topk.emplace_back(label, std::move(sketch));
  }
  return report;
}

namespace {

std::string series_json(const ReportSeries& s) {
  std::string out = "{\"name\":\"" + json_escape(s.name) + "\"";
  out += ",\"samples\":" + std::to_string(s.samples);
  out += ",\"peak\":" + std::to_string(s.peak);
  out += ",\"last\":" + std::to_string(s.last);
  out += ",\"points\":[";
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '[' + std::to_string(s.points[i].first) + ',' +
           std::to_string(s.points[i].second) + ']';
  }
  out += "]}";
  return out;
}

}  // namespace

std::string report_json(const RunReport& report) {
  // No generation timestamp / host / RSS: the document must be a pure
  // function of the input bytes (CI double-runs and byte-compares it).
  JsonWriter w;
  w.field("type", "run_report").field("schema_version", 1);
  w.field("source", report.source);
  w.field("lines", static_cast<std::uint64_t>(report.events.lines))
      .field("malformed",
             static_cast<std::uint64_t>(report.events.malformed));

  std::string events = "[";
  for (std::size_t i = 0; i < report.events.types.size(); ++i) {
    const EventTypeSummary& t = report.events.types[i];
    if (i > 0) {
      events += ',';
    }
    JsonWriter row;
    row.field("event", t.type)
        .field("count", t.count)
        .field("timed", t.timed)
        .field("total_us", t.total_us)
        .field("p50_us", t.p50_us)
        .field("p90_us", t.p90_us)
        .field("p99_us", t.p99_us)
        .field("max_us", t.max_us);
    events += row.str();
  }
  events += ']';
  w.raw_field("events", events);

  std::string telemetry = "[";
  for (std::size_t i = 0; i < report.telemetry.size(); ++i) {
    if (i > 0) {
      telemetry += ',';
    }
    telemetry += series_json(report.telemetry[i]);
  }
  telemetry += ']';
  w.raw_field("telemetry", telemetry);

  std::string progress = "[";
  for (std::size_t i = 0; i < report.progress.size(); ++i) {
    const ReportProgress& p = report.progress[i];
    if (i > 0) {
      progress += ',';
    }
    JsonWriter row;
    row.field("name", p.name)
        .field("done", p.done)
        .field("total", p.total)
        .field("fraction", p.fraction)
        .field("rate_per_sec", p.rate_per_sec)
        .field("eta_ms", p.eta_ms)
        .field("updates", p.updates);
    progress += row.str();
  }
  progress += ']';
  w.raw_field("progress", progress);

  std::string quantiles = "[";
  for (std::size_t i = 0; i < report.quantiles.size(); ++i) {
    const ReportQuantiles& q = report.quantiles[i];
    if (i > 0) {
      quantiles += ',';
    }
    JsonWriter row;
    row.field("label", q.label)
        .field("occurrences", q.occurrences)
        .field("count", q.count)
        .field("sum", q.sum)
        .field("min", q.min)
        .field("max", q.max)
        .field("p50", q.p50)
        .field("p90", q.p90)
        .field("p99", q.p99);
    quantiles += row.str();
  }
  quantiles += ']';
  w.raw_field("quantiles", quantiles);

  std::string tops = "[";
  for (std::size_t i = 0; i < report.topk.size(); ++i) {
    if (i > 0) {
      tops += ',';
    }
    tops += "{\"label\":\"" + json_escape(report.topk[i].first) +
            "\",\"sketch\":" + report.topk[i].second.to_json() + '}';
  }
  tops += ']';
  w.raw_field("topk", tops);

  if (report.campaign_rows > 0) {
    JsonWriter campaign;
    campaign.field("rows", report.campaign_rows);
    std::string outcomes = "{";
    bool first = true;
    for (const auto& [outcome, count] : report.outcome_counts) {
      if (!first) {
        outcomes += ',';
      }
      first = false;
      outcomes += '"' + json_escape(outcome) +
                  "\":" + std::to_string(count);
    }
    outcomes += '}';
    campaign.raw_field("outcomes", outcomes);
    campaign.raw_field("steps_hist", report.campaign_steps_hist.to_json());
    w.raw_field("campaign", campaign.str());
  }

  if (report.critical_path_events > 0) {
    JsonWriter cp;
    cp.field("events", report.critical_path_events)
        .field("max_len", report.critical_path_len_max)
        .field("max_us", report.critical_path_us_max);
    w.raw_field("critical_path", cp.str());
  }

  if (report.has_recording) {
    JsonWriter rec;
    rec.field("instance", report.recording_instance)
        .field("model", report.recording_model)
        .field("scheduler", report.recording_scheduler)
        .field("outcome", report.recording_outcome)
        .field("seed", report.recording_seed)
        .field("nodes", report.recording_nodes)
        .field("steps", report.recording_steps)
        .field("changes", report.recording_changes);
    rec.raw_field("flappers", report.recording_flappers.to_json());
    w.raw_field("recording", rec.str());
  }
  return w.str();
}

namespace {

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

/// Inline SVG sparkline (no scripts, fixed viewBox). X spreads over the
/// recorded range, or over point index when all x coincide.
std::string sparkline_svg(const ReportSeries& s) {
  constexpr double kW = 240.0;
  constexpr double kH = 40.0;
  std::string svg = "<svg class=\"spark\" viewBox=\"0 0 240 44\" "
                    "width=\"240\" height=\"44\" role=\"img\">";
  if (s.points.size() >= 2) {
    const std::uint64_t x0 = s.points.front().first;
    const std::uint64_t x1 = s.points.back().first;
    const double span = x1 > x0 ? static_cast<double>(x1 - x0)
                                : static_cast<double>(s.points.size() - 1);
    const double ymax =
        s.peak > 0 ? static_cast<double>(s.peak) : 1.0;
    std::string pts;
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      const double fx =
          x1 > x0 ? static_cast<double>(s.points[i].first - x0)
                  : static_cast<double>(i);
      const double px = span > 0.0 ? fx / span * kW : 0.0;
      const double py =
          kH - static_cast<double>(s.points[i].second) / ymax * (kH - 4.0);
      if (!pts.empty()) {
        pts += ' ';
      }
      pts += fixed1(px) + ',' + fixed1(py);
    }
    svg += "<polyline fill=\"none\" stroke=\"#2b6cb0\" "
           "stroke-width=\"1.5\" points=\"" +
           pts + "\"/>";
  } else if (s.points.size() == 1) {
    svg += "<circle cx=\"120\" cy=\"22\" r=\"2\" fill=\"#2b6cb0\"/>";
  }
  svg += "</svg>";
  return svg;
}

void table_open(std::string& html, const std::vector<const char*>& cols) {
  html += "<table><thead><tr>";
  for (const char* c : cols) {
    html += "<th>";
    html += c;
    html += "</th>";
  }
  html += "</tr></thead><tbody>";
}

void table_close(std::string& html) { html += "</tbody></table>"; }

std::string td(const std::string& v) { return "<td>" + v + "</td>"; }
std::string td(std::uint64_t v) { return td(std::to_string(v)); }

}  // namespace

std::string report_html(const RunReport& report, const std::string& title) {
  const std::string heading =
      title.empty() ? "commroute run report" : title;
  std::string html;
  html += "<!DOCTYPE html>\n<html lang=\"en\"><head>\n";
  html += "<meta charset=\"utf-8\">\n<title>" + html_escape(heading) +
          "</title>\n";
  html +=
      "<style>\n"
      "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;"
      "max-width:72rem;padding:0 1rem;color:#1a202c;}\n"
      "h1{font-size:1.5rem;border-bottom:2px solid #2b6cb0;"
      "padding-bottom:.3rem;}\n"
      "h2{font-size:1.1rem;margin-top:2rem;color:#2b6cb0;}\n"
      "table{border-collapse:collapse;margin:.5rem 0;width:100%;}\n"
      "th,td{border:1px solid #cbd5e0;padding:.25rem .6rem;"
      "text-align:right;font-variant-numeric:tabular-nums;}\n"
      "th:first-child,td:first-child{text-align:left;}\n"
      "th{background:#edf2f7;}\n"
      "tr:nth-child(even) td{background:#f7fafc;}\n"
      ".meta{color:#4a5568;font-size:.9rem;}\n"
      ".spark{vertical-align:middle;background:#f7fafc;"
      "border:1px solid #e2e8f0;}\n"
      ".bar{background:#2b6cb0;height:10px;display:inline-block;}\n"
      ".barbox{background:#e2e8f0;width:160px;display:inline-block;}\n"
      "</style>\n</head><body>\n";
  html += "<h1>" + html_escape(heading) + "</h1>\n";
  html += "<p class=\"meta\">source: <code>" + html_escape(report.source) +
          "</code> &middot; " + std::to_string(report.events.lines) +
          " lines (" + std::to_string(report.events.malformed) +
          " malformed)</p>\n";

  if (!report.events.types.empty()) {
    html += "<h2>Events</h2>\n";
    table_open(html, {"event", "count", "timed", "total us", "p50 us",
                      "p90 us", "p99 us", "max us"});
    for (const EventTypeSummary& t : report.events.types) {
      html += "<tr>" + td(html_escape(t.type)) + td(t.count) + td(t.timed) +
              td(t.total_us) + td(t.p50_us) + td(t.p90_us) + td(t.p99_us) +
              td(t.max_us) + "</tr>";
    }
    table_close(html);
  }

  if (!report.progress.empty()) {
    html += "<h2>Progress</h2>\n";
    table_open(html, {"task", "", "done", "total", "fraction",
                      "rate /s", "eta ms", "updates"});
    for (const ReportProgress& p : report.progress) {
      const int pct = static_cast<int>(p.fraction * 100.0);
      html += "<tr>" + td(html_escape(p.name)) +
              td("<span class=\"barbox\"><span class=\"bar\" style=\""
                 "width:" +
                 std::to_string(pct) + "%\"></span></span>") +
              td(p.done) + td(p.total) + td(fixed1(p.fraction * 100.0) + "%") +
              td(fixed1(p.rate_per_sec)) + td(p.eta_ms) + td(p.updates) +
              "</tr>";
    }
    table_close(html);
    for (const ReportSeries& s : report.progress_series) {
      html += "<p>" + html_escape(s.name) + " " + sparkline_svg(s) +
              " <span class=\"meta\">" + std::to_string(s.samples) +
              " snapshots</span></p>\n";
    }
  }

  if (!report.telemetry.empty()) {
    html += "<h2>Telemetry</h2>\n";
    table_open(html, {"series", "sparkline", "samples", "peak", "last"});
    for (const ReportSeries& s : report.telemetry) {
      html += "<tr>" + td(html_escape(s.name)) + td(sparkline_svg(s)) +
              td(s.samples) + td(s.peak) + td(s.last) + "</tr>";
    }
    table_close(html);
  }

  if (!report.quantiles.empty()) {
    html += "<h2>Sketched distributions</h2>\n";
    table_open(html, {"sketch", "count", "sum", "min", "p50", "p90", "p99",
                      "max"});
    for (const ReportQuantiles& q : report.quantiles) {
      html += "<tr>" + td(html_escape(q.label)) + td(q.count) + td(q.sum) +
              td(q.min) + td(q.p50) + td(q.p90) + td(q.p99) + td(q.max) +
              "</tr>";
    }
    table_close(html);
  }

  if (!report.topk.empty()) {
    html += "<h2>Heavy hitters</h2>\n";
    for (const auto& [label, sketch] : report.topk) {
      html += "<h3>" + html_escape(label) + "</h3>\n";
      table_open(html, {"key", "count", "error"});
      for (const TopK::Entry& e : sketch.top()) {
        html += "<tr>" + td(e.key) + td(e.count) + td(e.error) + "</tr>";
      }
      table_close(html);
    }
  }

  if (report.campaign_rows > 0) {
    html += "<h2>Campaign</h2>\n";
    html += "<p>" + std::to_string(report.campaign_rows) + " rows</p>\n";
    table_open(html, {"outcome", "rows"});
    for (const auto& [outcome, count] : report.outcome_counts) {
      html += "<tr>" + td(html_escape(outcome)) + td(count) + "</tr>";
    }
    table_close(html);
    const LogHistogram& h = report.campaign_steps_hist;
    if (h.count() > 0) {
      table_open(html, {"steps", "min", "p50", "p90", "p99", "max"});
      html += "<tr>" + td("distribution") + td(h.min()) +
              td(h.quantile(0.5)) + td(h.quantile(0.9)) +
              td(h.quantile(0.99)) + td(h.max()) + "</tr>";
      table_close(html);
    }
  }

  if (report.critical_path_events > 0) {
    html += "<h2>Critical path</h2>\n";
    table_open(html, {"events carrying a path", "max length", "max us"});
    html += "<tr>" + td(report.critical_path_events) +
            td(report.critical_path_len_max) +
            td(report.critical_path_us_max) + "</tr>";
    table_close(html);
  }

  if (report.has_recording) {
    html += "<h2>Flight recording</h2>\n";
    table_open(html, {"instance", "model", "scheduler", "outcome", "seed",
                      "nodes", "steps", "changes"});
    html += "<tr>" + td(html_escape(report.recording_instance)) +
            td(html_escape(report.recording_model)) +
            td(html_escape(report.recording_scheduler)) +
            td(html_escape(report.recording_outcome)) +
            td(report.recording_seed) + td(report.recording_nodes) +
            td(report.recording_steps) + td(report.recording_changes) +
            "</tr>";
    table_close(html);
    const auto flappers = report.recording_flappers.top();
    if (!flappers.empty()) {
      html += "<h3>Most-flapped nodes</h3>\n";
      table_open(html, {"node", "assignment changes", "error"});
      for (const TopK::Entry& e : flappers) {
        html += "<tr>" + td("node #" + std::to_string(e.key)) + td(e.count) +
                td(e.error) + "</tr>";
      }
      table_close(html);
    }
  }

  html += "</body></html>\n";
  return html;
}

}  // namespace commroute::obs
