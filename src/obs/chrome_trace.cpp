#include "obs/chrome_trace.hpp"

#include <fstream>
#include <istream>
#include <set>
#include <unordered_map>

#include "obs/causality.hpp"
#include "support/error.hpp"

namespace commroute::obs {

namespace {

/// {"id":...,"parent":...} merged with the span's own attributes.
std::string span_args(std::uint32_t id, std::uint32_t parent,
                      const std::string& attrs_json) {
  JsonWriter args;
  args.field("id", static_cast<std::uint64_t>(id))
      .field("parent", static_cast<std::uint64_t>(parent));
  std::string out = args.str();
  if (attrs_json.size() > 2) {  // more than "{}"
    out.pop_back();
    out += ',';
    out.append(attrs_json, 1, attrs_json.size() - 1);
  }
  return out;
}

std::string complete_slice(const std::string& name, std::uint64_t ts,
                           std::uint64_t dur, std::uint32_t tid,
                           const std::string& args_json) {
  JsonWriter w;
  w.field("name", name)
      .field("cat", "commroute")
      .field("ph", "X")
      .field("ts", ts)
      .field("dur", dur)
      .field("pid", 1)
      .field("tid", static_cast<std::uint64_t>(tid));
  w.raw_field("args", args_json);
  return w.str();
}

/// Perfetto metadata ("M") record naming a process or thread track.
std::string name_metadata(const char* what, std::uint32_t tid,
                          const std::string& name) {
  JsonWriter w;
  w.field("name", what).field("ph", "M").field("pid", 1);
  w.field("tid", static_cast<std::uint64_t>(tid));
  JsonWriter args;
  args.field("name", name);
  w.raw_field("args", args.str());
  return w.str();
}

std::string assemble(const std::vector<std::string>& events,
                     const std::set<std::uint32_t>& tids) {
  std::string body = name_metadata("process_name", 0, "commroute");
  // Track labels: tid 0 is the calling thread, higher tids are the dense
  // first-use numbers SpanCollector hands to campaign workers.
  for (const std::uint32_t tid : tids) {
    body += ',';
    body += name_metadata("thread_name", tid,
                          tid == 0 ? "main" : "worker-" + std::to_string(tid));
  }
  for (const std::string& event : events) {
    body += ',';
    body += event;
  }
  JsonWriter top;
  top.raw_field("traceEvents", "[" + body + "]");
  top.field("displayTimeUnit", "ms");
  return top.str();
}

/// Flow endpoint ("s" start / "f" finish) tying causal arrows to slices.
std::string flow_event(const char* ph, std::uint64_t id,
                       const std::string& name, std::uint64_t ts,
                       std::uint32_t tid) {
  JsonWriter w;
  w.field("name", name)
      .field("cat", "causal")
      .field("ph", ph)
      .field("id", id)
      .field("ts", ts)
      .field("pid", 1)
      .field("tid", static_cast<std::uint64_t>(tid));
  if (ph[0] == 'f') {
    w.field("bp", "e");  // bind to the enclosing slice
  }
  return w.str();
}

/// Step number an "engine.step" slice carries in its attrs, or nullopt.
std::optional<std::uint64_t> slice_step(const SpanRecord& rec) {
  if (rec.name != "engine.step") {
    return std::nullopt;
  }
  const auto parsed = json_parse(rec.args_json);
  if (!parsed.has_value() || !parsed->is_object()) {
    return std::nullopt;
  }
  return truncate_number<std::uint64_t>(parsed->find("step"));
}

std::string render_trace(const SpanCollector& collector,
                         const CausalityGraph* graph) {
  const std::vector<SpanRecord> records = collector.snapshot();
  std::vector<std::string> events;
  std::set<std::uint32_t> tids;
  // First occurrence wins when several runs share the collector: flows
  // would be ambiguous across repeated step numbers otherwise.
  std::unordered_map<std::uint64_t, const SpanRecord*> step_slices;
  for (const SpanRecord& rec : records) {
    tids.insert(rec.tid);
    events.push_back(complete_slice(
        rec.name, rec.start_us, rec.dur_us, rec.tid,
        span_args(rec.id, rec.parent, rec.args_json)));
    if (graph != nullptr) {
      if (const auto step = slice_step(rec); step.has_value()) {
        step_slices.emplace(*step, &rec);
      }
    }
  }
  if (graph != nullptr) {
    const auto& activations = graph->activations();
    for (std::size_t i = 0; i < graph->messages().size(); ++i) {
      const CausalMessage& m = graph->messages()[i];
      if (m.sender == kNoCausalIndex || m.consumer == kNoCausalIndex) {
        continue;  // unknown origin or still in flight: nothing to draw
      }
      const auto send = step_slices.find(activations[m.sender].step);
      const auto consume = step_slices.find(activations[m.consumer].step);
      if (send == step_slices.end() || consume == step_slices.end()) {
        continue;  // step not traced (sampled or foreign collector)
      }
      const std::string& name = graph->channel_name(m.channel);
      events.push_back(flow_event(
          "s", i, name, send->second->start_us + send->second->dur_us,
          send->second->tid));
      events.push_back(flow_event("f", i, name, consume->second->start_us,
                                  consume->second->tid));
    }
  }
  return assemble(events, tids);
}

}  // namespace

std::string chrome_trace_json(const SpanCollector& collector) {
  return render_trace(collector, nullptr);
}

std::string chrome_trace_json(const SpanCollector& collector,
                              const CausalityGraph& graph) {
  return render_trace(collector, &graph);
}

void write_chrome_trace(const SpanCollector& collector,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  CR_REQUIRE(out.is_open(), "cannot write " + path);
  out << chrome_trace_json(collector) << "\n";
}

JsonlConversion chrome_trace_from_jsonl(std::istream& in) {
  JsonlConversion result;
  std::vector<std::string> events;
  std::set<std::uint32_t> tids;
  std::uint64_t fallback_ts = 0;  ///< synthetic clock for untimed events
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const auto parsed = json_parse(line);
    if (!parsed.has_value() || !parsed->is_object()) {
      ++result.skipped;
      continue;
    }
    const JsonValue* type = parsed->find("type");
    const std::string name =
        (type != nullptr && type->is_string()) ? type->as_string() : "event";

    if (name == "span") {
      const auto ts = truncate_number<std::uint64_t>(parsed->find("ts_us"));
      const auto dur = truncate_number<std::uint64_t>(parsed->find("dur_us"));
      const auto u32 = [&](const char* key) {
        return truncate_number<std::uint32_t>(parsed->find(key)).value_or(0);
      };
      const JsonValue* span_name = parsed->find("name");
      if (!ts.has_value() || !dur.has_value() || span_name == nullptr ||
          !span_name->is_string()) {
        ++result.skipped;
        continue;
      }
      const JsonValue* attrs = parsed->find("args");
      const std::uint32_t event_tid = u32("tid");
      tids.insert(event_tid);
      events.push_back(complete_slice(
          span_name->as_string(), *ts, *dur, event_tid,
          span_args(u32("id"), u32("parent"),
                    (attrs != nullptr && attrs->is_object())
                        ? json_render(*attrs)
                        : std::string())));
      ++result.events;
      continue;
    }

    // Any other event becomes an instant mark; heartbeats carry their
    // own position (elapsed_ms), everything else ticks a synthetic
    // per-line clock so ordering survives.
    const auto elapsed_us =
        truncate_number<std::uint64_t>(parsed->find("elapsed_ms"), 1000.0);
    const std::uint64_t ts =
        elapsed_us.has_value() ? *elapsed_us : fallback_ts++;
    JsonWriter args;
    for (const auto& [key, value] : parsed->as_object()) {
      if (key != "type") {
        args.raw_field(key, json_render(value));
      }
    }
    JsonWriter w;
    w.field("name", name)
        .field("cat", "commroute")
        .field("ph", "i")
        .field("s", "t")
        .field("ts", ts)
        .field("pid", 1)
        .field("tid", 0);
    w.raw_field("args", args.str());
    events.push_back(w.str());
    tids.insert(0);
    ++result.events;
  }
  result.trace_json = assemble(events, tids);
  return result;
}

}  // namespace commroute::obs
