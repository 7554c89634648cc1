#include "trace/recording_io.hpp"

#include <fstream>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "engine/executor.hpp"
#include "model/script_io.hpp"
#include "obs/json.hpp"
#include "obs/meta.hpp"
#include "scenario/fault.hpp"
#include "spp/serialize.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace commroute::trace {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ParseError("recording line " + std::to_string(line) + ": " + what);
}

std::string path_text(const spp::Instance& instance, const Path& p) {
  std::string out;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i > 0) {
      out += ' ';
    }
    out += instance.graph().name(p.at(i));
  }
  return out;  // epsilon renders as ""
}

Path path_from_text(const spp::Instance& instance, const std::string& text,
                    std::size_t line) {
  if (text.empty()) {
    return Path::epsilon();
  }
  try {
    return instance.parse_path(text);
  } catch (const Error& e) {
    fail(line, std::string("bad path: ") + e.what());
  }
}

std::string assignment_json(const spp::Instance& instance,
                            const Assignment& a) {
  std::string out = "[";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '"' + obs::json_escape(path_text(instance, a[i])) + '"';
  }
  out += ']';
  return out;
}

Assignment assignment_from_json(const spp::Instance& instance,
                                const obs::JsonValue& value,
                                std::size_t line) {
  if (!value.is_array()) {
    fail(line, "assignment is not an array");
  }
  const auto& arr = value.as_array();
  if (arr.size() != instance.node_count()) {
    fail(line, "assignment has " + std::to_string(arr.size()) +
                   " entries, instance has " +
                   std::to_string(instance.node_count()) + " nodes");
  }
  Assignment out;
  out.reserve(arr.size());
  for (const obs::JsonValue& elem : arr) {
    if (!elem.is_string()) {
      fail(line, "assignment entry is not a string");
    }
    out.push_back(path_from_text(instance, elem.as_string(), line));
  }
  return out;
}

std::string step_text(const spp::Instance& instance,
                      const model::ActivationStep& step) {
  std::string text = model::format_script(instance, {step});
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

std::string io_sent_json(const StepIo& io) {
  std::string out = "[";
  for (std::size_t i = 0; i < io.sent.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(io.sent[i]);
  }
  out += ']';
  return out;
}

std::string io_reads_json(const StepIo& io) {
  std::string out = "[";
  for (std::size_t i = 0; i < io.reads.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    const StepIo::Read& r = io.reads[i];
    out += '[' + std::to_string(r.channel) + ',' +
           std::to_string(r.processed) + ',' + std::to_string(r.dropped) +
           ']';
  }
  out += ']';
  return out;
}

std::string io_selected_json(const StepIo& io) {
  std::string out = "[";
  for (std::size_t i = 0; i < io.selected.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += io.selected[i] == kNoChannel
               ? std::string("-1")
               : std::to_string(io.selected[i]);
  }
  out += ']';
  return out;
}

std::uint64_t u64_elem(const obs::JsonValue& v, std::size_t line,
                       const char* what) {
  const std::optional<std::uint64_t> n = v.as_u64();
  if (!n.has_value()) {
    fail(line, std::string("bad ") + what +
                   " (expected an integer in [0, 2^64))");
  }
  return *n;
}

const obs::JsonValue& require_field(const obs::JsonValue& record,
                                    std::string_view key, std::size_t line) {
  const obs::JsonValue* field = record.find(key);
  if (field == nullptr) {
    fail(line, "missing field \"" + std::string(key) + '"');
  }
  return *field;
}

std::string string_field(const obs::JsonValue& record, std::string_view key,
                         std::size_t line) {
  const obs::JsonValue& field = require_field(record, key, line);
  if (!field.is_string()) {
    fail(line, "field \"" + std::string(key) + "\" is not a string");
  }
  return field.as_string();
}

std::uint64_t u64_field(const obs::JsonValue& record, std::string_view key,
                        std::size_t line) {
  return u64_elem(require_field(record, key, line), line,
                  std::string(key).c_str());
}

std::string optional_string(const obs::JsonValue& record,
                            std::string_view key) {
  const obs::JsonValue* field = record.find(key);
  return field != nullptr && field->is_string() ? field->as_string() : "";
}

StepIo io_from_record(const spp::Instance& instance,
                      const obs::JsonValue& record, std::size_t line,
                      std::size_t step_nodes) {
  StepIo io;
  const std::size_t channels = instance.graph().channel_count();
  if (const obs::JsonValue* sent = record.find("sent")) {
    if (!sent->is_array()) {
      fail(line, "\"sent\" is not an array");
    }
    for (const obs::JsonValue& c : sent->as_array()) {
      const std::uint64_t idx = u64_elem(c, line, "sent channel");
      if (idx >= channels) {
        fail(line, "sent channel out of range");
      }
      io.sent.push_back(static_cast<ChannelIdx>(idx));
    }
  }
  if (const obs::JsonValue* reads = record.find("reads")) {
    if (!reads->is_array()) {
      fail(line, "\"reads\" is not an array");
    }
    for (const obs::JsonValue& r : reads->as_array()) {
      if (!r.is_array() || r.as_array().size() != 3) {
        fail(line, "read entry is not a [channel,processed,dropped] triple");
      }
      StepIo::Read read;
      const std::uint64_t idx =
          u64_elem(r.as_array()[0], line, "read channel");
      if (idx >= channels) {
        fail(line, "read channel out of range");
      }
      read.channel = static_cast<ChannelIdx>(idx);
      read.processed = static_cast<std::uint32_t>(
          u64_elem(r.as_array()[1], line, "read processed count"));
      read.dropped = static_cast<std::uint32_t>(
          u64_elem(r.as_array()[2], line, "read dropped count"));
      io.reads.push_back(read);
    }
  }
  if (const obs::JsonValue* sel = record.find("sel")) {
    if (!sel->is_array()) {
      fail(line, "\"sel\" is not an array");
    }
    for (const obs::JsonValue& c : sel->as_array()) {
      if (!c.is_number()) {
        fail(line, "selection entry is not a number");
      }
      if (c.as_number() < 0) {
        io.selected.push_back(kNoChannel);  // -1 = epsilon / destination
        continue;
      }
      const std::uint64_t idx = u64_elem(c, line, "selection channel");
      if (idx >= channels) {
        fail(line, "selection channel out of range");
      }
      io.selected.push_back(static_cast<ChannelIdx>(idx));
    }
    if (io.selected.size() != step_nodes) {
      fail(line, "\"sel\" must hold one entry per updating node");
    }
  }
  return io;
}

}  // namespace

StepIo step_io(const engine::StepEffect& effect) {
  StepIo io;
  io.sent.reserve(effect.sent.size());
  for (const engine::SentMessage& sent : effect.sent) {
    io.sent.push_back(sent.channel);
  }
  io.reads.reserve(effect.reads.size());
  for (const engine::ReadEffect& read : effect.reads) {
    io.reads.push_back(
        StepIo::Read{read.channel, read.processed, read.dropped});
  }
  io.selected.reserve(effect.nodes.size());
  for (const engine::NodeEffect& node : effect.nodes) {
    io.selected.push_back(node.selected_from);
  }
  return io;
}

RecordingDoc doc_from_recording(const Recording& recording,
                                RecordingMeta meta) {
  CR_REQUIRE(recording.trace.size() == recording.steps.size() + 1,
             "recording trace/steps mismatch");
  RecordingDoc doc;
  doc.meta = std::move(meta);
  doc.meta.first_step = 1;
  doc.trace = recording.trace;
  doc.steps.reserve(recording.steps.size());
  doc.io.reserve(recording.steps.size());
  for (const RecordedStep& rec : recording.steps) {
    doc.steps.push_back(rec.step);
    doc.io.push_back(step_io(rec.effect));
  }
  return doc;
}

RecordingDoc record_witness(const spp::Instance& instance,
                            const model::ActivationScript& prefix,
                            const model::ActivationScript& cycle,
                            std::size_t repetitions) {
  CR_REQUIRE(!cycle.empty(), "witness cycle is empty");
  CR_REQUIRE(repetitions >= 1, "witness needs at least one cycle copy");
  model::ActivationScript script = prefix;
  for (std::size_t r = 0; r < repetitions; ++r) {
    script.insert(script.end(), cycle.begin(), cycle.end());
  }
  for (const model::ActivationStep& step : script) {
    model::validate_step(instance, step);
  }
  RecordingMeta meta;
  meta.kind = "witness";
  meta.witness_prefix_len = prefix.size();
  meta.witness_cycle_len = cycle.size();
  return doc_from_recording(record_script(instance, script),
                            std::move(meta));
}

void write_recording_jsonl(std::ostream& out, const spp::Instance& instance,
                           const RecordingDoc& doc) {
  CR_REQUIRE(doc.trace.size() == doc.steps.size() + 1,
             "recording steps/trace mismatch");
  CR_REQUIRE(doc.io.empty() || doc.io.size() == doc.steps.size(),
             "recording io/steps mismatch");
  CR_REQUIRE(doc.step_time_us.empty() ||
                 doc.step_time_us.size() == doc.steps.size(),
             "recording step_time_us/steps mismatch");
  {
    std::uint64_t prev_before = doc.meta.first_step;
    for (const RecordedFault& f : doc.faults) {
      CR_REQUIRE(f.before >= prev_before &&
                     f.before <= doc.meta.first_step + doc.steps.size(),
                 "recording fault \"before\" indices must be non-decreasing "
                 "and inside the recorded window");
      prev_before = f.before;
    }
  }
  std::size_t fault_cursor = 0;
  const auto emit_faults_before = [&](std::uint64_t step_index) {
    while (fault_cursor < doc.faults.size() &&
           doc.faults[fault_cursor].before <= step_index) {
      const RecordedFault& f = doc.faults[fault_cursor];
      obs::JsonWriter record;
      record.field("type", "recording_fault")
          .field("before", f.before)
          .field("fault", f.text)
          .field("t_us", f.t_us);
      out << record.str() << '\n';
      ++fault_cursor;
    }
  };
  obs::JsonWriter header;
  header.field("type", "recording_header");
  // Like obs::add_metadata_fields, but with the recording layout's own
  // schema version (the generic artifact version stayed at 1 when the
  // causal fields bumped recordings to v2).
  header.field("schema_version", kRecordingSchemaVersion)
      .field("created_unix_ms", obs::unix_time_ms())
      .field("git", obs::git_describe())
      .field("argv", obs::process_argv());
  header.field("kind", doc.meta.kind)
      .field("instance_name", doc.meta.instance_name)
      .field("model", doc.meta.model)
      .field("scheduler", doc.meta.scheduler)
      .field("seed", doc.meta.seed)
      .field("outcome", doc.meta.outcome)
      .field("first_step", doc.meta.first_step)
      .field("steps", static_cast<std::uint64_t>(doc.steps.size()))
      .field("nodes", static_cast<std::uint64_t>(instance.node_count()));
  if (doc.meta.kind == "witness") {
    header.field("witness_prefix_len", doc.meta.witness_prefix_len)
        .field("witness_cycle_len", doc.meta.witness_cycle_len);
  }
  header.field("instance", spp::format_instance(instance));
  Assignment pi = doc.trace.at(0);
  header.raw_field("initial", assignment_json(instance, pi));
  out << header.str() << '\n';

  for (std::size_t t = 0; t < doc.steps.size(); ++t) {
    emit_faults_before(doc.meta.first_step + t);
    obs::JsonWriter record;
    record.field("type", "recording_step")
        .field("t", doc.meta.first_step + t)
        .field("step", step_text(instance, doc.steps[t]));
    for (const Change& change : doc.trace.changes(t + 1)) {
      pi[change.node] = change.path;
    }
    record.raw_field("pi", assignment_json(instance, pi));
    if (!doc.io.empty()) {
      record.raw_field("sent", io_sent_json(doc.io[t]));
      record.raw_field("reads", io_reads_json(doc.io[t]));
      if (!doc.io[t].selected.empty()) {
        record.raw_field("sel", io_selected_json(doc.io[t]));
      }
    }
    if (!doc.step_time_us.empty()) {
      record.field("t_us", doc.step_time_us[t]);
    }
    out << record.str() << '\n';
  }

  // Faults that fired after the last recorded step (the run ended before
  // another step executed).
  emit_faults_before(doc.meta.first_step + doc.steps.size());

  obs::JsonWriter footer;
  footer.field("type", "recording_footer")
      .field("steps", static_cast<std::uint64_t>(doc.steps.size()))
      .field("changes", doc.trace.change_count());
  if (!doc.faults.empty()) {
    footer.field("faults", static_cast<std::uint64_t>(doc.faults.size()));
  }
  out << footer.str() << '\n';
}

std::string recording_to_jsonl(const spp::Instance& instance,
                               const RecordingDoc& doc) {
  std::ostringstream out;
  write_recording_jsonl(out, instance, doc);
  return out.str();
}

void save_recording(const std::string& path, const spp::Instance& instance,
                    const RecordingDoc& doc) {
  std::ofstream out(path, std::ios::trunc);
  CR_REQUIRE(out.is_open(), "cannot write recording: " + path);
  write_recording_jsonl(out, instance, doc);
}

LoadedRecording load_recording_jsonl(std::istream& in) {
  std::string raw;
  std::size_t line_no = 0;

  // Header: the first non-blank, non-"meta" record.
  std::optional<obs::JsonValue> header;
  std::size_t header_line = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    if (trim(raw).empty()) {
      continue;
    }
    auto parsed = obs::json_parse(raw);
    if (!parsed.has_value()) {
      fail(line_no, "not valid JSON");
    }
    const std::string type = optional_string(*parsed, "type");
    if (type == "meta") {
      continue;  // sink-level self-description record
    }
    if (type != "recording_header") {
      fail(line_no, "expected a recording_header record, got \"" + type +
                        '"');
    }
    header = std::move(*parsed);
    header_line = line_no;
    break;
  }
  if (!header.has_value()) {
    throw ParseError("recording: empty input (no recording_header)");
  }

  const std::uint64_t schema =
      u64_field(*header, "schema_version", header_line);
  if (schema > static_cast<std::uint64_t>(kRecordingSchemaVersion)) {
    fail(header_line,
         "schema_version " + std::to_string(schema) +
             " is newer than this reader (understands up to " +
             std::to_string(kRecordingSchemaVersion) + ")");
  }

  spp::Instance instance = [&] {
    try {
      return spp::parse_instance(string_field(*header, "instance",
                                              header_line));
    } catch (const Error& e) {
      fail(header_line, std::string("embedded instance: ") + e.what());
    }
  }();
  LoadedRecording loaded(std::move(instance));
  RecordingDoc& doc = loaded.doc;

  doc.meta.kind = optional_string(*header, "kind");
  doc.meta.instance_name = optional_string(*header, "instance_name");
  doc.meta.model = optional_string(*header, "model");
  doc.meta.scheduler = optional_string(*header, "scheduler");
  doc.meta.outcome = optional_string(*header, "outcome");
  if (header->find("seed") != nullptr) {
    doc.meta.seed = u64_field(*header, "seed", header_line);
  }
  doc.meta.first_step = u64_field(*header, "first_step", header_line);
  if (doc.meta.first_step == 0) {
    fail(header_line, "first_step must be >= 1");
  }
  if (doc.meta.kind == "witness") {
    doc.meta.witness_prefix_len =
        u64_field(*header, "witness_prefix_len", header_line);
    doc.meta.witness_cycle_len =
        u64_field(*header, "witness_cycle_len", header_line);
  }
  const std::uint64_t declared_steps =
      u64_field(*header, "steps", header_line);
  doc.trace = Trace(assignment_from_json(
      loaded.instance, require_field(*header, "initial", header_line),
      header_line));

  bool saw_footer = false;
  while (std::getline(in, raw)) {
    ++line_no;
    if (trim(raw).empty()) {
      continue;
    }
    if (saw_footer) {
      fail(line_no, "trailing record after recording_footer");
    }
    auto parsed = obs::json_parse(raw);
    if (!parsed.has_value()) {
      fail(line_no, "not valid JSON");
    }
    const std::string type = optional_string(*parsed, "type");
    if (type == "recording_step") {
      const std::uint64_t t = u64_field(*parsed, "t", line_no);
      const std::uint64_t expected =
          doc.meta.first_step + doc.steps.size();
      if (t != expected) {
        fail(line_no, "step index " + std::to_string(t) +
                          " out of order (expected " +
                          std::to_string(expected) + ")");
      }
      const std::string text = string_field(*parsed, "step", line_no);
      model::ActivationScript step;
      try {
        step = model::parse_script(loaded.instance, text);
      } catch (const Error& e) {
        fail(line_no, std::string("bad step: ") + e.what());
      }
      if (step.size() != 1) {
        fail(line_no, "step record must hold exactly one step");
      }
      doc.steps.push_back(std::move(step.front()));
      doc.trace.record(assignment_from_json(
          loaded.instance, require_field(*parsed, "pi", line_no),
          line_no));
      if (parsed->find("sent") != nullptr ||
          parsed->find("reads") != nullptr) {
        doc.io.push_back(io_from_record(loaded.instance, *parsed, line_no,
                                        doc.steps.back().nodes.size()));
      } else if (!doc.io.empty()) {
        fail(line_no, "step record is missing I/O fields present earlier");
      }
      if (const obs::JsonValue* t_us = parsed->find("t_us")) {
        doc.step_time_us.push_back(u64_elem(*t_us, line_no, "t_us"));
      } else if (!doc.step_time_us.empty()) {
        fail(line_no, "step record is missing \"t_us\" present earlier");
      }
    } else if (type == "recording_fault") {
      // Schema v3: a fault record appears exactly before the step it
      // precedes, so its "before" index must be the next step index (or
      // one past the last step, for faults that fired after it).
      RecordedFault f;
      f.before = u64_field(*parsed, "before", line_no);
      const std::uint64_t expected = doc.meta.first_step + doc.steps.size();
      if (f.before != expected) {
        fail(line_no, "fault \"before\" index " + std::to_string(f.before) +
                          " out of order (expected " +
                          std::to_string(expected) + ")");
      }
      f.text = string_field(*parsed, "fault", line_no);
      try {
        scenario::parse_fault(f.text, loaded.instance);
      } catch (const Error& e) {
        fail(line_no, std::string("bad fault: ") + e.what());
      }
      f.t_us = u64_field(*parsed, "t_us", line_no);
      if (!doc.faults.empty() && f.t_us < doc.faults.back().t_us) {
        fail(line_no, "fault timestamps must be non-decreasing");
      }
      doc.faults.push_back(std::move(f));
    } else if (type == "recording_footer") {
      const std::uint64_t steps = u64_field(*parsed, "steps", line_no);
      if (steps != doc.steps.size()) {
        fail(line_no, "footer declares " + std::to_string(steps) +
                          " steps, file holds " +
                          std::to_string(doc.steps.size()));
      }
      if (const obs::JsonValue* changes = parsed->find("changes")) {
        const std::uint64_t declared =
            u64_elem(*changes, line_no, "changes");
        if (declared != doc.trace.change_count()) {
          fail(line_no, "footer change count does not match assignments");
        }
      }
      if (const obs::JsonValue* faults = parsed->find("faults")) {
        const std::uint64_t declared = u64_elem(*faults, line_no, "faults");
        if (declared != doc.faults.size()) {
          fail(line_no, "footer declares " + std::to_string(declared) +
                            " faults, file holds " +
                            std::to_string(doc.faults.size()));
        }
      } else if (!doc.faults.empty()) {
        fail(line_no, "footer is missing the fault count for a faulted "
                      "recording");
      }
      saw_footer = true;
    } else {
      fail(line_no, "unexpected record type \"" + type + '"');
    }
  }
  if (!saw_footer) {
    throw ParseError("recording: truncated input (no recording_footer)");
  }
  if (declared_steps != doc.steps.size()) {
    fail(header_line, "header declares " + std::to_string(declared_steps) +
                          " steps, file holds " +
                          std::to_string(doc.steps.size()));
  }
  if (!doc.io.empty() && doc.io.size() != doc.steps.size()) {
    throw ParseError("recording: I/O fields present on only some steps");
  }
  if (!doc.step_time_us.empty() &&
      doc.step_time_us.size() != doc.steps.size()) {
    throw ParseError("recording: \"t_us\" present on only some steps");
  }
  std::size_t with_selection = 0;
  for (const StepIo& io : doc.io) {
    if (!io.selected.empty()) {
      ++with_selection;
    }
  }
  if (with_selection != 0 && with_selection != doc.io.size()) {
    throw ParseError("recording: \"sel\" present on only some steps");
  }
  return loaded;
}

LoadedRecording load_recording_file(const std::string& path) {
  std::ifstream in(path);
  CR_REQUIRE(in.is_open(), "cannot open recording: " + path);
  return load_recording_jsonl(in);
}

ReplayResult replay_recording(const LoadedRecording& loaded,
                              const obs::Instrumentation& obs) {
  const RecordingDoc& doc = loaded.doc;
  CR_REQUIRE(doc.complete(),
             "cannot replay a partial (ring-buffer) recording: it starts "
             "at step " +
                 std::to_string(doc.meta.first_step));
  obs::Span span = obs.span("replay.run");

  ReplayResult result;
  engine::NetworkState state(loaded.instance);
  Assignment expected = doc.trace.at(0);
  if (state.assignments() != expected) {
    // A complete recording must start from the canonical initial state;
    // load validation guarantees shape, this guards semantics.
    result.divergence = ReplayDivergence{0, kNoNode, {}, {}};
    return result;
  }
  result.trace = Trace(state.assignments());
  // Faulted recordings (schema v3): re-apply each fault's state effect
  // at the recorded position. scenario::apply_fault is the same code the
  // sim injector ran, so a clean recording replays divergence-free; the
  // delivery-level faults (link down/up, regime shifts) are no-ops here
  // — their consequences are already baked into the recorded steps.
  std::size_t fault_cursor = 0;
  const auto apply_faults_before = [&](std::uint64_t step_index) {
    const std::size_t first = fault_cursor;
    while (fault_cursor < doc.faults.size() &&
           doc.faults[fault_cursor].before <= step_index) {
      scenario::apply_fault(
          state,
          scenario::parse_fault(doc.faults[fault_cursor].text,
                                loaded.instance));
      ++fault_cursor;
    }
    return fault_cursor != first;
  };
  engine::StepEffect effect;
  for (std::size_t t = 0; t < doc.steps.size(); ++t) {
    const bool faulted = apply_faults_before(doc.meta.first_step + t);
    engine::execute_step(state, doc.steps[t], effect);
    ++result.steps_replayed;
    // The step's pi changes, taken as engine::run takes them: from the
    // effect, or, after a fault (which may rewrite pi outside the
    // effect), by diffing the whole assignment.
    std::vector<Change> changes;
    if (faulted) {
      changes = diff(result.trace.back(), state.assignments());
    } else {
      for (const engine::NodeEffect& node : effect.nodes) {
        if (node.changed) {
          changes.push_back(
              Change{node.node, loaded.instance.path(node.new_assignment)});
        }
      }
    }
    // Replay and recording agreed on pi(t), so only a node this step
    // changed, or the recording says it changed, can differ now; the
    // lowest such node is the one a scan of every node finds.
    const std::span<const Change> recorded = doc.trace.changes(t + 1);
    for (const Change& change : recorded) {
      expected[change.node] = change.path;
    }
    NodeId diverged = kNoNode;
    const auto check = [&](NodeId v) {
      if (v < diverged && state.assignment(v) != expected[v]) {
        diverged = v;
      }
    };
    for (const Change& change : changes) {
      check(change.node);
    }
    for (const Change& change : recorded) {
      check(change.node);
    }
    result.trace.record_changes(std::move(changes));
    if (diverged != kNoNode) {
      result.divergence =
          ReplayDivergence{doc.meta.first_step + t, diverged,
                           expected[diverged], state.assignment(diverged)};
      break;
    }
  }
  result.identical = !result.divergence.has_value();

  if (span.enabled()) {
    span.attr("steps", result.steps_replayed)
        .attr("identical", result.identical);
  }
  if (obs.metrics != nullptr) {
    obs.metrics->counter("replay.runs").add();
    obs.metrics->counter("replay.steps").add(result.steps_replayed);
    if (!result.identical) {
      obs.metrics->counter("replay.divergences").add();
    }
  }
  if (obs.sink != nullptr) {
    obs::Event ev("replay_run");
    ev.field("steps", result.steps_replayed)
        .field("identical", result.identical);
    if (result.divergence.has_value()) {
      ev.field("diverged_at", result.divergence->step);
    }
    obs.sink->emit(ev);
  }
  return result;
}

}  // namespace commroute::trace
