// Recording serialization: JSONL round-trip (runs and checker
// witnesses), load-time structural validation, and deterministic replay
// including tamper detection.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "model/script_io.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"
#include "support/rng.hpp"
#include "trace/recording_io.hpp"

namespace commroute {
namespace {

using model::Model;

/// A deterministic oscillating run with the flight recorder in full
/// mode: BAD GADGET has no stable assignment, so round-robin provably
/// cycles (45 steps under R1O).
engine::RunResult recorded_bad_gadget_run(const spp::Instance& instance) {
  const Model m = Model::parse("R1O");
  engine::RoundRobinScheduler sched(m, instance);
  engine::RunOptions options;
  options.enforce_model = m;
  options.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  options.flight.instance_name = "BAD-GADGET";
  options.flight.scheduler = "round-robin";
  engine::RunResult result = engine::run(instance, sched, options);
  EXPECT_EQ(result.outcome, engine::Outcome::kOscillating);
  EXPECT_TRUE(result.recording.has_value());
  return result;
}

TEST(RecordingIo, RoundTripPreservesDocument) {
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  const trace::RecordingDoc& doc = *run.recording;

  const std::string jsonl = trace::recording_to_jsonl(bad, doc);
  std::istringstream in(jsonl);
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);

  EXPECT_EQ(loaded.instance.node_count(), bad.node_count());
  EXPECT_EQ(loaded.doc.meta.kind, "recording");
  EXPECT_EQ(loaded.doc.meta.instance_name, "BAD-GADGET");
  EXPECT_EQ(loaded.doc.meta.model, "R1O");
  EXPECT_EQ(loaded.doc.meta.scheduler, "round-robin");
  EXPECT_EQ(loaded.doc.meta.outcome, "oscillating");
  EXPECT_EQ(loaded.doc.meta.first_step, 1u);
  EXPECT_TRUE(loaded.doc.complete());

  EXPECT_EQ(loaded.doc.trace, doc.trace);
  EXPECT_EQ(loaded.doc.io, doc.io);
  // Steps survive the script-syntax round-trip verbatim.
  EXPECT_EQ(model::format_script(loaded.instance, loaded.doc.steps),
            model::format_script(bad, doc.steps));
}

TEST(RecordingIo, MultiCharacterNodeNamesRoundTripAndReplay) {
  // random_shortest names its nodes d, n1, n2, ...: the destination's
  // one-node path is written as the single name "d", with no space.
  Rng rng(12);
  const spp::Instance inst = spp::random_shortest(rng, {.nodes = 12});
  const Model m = Model::parse("R1O");
  engine::RoundRobinScheduler sched(m, inst);
  engine::RunOptions options;
  options.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  const engine::RunResult run = engine::run(inst, sched, options);
  ASSERT_EQ(run.outcome, engine::Outcome::kConverged);
  ASSERT_TRUE(run.recording.has_value());

  std::istringstream in(trace::recording_to_jsonl(inst, *run.recording));
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  EXPECT_EQ(loaded.doc.trace, run.recording->trace);
  const trace::ReplayResult replay = trace::replay_recording(loaded);
  EXPECT_TRUE(replay.identical);
  EXPECT_EQ(replay.steps_replayed, run.steps);
  EXPECT_EQ(replay.trace, run.trace);
}

TEST(RecordingIo, WitnessRoundTripAndReplay) {
  const spp::Instance dis = spp::disagree();
  checker::ExploreOptions opts;
  opts.max_channel_length = 3;
  opts.extract_witness = true;
  const auto explored = checker::explore(dis, Model::parse("R1O"), opts);
  ASSERT_TRUE(explored.oscillation_found);
  ASSERT_FALSE(explored.witness_cycle.empty());

  const trace::RecordingDoc doc = trace::record_witness(
      dis, explored.witness_prefix, explored.witness_cycle);
  EXPECT_EQ(doc.meta.kind, "witness");
  EXPECT_EQ(doc.meta.witness_prefix_len, explored.witness_prefix.size());
  EXPECT_EQ(doc.meta.witness_cycle_len, explored.witness_cycle.size());
  EXPECT_EQ(doc.steps.size(), explored.witness_prefix.size() +
                                  2 * explored.witness_cycle.size());

  const std::string jsonl = trace::recording_to_jsonl(dis, doc);
  std::istringstream in(jsonl);
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  EXPECT_EQ(loaded.doc.meta.kind, "witness");
  EXPECT_EQ(loaded.doc.meta.witness_cycle_len,
            explored.witness_cycle.size());
  EXPECT_EQ(loaded.doc.trace, doc.trace);

  const trace::ReplayResult replayed = trace::replay_recording(loaded);
  EXPECT_TRUE(replayed.identical);
  EXPECT_EQ(replayed.steps_replayed, doc.steps.size());
}

TEST(RecordingIo, SaveLoadReplayIsDeterministic) {
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  const std::string path = "test_recording_io_roundtrip.recording.jsonl";
  trace::save_recording(path, bad, *run.recording);

  const trace::LoadedRecording loaded = trace::load_recording_file(path);
  std::remove(path.c_str());
  const trace::ReplayResult replayed = trace::replay_recording(loaded);
  EXPECT_TRUE(replayed.identical);
  EXPECT_FALSE(replayed.divergence.has_value());
  EXPECT_EQ(replayed.steps_replayed, run.steps);
  // The replayed {pi(t)} collapses to the same sequence the original run
  // produced (record -> serialize -> load -> replay is lossless).
  EXPECT_EQ(replayed.trace.collapsed(), run.trace.collapsed());
}

TEST(RecordingIo, TamperedAssignmentIsReportedAsDivergence) {
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  const std::string jsonl = trace::recording_to_jsonl(bad, *run.recording);
  std::istringstream in(jsonl);
  trace::LoadedRecording loaded = trace::load_recording_jsonl(in);

  // Flip one mid-run assignment (pi after step t >= 2) back to its
  // predecessor at a step where the run actually changed it.
  std::vector<trace::Assignment> states = loaded.doc.trace.states();
  std::size_t tampered = states.size();
  for (std::size_t t = 2; t < states.size(); ++t) {
    if (states[t] != states[t - 1]) {
      states[t] = states[t - 1];
      tampered = t;
      break;
    }
  }
  ASSERT_LT(tampered, states.size());
  trace::Trace forged;
  for (const trace::Assignment& a : states) {
    forged.record(a);
  }
  loaded.doc.trace = forged;

  const trace::ReplayResult replayed = trace::replay_recording(loaded);
  EXPECT_FALSE(replayed.identical);
  ASSERT_TRUE(replayed.divergence.has_value());
  EXPECT_EQ(replayed.divergence->step,
            loaded.doc.meta.first_step + tampered - 1);
  EXPECT_NE(replayed.divergence->expected, replayed.divergence->actual);
}

TEST(RecordingIo, PartialRecordingCannotBeReplayed) {
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  const std::string jsonl = trace::recording_to_jsonl(bad, *run.recording);
  std::istringstream in(jsonl);
  trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  loaded.doc.meta.first_step = 2;  // pretend it is a ring window
  EXPECT_FALSE(loaded.doc.complete());
  EXPECT_THROW(trace::replay_recording(loaded), PreconditionError);
}

TEST(RecordingIo, LoadRejectsMalformedInput) {
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  const std::string jsonl = trace::recording_to_jsonl(bad, *run.recording);

  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return trace::load_recording_jsonl(in);
  };

  // Empty input.
  EXPECT_THROW(load(""), ParseError);

  // Truncated: drop the footer line.
  const std::size_t footer =
      jsonl.rfind("{\"type\":\"recording_footer\"");
  ASSERT_NE(footer, std::string::npos);
  EXPECT_THROW(load(jsonl.substr(0, footer)), ParseError);

  // A schema version newer than this reader.
  std::string newer = jsonl;
  const std::string tag =
      "\"schema_version\":" + std::to_string(trace::kRecordingSchemaVersion);
  ASSERT_NE(newer.find(tag), std::string::npos);
  newer.replace(newer.find(tag), tag.size(), "\"schema_version\":99");
  EXPECT_THROW(load(newer), ParseError);

  // Out-of-order steps: swap the first two step lines.
  std::istringstream lines_in(jsonl);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(lines_in, line)) {
    lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 4u);
  std::swap(lines[1], lines[2]);
  std::string swapped;
  for (const std::string& l : lines) {
    swapped += l + "\n";
  }
  EXPECT_THROW(load(swapped), ParseError);
}

// Integer fields accept only 0 <= x < 2^64; anything else is a
// ParseError naming the field, never a wrapped, truncated or
// out-of-range cast.
TEST(RecordingIo, LoadRejectsOutOfRangeIntegers) {
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  const std::string jsonl = trace::recording_to_jsonl(bad, *run.recording);
  const std::string seed = "\"seed\":" + std::to_string(run.recording->meta.seed);
  ASSERT_NE(jsonl.find(seed), std::string::npos);
  for (const char* value : {"-5", "2.5", "1e30"}) {
    std::string text = jsonl;
    text.replace(text.find(seed), seed.size(),
                 std::string("\"seed\":") + value);
    std::istringstream in(text);
    try {
      trace::load_recording_jsonl(in);
      ADD_FAILURE() << "seed " << value << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos)
          << e.what();
    }
  }
}

/// Erases `,"key":<value>` from every line of `jsonl` (value = a JSON
/// array or a bare number) — crafting schema-v1-shaped inputs.
std::string strip_field(const std::string& jsonl, const std::string& key,
                        bool first_line_only = false) {
  std::istringstream in(jsonl);
  std::string out, line;
  bool stripped_one = false;
  while (std::getline(in, line)) {
    const std::string tag = ",\"" + key + "\":";
    const std::size_t start = line.find(tag);
    if (start != std::string::npos && !(first_line_only && stripped_one)) {
      std::size_t end = start + tag.size();
      if (line[end] == '[') {
        end = line.find(']', end) + 1;
      } else {
        while (end < line.size() &&
               (std::isdigit(static_cast<unsigned char>(line[end])) != 0 ||
                line[end] == '-')) {
          ++end;
        }
      }
      line.erase(start, end - start);
      stripped_one = true;
    }
    out += line + "\n";
  }
  return out;
}

TEST(RecordingIo, CausalFieldsRoundTrip) {
  // Schema v2: "sel" (selection provenance) always, "t_us" on timed
  // (sim-driven) recordings; both survive the JSONL round-trip.
  const spp::Instance bad = spp::bad_gadget();
  sim::SimOptions opts;
  opts.model = Model::parse("U1O");
  opts.seed = 7;
  opts.link.loss_prob = 0.2;
  opts.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  const sim::SimResult result = sim::run(bad, opts);
  ASSERT_TRUE(result.run.recording.has_value());
  const trace::RecordingDoc& doc = *result.run.recording;
  ASSERT_EQ(doc.step_time_us.size(), doc.steps.size());
  ASSERT_EQ(doc.io.size(), doc.steps.size());
  for (std::size_t t = 0; t < doc.io.size(); ++t) {
    EXPECT_EQ(doc.io[t].selected.size(), doc.steps[t].nodes.size());
  }

  std::istringstream in(trace::recording_to_jsonl(bad, doc));
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  EXPECT_EQ(loaded.doc.io, doc.io);
  EXPECT_EQ(loaded.doc.step_time_us, doc.step_time_us);
}

TEST(RecordingIo, V1ShapedFilesStillLoad) {
  // A file without any causal fields (what a v1 writer produced) loads
  // with those vectors simply empty.
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  std::string jsonl = trace::recording_to_jsonl(bad, *run.recording);
  jsonl = strip_field(jsonl, "sel");
  const std::string tag =
      "\"schema_version\":" + std::to_string(trace::kRecordingSchemaVersion);
  ASSERT_NE(jsonl.find(tag), std::string::npos);
  jsonl.replace(jsonl.find(tag), tag.size(), "\"schema_version\":1");

  std::istringstream in(jsonl);
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  EXPECT_EQ(loaded.doc.steps.size(), run.recording->steps.size());
  EXPECT_TRUE(loaded.doc.step_time_us.empty());
  for (const trace::StepIo& io : loaded.doc.io) {
    EXPECT_TRUE(io.selected.empty());
  }
  // And it still replays: replay never needed the causal fields.
  EXPECT_TRUE(trace::replay_recording(loaded).identical);
}

TEST(RecordingIo, RejectsInconsistentCausalFields) {
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  const std::string jsonl = trace::recording_to_jsonl(bad, *run.recording);
  const auto load = [](const std::string& text) {
    std::istringstream in(text);
    return trace::load_recording_jsonl(in);
  };

  // Selection channel out of range.
  std::string bad_channel = jsonl;
  const std::size_t sel = bad_channel.find("\"sel\":[");
  ASSERT_NE(sel, std::string::npos);
  bad_channel.replace(sel, 8, "\"sel\":[99");
  EXPECT_THROW(load(bad_channel), ParseError);

  // Wrong arity: round-robin steps update exactly one node.
  std::string bad_arity = jsonl;
  const std::size_t close = bad_arity.find(']', bad_arity.find("\"sel\":["));
  ASSERT_NE(close, std::string::npos);
  bad_arity.insert(close, ",0");
  EXPECT_THROW(load(bad_arity), ParseError);

  // "sel" present on only some steps.
  EXPECT_THROW(load(strip_field(jsonl, "sel", /*first_line_only=*/true)),
               ParseError);

  // "t_us" present on only some steps (timed sim recording).
  sim::SimOptions opts;
  opts.model = Model::parse("U1O");
  opts.seed = 7;
  opts.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  const sim::SimResult timed = sim::run(bad, opts);
  ASSERT_TRUE(timed.run.recording.has_value());
  const std::string timed_jsonl =
      trace::recording_to_jsonl(bad, *timed.run.recording);
  ASSERT_NE(timed_jsonl.find("\"t_us\":"), std::string::npos);
  EXPECT_THROW(
      load(strip_field(timed_jsonl, "t_us", /*first_line_only=*/true)),
      ParseError);
}

TEST(RecordingIo, LoadSkipsLeadingSinkMetadataRecord) {
  const spp::Instance bad = spp::bad_gadget();
  const engine::RunResult run = recorded_bad_gadget_run(bad);
  const std::string jsonl =
      "{\"type\":\"meta\",\"schema_version\":1}\n" +
      trace::recording_to_jsonl(bad, *run.recording);
  std::istringstream in(jsonl);
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  EXPECT_EQ(loaded.doc.steps.size(), run.recording->steps.size());
}

}  // namespace
}  // namespace commroute
