// Pinned recordings and the readers built on them. Each test makes one
// kind of recording (an engine run in full and in ring mode, a faulted
// sim run, a checker witness), serializes it, loads it back, and runs
// every offline reader over both the in-memory and the loaded document:
// flap timelines, cycle extraction, channel occupancy, the causal DAG's
// stats, critical path and per-node root causes, and, for complete
// recordings, replay. One FNV-1a digest per document covers all of it.
// The digests were taken from the library as it stood when recordings
// still held one full assignment per step; they guard the change to a
// per-step delta history (trace::Trace) and any later rework of the
// recorder or its readers.
//
// The recording header's stamps (creation time, git describe, argv) vary
// between runs and are stripped before digesting.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "engine/scheduler.hpp"
#include "obs/causality.hpp"
#include "obs/forensics.hpp"
#include "obs/json.hpp"
#include "scenario/fault.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "test_util.hpp"
#include "trace/recording_io.hpp"

namespace commroute {
namespace {

using FlightMode = engine::FlightRecorderOptions::Mode;

/// The JSONL with the header's run stamps removed.
std::string stable_jsonl(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::optional<obs::JsonValue> parsed = obs::json_parse(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    if (!parsed.has_value()) {
      return text;
    }
    auto& members = std::get<obs::JsonValue::Object>(parsed->value);
    std::erase_if(members, [](const auto& member) {
      return member.first == "created_unix_ms" || member.first == "git" ||
             member.first == "argv";
    });
    out += obs::json_render(*parsed) + "\n";
  }
  return out;
}

std::string assignment_text(const spp::Instance& inst,
                            const trace::Assignment& a) {
  std::string out;
  for (const Path& p : a) {
    out += inst.path_name(p) + ";";
  }
  return out;
}

std::string link_text(const obs::CausalLink& link) {
  return std::to_string(link.step) + "/" + std::to_string(link.node) + "/" +
         std::to_string(link.t_us) + "/" + std::to_string(link.changed) +
         "/" + std::to_string(link.via) + " ";
}

/// Every offline reader's output over `doc`, as text.
std::string readers_text(const spp::Instance& inst,
                         const trace::RecordingDoc& doc) {
  std::string out;
  const obs::FlapReport flaps = obs::flap_timelines(inst, doc);
  out += "flaps " + std::to_string(flaps.steps) + " " +
         std::to_string(flaps.first_step) + " " +
         std::to_string(flaps.total_changes) + "\n";
  for (const obs::NodeFlapTimeline& n : flaps.nodes) {
    out += n.name + " " + std::to_string(n.changes) + " " +
           std::to_string(n.withdrawals) + " " +
           std::to_string(n.first_change_step) + " " +
           std::to_string(n.last_change_step) + " " +
           std::to_string(n.distinct_paths) + "\n";
  }

  const obs::OscillationCycle cycle = obs::extract_cycle(doc);
  out += "cycle " + std::to_string(cycle.found) + " " +
         std::to_string(cycle.period) + " " +
         std::to_string(cycle.cycle_start_step) + " " +
         std::to_string(cycle.collapsed_states) + "\n";
  for (std::size_t k = 0; k < cycle.cycle.size(); ++k) {
    out += std::to_string(cycle.witness_steps[k]) + " " +
           assignment_text(inst, cycle.cycle[k]) + "\n";
  }

  for (const obs::ChannelOccupancy& c : obs::channel_occupancy(inst, doc)) {
    out += c.name + " " + std::to_string(c.peak) + " " +
           std::to_string(c.sent) + " " + std::to_string(c.processed) + " " +
           std::to_string(c.dropped) + ":";
    for (const std::size_t occupancy : c.series) {
      out += " " + std::to_string(occupancy);
    }
    out += "\n";
  }

  const obs::CausalityGraph graph = obs::build_causality(inst, doc);
  const obs::CausalityStats s = graph.stats();
  for (const std::uint64_t n :
       {s.activations, s.messages, s.consume_edges, s.program_edges,
        s.adoption_edges, s.emit_edges, s.dropped_messages,
        s.in_flight_messages, s.unknown_origin_messages, s.faults,
        s.flushed_messages, s.roots, s.max_depth, s.critical_path_len,
        s.critical_path_us, static_cast<std::uint64_t>(s.truncated),
        static_cast<std::uint64_t>(s.timed)}) {
    out += std::to_string(n) + " ";
  }
  out += "\ncritical path:";
  for (const obs::CausalLink& link : graph.critical_path()) {
    out += link_text(link);
  }
  out += "\n";
  for (NodeId v = 0; v < static_cast<NodeId>(graph.node_count()); ++v) {
    const obs::CausalityGraph::RootCause cause = graph.root_cause(v);
    out += "root cause " + std::to_string(cause.node) + " " +
           std::to_string(cause.complete) + ":";
    for (const obs::CausalLink& link : cause.chain) {
      out += link_text(link);
    }
    out += "\n";
  }
  return out;
}

/// Digest of the serialized recording and of every reader's output,
/// checked to agree between the in-memory and the loaded document.
std::uint64_t recording_digest(const spp::Instance& inst,
                               const trace::RecordingDoc& doc) {
  const std::string jsonl = trace::recording_to_jsonl(inst, doc);
  std::string digested = stable_jsonl(jsonl) + "\n";

  std::istringstream in(jsonl);
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  const std::string readers = readers_text(inst, doc);
  EXPECT_EQ(readers_text(loaded.instance, loaded.doc), readers);
  digested += readers + "\n";

  if (loaded.doc.complete()) {
    const trace::ReplayResult replayed = trace::replay_recording(loaded);
    digested += std::to_string(replayed.identical) + "\n" +
                std::to_string(replayed.steps_replayed) + "\n" +
                std::to_string(replayed.trace.collapsed().size()) + "\n";
  }
  return testutil::fnv1a(digested);
}

struct Pin {
  const char* config;
  std::uint64_t full;
  std::uint64_t ring;
};

TEST(RecordingGolden, EngineRoundRobinOnBadGadget) {
  const spp::Instance inst = spp::bad_gadget();
  const Pin pins[] = {
      {"R1O", 2810055329792517320ULL, 12010138475473190162ULL},
      {"REA", 10138893855467522254ULL, 8299792833808422546ULL},
      {"UMS", 9021306209146289173ULL, 4142318750308257191ULL},
      {"U1O", 12530406771260833735ULL, 13775955335289642291ULL}};
  for (const Pin& pin : pins) {
    for (const FlightMode mode : {FlightMode::kFull, FlightMode::kRing}) {
      const model::Model m = model::Model::parse(pin.config);
      engine::RoundRobinScheduler scheduler(m, inst);
      engine::RunOptions options;
      options.max_steps = 300;
      options.enforce_model = m;
      options.flight.mode = mode;
      options.flight.ring_capacity = 16;
      options.flight.instance_name = "BAD-GADGET";
      options.flight.scheduler = "round-robin";
      const engine::RunResult result = engine::run(inst, scheduler, options);
      ASSERT_TRUE(result.recording.has_value());
      if (mode == FlightMode::kRing) {
        EXPECT_GT(result.recording->meta.first_step, 1u) << pin.config;
      }
      EXPECT_EQ(recording_digest(inst, *result.recording),
                mode == FlightMode::kFull ? pin.full : pin.ring)
          << pin.config << (mode == FlightMode::kFull ? " full" : " ring");
    }
  }
}

TEST(RecordingGolden, FaultedSimOnBadGadget) {
  const spp::Instance inst = spp::bad_gadget();
  const scenario::FaultSchedule faults = scenario::parse_fault_schedule(
      "3000 reboot 1; 7000 session-reset 1 2", inst);
  sim::SimOptions options;
  options.model = model::Model::parse("REA");
  options.seed = 5;
  options.max_steps = 200;
  options.faults = &faults;
  options.flight.mode = FlightMode::kFull;
  options.flight.instance_name = "BAD-GADGET";
  const sim::SimResult result = sim::run(inst, options);
  ASSERT_TRUE(result.run.recording.has_value());
  ASSERT_EQ(result.run.recording->faults.size(), 2u);
  EXPECT_EQ(recording_digest(inst, *result.run.recording),
            7113834723115026088ULL);
}

TEST(RecordingGolden, CheckerWitnessOnDisagree) {
  const spp::Instance inst = spp::disagree();
  checker::ExploreOptions options;
  options.max_channel_length = 3;
  options.extract_witness = true;
  const checker::ExploreResult explored =
      checker::explore(inst, model::Model::parse("R1O"), options);
  ASSERT_TRUE(explored.oscillation_found);
  const trace::RecordingDoc doc = trace::record_witness(
      inst, explored.witness_prefix, explored.witness_cycle);
  EXPECT_EQ(recording_digest(inst, doc), 11046940471126927034ULL);
}

}  // namespace
}  // namespace commroute
