// Flight recorder semantics in engine::run: off by default, full-record
// mode replays losslessly, the ring keeps exactly the last N steps, and
// flush-to-disk fires on non-convergence (or always, when asked) — plus
// the campaign wiring that stamps recording paths on rows.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/runner.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"
#include "trace/recording_io.hpp"

namespace commroute {
namespace {

using model::Model;

engine::RunResult run_bad_gadget(const engine::FlightRecorderOptions& flight) {
  const spp::Instance bad = spp::bad_gadget();
  const Model m = Model::parse("R1O");
  engine::RoundRobinScheduler sched(m, bad);
  engine::RunOptions options;
  options.enforce_model = m;
  options.flight = flight;
  return engine::run(bad, sched, options);
}

TEST(FlightRecorder, OffByDefault) {
  const engine::RunResult run = run_bad_gadget({});
  EXPECT_EQ(run.outcome, engine::Outcome::kOscillating);
  EXPECT_FALSE(run.recording.has_value());
  EXPECT_TRUE(run.recording_path.empty());
}

TEST(FlightRecorder, FullModeCapturesAReplayableRecording) {
  engine::FlightRecorderOptions flight;
  flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  const engine::RunResult run = run_bad_gadget(flight);
  ASSERT_TRUE(run.recording.has_value());
  EXPECT_TRUE(run.recording->complete());
  EXPECT_EQ(run.recording->steps.size(), run.steps);
  EXPECT_EQ(run.recording->meta.outcome, "oscillating");
  EXPECT_EQ(run.recording->meta.model, "R1O");

  const spp::Instance bad = spp::bad_gadget();
  std::istringstream in(trace::recording_to_jsonl(bad, *run.recording));
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  const trace::ReplayResult replayed = trace::replay_recording(loaded);
  EXPECT_TRUE(replayed.identical);
  EXPECT_EQ(replayed.trace.collapsed(), run.trace.collapsed());
}

TEST(FlightRecorder, RingModeKeepsExactlyTheLastSteps) {
  engine::FlightRecorderOptions full;
  full.mode = engine::FlightRecorderOptions::Mode::kFull;
  const engine::RunResult reference = run_bad_gadget(full);

  engine::FlightRecorderOptions ring;
  ring.mode = engine::FlightRecorderOptions::Mode::kRing;
  ring.ring_capacity = 8;
  const engine::RunResult run = run_bad_gadget(ring);
  ASSERT_TRUE(run.recording.has_value());
  ASSERT_GT(run.steps, 8u);  // the run outlives the ring
  const trace::RecordingDoc& doc = *run.recording;

  EXPECT_EQ(doc.steps.size(), 8u);
  EXPECT_EQ(doc.meta.first_step, run.steps - 8 + 1);
  EXPECT_FALSE(doc.complete());

  // The ring window is exactly the tail of the full recording: the
  // window's initial state is pi after the last evicted step.
  const trace::RecordingDoc& ref = *reference.recording;
  ASSERT_EQ(reference.steps, run.steps);
  const std::size_t offset =
      static_cast<std::size_t>(doc.meta.first_step) - 1;
  ASSERT_EQ(doc.trace.size(), doc.steps.size() + 1);
  EXPECT_EQ(doc.trace.at(0), ref.trace.at(offset));
  for (std::size_t t = 0; t < doc.steps.size(); ++t) {
    EXPECT_EQ(doc.trace.at(t + 1), ref.trace.at(offset + t + 1));
    EXPECT_EQ(doc.io[t], ref.io[offset + t]);
  }
}

TEST(FlightRecorder, FlushesToDiskOnNonConvergence) {
  const std::string path = "test_flight_recorder_flush.recording.jsonl";
  engine::FlightRecorderOptions flight;
  flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  flight.flush_path = path;
  flight.instance_name = "BAD-GADGET";
  const engine::RunResult run = run_bad_gadget(flight);
  EXPECT_EQ(run.outcome, engine::Outcome::kOscillating);
  EXPECT_EQ(run.recording_path, path);

  const trace::LoadedRecording loaded = trace::load_recording_file(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.doc.meta.instance_name, "BAD-GADGET");
  EXPECT_EQ(loaded.doc.steps.size(), run.steps);
  EXPECT_TRUE(trace::replay_recording(loaded).identical);
}

TEST(FlightRecorder, DoesNotFlushAConvergedRun) {
  const std::string path = "test_flight_recorder_noflush.recording.jsonl";
  const spp::Instance good = spp::good_gadget();
  const Model m = Model::parse("RMS");
  engine::RoundRobinScheduler sched(m, good);
  engine::RunOptions options;
  options.enforce_model = m;
  options.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  options.flight.flush_path = path;
  const engine::RunResult run = engine::run(good, sched, options);
  EXPECT_EQ(run.outcome, engine::Outcome::kConverged);
  EXPECT_TRUE(run.recording_path.empty());
  EXPECT_FALSE(std::filesystem::exists(path));
  // The in-memory recording is still there for callers that want it.
  ASSERT_TRUE(run.recording.has_value());
  EXPECT_EQ(run.recording->meta.outcome, "converged");

  options.flight.flush_always = true;
  engine::RoundRobinScheduler sched2(m, good);
  const engine::RunResult forced = engine::run(good, sched2, options);
  EXPECT_EQ(forced.recording_path, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST(FlightRecorder, CampaignStampsRecordingPathsOnNonConvergedRows) {
  const std::string dir = "test_flight_recorder_campaign";
  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance good = spp::good_gadget();
  study::CampaignSpec spec;
  spec.instances = {{"BAD-GADGET", &bad}, {"GOOD-GADGET", &good}};
  spec.models = {Model::parse("R1O")};
  spec.schedulers = {study::SchedulerKind::kRoundRobin};
  spec.recording_dir = dir;
  const study::CampaignResult result = study::run_campaign(spec);

  ASSERT_EQ(result.rows.size(), 2u);
  for (const study::CampaignRow& row : result.rows) {
    if (row.outcome == engine::Outcome::kConverged) {
      EXPECT_TRUE(row.recording_path.empty());
    } else {
      ASSERT_FALSE(row.recording_path.empty());
      EXPECT_TRUE(std::filesystem::exists(row.recording_path));
      const trace::LoadedRecording loaded =
          trace::load_recording_file(row.recording_path);
      EXPECT_EQ(loaded.doc.meta.instance_name, row.instance);
    }
  }
  const std::string csv = result.to_csv();
  EXPECT_NE(csv.find("wall_ms,recording_path"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace commroute
