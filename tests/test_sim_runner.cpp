// sim::run semantics: determinism per seed, model-legal induced steps
// across the taxonomy, virtual-time accounting, loss gating, MRAI
// batching, SimResult JSON round-trip, and byte-identical flight-recorder
// replay of a sim-induced execution.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "obs/obs.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "trace/recording_io.hpp"

namespace commroute {
namespace {

using model::Model;

sim::SimOptions lossy_options(const std::string& model_name,
                              std::uint64_t seed) {
  sim::SimOptions opts;
  opts.model = Model::parse(model_name);
  opts.link.latency_us = 1000;
  opts.link.jitter_us = 300;
  opts.link.dist = sim::LatencyDist::kUniform;
  opts.link.loss_prob = 0.2;
  opts.seed = seed;
  opts.max_steps = 5000;
  return opts;
}

TEST(SimRunner, ConvergesOnGoodGadgetAndReportsVirtualTime) {
  const spp::Instance good = spp::good_gadget();
  sim::SimOptions opts;
  opts.model = Model::parse("R1O");
  const sim::SimResult result = sim::run(good, opts);
  EXPECT_EQ(result.run.outcome, engine::Outcome::kConverged);
  EXPECT_GT(result.run.steps, 0u);
  EXPECT_GT(result.virtual_end_us, 0u);
  EXPECT_GE(result.virtual_end_us, result.last_change_us);
  EXPECT_EQ(result.step_time_us.size(), result.run.steps);
  // Step times are non-decreasing.
  for (std::size_t i = 1; i < result.step_time_us.size(); ++i) {
    EXPECT_LE(result.step_time_us[i - 1], result.step_time_us[i]);
  }
  // d never flaps; every other node eventually settled.
  EXPECT_EQ(result.last_flap_us[0], 0u);
  EXPECT_EQ(result.messages_lost, 0u);
}

TEST(SimRunner, DeterministicPerSeedOnBadGadget) {
  const spp::Instance bad = spp::bad_gadget();
  const sim::SimResult a = sim::run(bad, lossy_options("U1O", 7));
  const sim::SimResult b = sim::run(bad, lossy_options("U1O", 7));
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.step_time_us, b.step_time_us);
  EXPECT_EQ(a.run.steps, b.run.steps);
  EXPECT_EQ(a.run.final_assignment, b.run.final_assignment);

  const sim::SimResult c = sim::run(bad, lossy_options("U1O", 8));
  EXPECT_NE(a.to_json(), c.to_json());  // distinct seed, distinct run
}

TEST(SimRunner, InducedStepsAreLegalAcrossTheTaxonomy) {
  // sim::run enforces the model on every induced step (engine::run
  // throws on an illegal one), so completing without a throw is the
  // assertion. Cover every (neighbor, message) shape, both reliabilities.
  const spp::Instance bad = spp::bad_gadget();
  for (const std::string name :
       {"R1O", "R1S", "R1F", "R1A", "RMO", "RMS", "RMF", "RMA", "REO",
        "RES", "REF", "REA", "U1O", "UMS", "UEF", "UEA"}) {
    sim::SimOptions opts;
    opts.model = Model::parse(name);
    opts.link.jitter_us = 700;
    opts.link.dist = sim::LatencyDist::kUniform;
    if (!opts.model.reliable()) {
      opts.link.loss_prob = 0.25;
    }
    opts.max_steps = 800;
    opts.seed = 5;
    EXPECT_NO_THROW(sim::run(bad, opts)) << name;
  }
}

TEST(SimRunner, RejectsLossUnderReliableModels) {
  const spp::Instance good = spp::good_gadget();
  sim::SimOptions opts;
  opts.model = Model::parse("RMS");
  opts.link.loss_prob = 0.1;
  EXPECT_THROW(sim::run(good, opts), PreconditionError);

  opts.link.loss_prob = 0.0;
  opts.link_overrides.push_back({0, sim::LinkModel{.loss_prob = 0.1}});
  EXPECT_THROW(sim::run(good, opts), PreconditionError);

  // The same configurations are accepted under an Unreliable model.
  opts.model = Model::parse("UMS");
  EXPECT_NO_THROW(sim::run(good, opts));
}

TEST(SimRunner, LossyRunsRecordDropsAsGComponents) {
  const spp::Instance bad = spp::bad_gadget();
  const sim::SimResult result = sim::run(bad, lossy_options("U1O", 3));
  EXPECT_GT(result.messages_lost, 0u);
  EXPECT_EQ(result.run.messages_dropped, result.messages_lost);
}

TEST(SimRunner, VirtualTimeBudgetExhausts) {
  const spp::Instance bad = spp::bad_gadget();
  sim::SimOptions opts;
  opts.model = Model::parse("R1O");  // oscillates forever on BAD-GADGET
  opts.max_virtual_us = 50000;
  opts.max_steps = 1000000;
  const sim::SimResult result = sim::run(bad, opts);
  EXPECT_EQ(result.run.outcome, engine::Outcome::kExhausted);
  EXPECT_LT(result.run.steps, 1000000u);
}

TEST(SimRunner, MraiBatchingSpacesActivations) {
  const spp::Instance good = spp::good_gadget();
  sim::SimOptions base;
  base.model = Model::parse("RMS");
  const sim::SimResult fast = sim::run(good, base);

  sim::SimOptions batched = base;
  batched.node.mrai_us = 50000;
  const sim::SimResult slow = sim::run(good, batched);
  EXPECT_EQ(slow.run.outcome, engine::Outcome::kConverged);
  // Batching coalesces arrivals: no more steps than the unbatched run,
  // but far more virtual time between them.
  EXPECT_LE(slow.run.steps, fast.run.steps);
  EXPECT_GT(slow.virtual_end_us, fast.virtual_end_us);
}

TEST(SimRunner, PerChannelOverridesSlowOneLink) {
  const spp::Instance good = spp::good_gadget();
  sim::SimOptions opts;
  opts.model = Model::parse("RMS");
  opts.link.latency_us = 100;
  sim::LinkModel slow;
  slow.latency_us = 500000;
  opts.link_overrides.push_back({0, slow});
  const sim::SimResult result = sim::run(good, opts);
  EXPECT_EQ(result.run.outcome, engine::Outcome::kConverged);
  EXPECT_GE(result.latency_max_us, 500000u);
}

TEST(SimRunner, JsonRoundTrips) {
  const spp::Instance bad = spp::bad_gadget();
  const sim::SimResult result = sim::run(bad, lossy_options("UMS", 11));
  const std::string json = result.to_json();
  const sim::SimResult parsed = sim::SimResult::from_json(json);
  EXPECT_EQ(parsed.run.outcome, result.run.outcome);
  EXPECT_EQ(parsed.run.steps, result.run.steps);
  EXPECT_EQ(parsed.virtual_end_us, result.virtual_end_us);
  EXPECT_EQ(parsed.last_change_us, result.last_change_us);
  EXPECT_EQ(parsed.events_processed, result.events_processed);
  EXPECT_EQ(parsed.run.messages_sent, result.run.messages_sent);
  EXPECT_EQ(parsed.messages_delivered, result.messages_delivered);
  EXPECT_EQ(parsed.messages_lost, result.messages_lost);
  EXPECT_EQ(parsed.latency_samples, result.latency_samples);
  EXPECT_EQ(parsed.latency_sum_us, result.latency_sum_us);
  EXPECT_EQ(parsed.last_flap_us, result.last_flap_us);
  EXPECT_EQ(parsed.to_json(), json);

  EXPECT_THROW(sim::SimResult::from_json("not json"), ParseError);
  EXPECT_THROW(sim::SimResult::from_json("{\"outcome\":\"weird\"}"),
               ParseError);
}

// Integer fields accept only 0 <= x < 2^64: a negative, a fraction or a
// value past 2^64 is rejected with the field's name instead of being
// wrapped, truncated or cast out of range.
TEST(SimRunner, FromJsonRejectsOutOfRangeIntegers) {
  const spp::Instance bad = spp::bad_gadget();
  const std::string json =
      sim::run(bad, lossy_options("UMS", 11)).to_json();
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      sim::SimResult::from_json(text);
    } catch (const ParseError& e) {
      return e.what();
    }
    return "accepted";
  };
  const auto with = [&](const std::string& from, const std::string& to) {
    const std::size_t at = json.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return std::string(json).replace(at, from.size(), to);
  };
  const std::string steps = "\"steps\":" + std::to_string(
      sim::SimResult::from_json(json).run.steps);
  EXPECT_NE(error_of(with(steps, "\"steps\":-5")).find("\"steps\""),
            std::string::npos);
  EXPECT_NE(error_of(with(steps, "\"steps\":2.5")).find("\"steps\""),
            std::string::npos);
  EXPECT_NE(error_of(with("\"last_flap_us\":[", "\"last_flap_us\":[1e30,"))
                .find("\"last_flap_us\""),
            std::string::npos);
  EXPECT_EQ(error_of(json), "accepted");
}

TEST(SimRunner, FlightRecordedRunReplaysByteIdentically) {
  const spp::Instance bad = spp::bad_gadget();
  sim::SimOptions opts = lossy_options("U1O", 21);
  opts.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  opts.flight.instance_name = "BAD-GADGET";
  const sim::SimResult result = sim::run(bad, opts);
  ASSERT_TRUE(result.run.recording.has_value());
  EXPECT_TRUE(result.run.recording->complete());
  EXPECT_EQ(result.run.recording->meta.scheduler, "sim");
  EXPECT_EQ(result.run.recording->meta.seed, 21u);

  std::istringstream in(
      trace::recording_to_jsonl(bad, *result.run.recording));
  const trace::LoadedRecording loaded = trace::load_recording_jsonl(in);
  const trace::ReplayResult replayed = trace::replay_recording(loaded);
  EXPECT_TRUE(replayed.identical);
  EXPECT_FALSE(replayed.divergence.has_value());
  EXPECT_EQ(replayed.steps_replayed, result.run.steps);
  EXPECT_EQ(replayed.trace.states(), result.run.trace.states());
}

TEST(SimRunner, EmitsSimSummaryAndMetrics) {
  const spp::Instance good = spp::good_gadget();
  obs::Registry metrics;
  obs::MemorySink sink;
  sim::SimOptions opts;
  opts.model = Model::parse("R1O");
  opts.obs.metrics = &metrics;
  opts.obs.sink = &sink;
  const sim::SimResult result = sim::run(good, opts);

  EXPECT_EQ(metrics.counter("sim.runs").value(), 1u);
  EXPECT_EQ(metrics.counter("sim.steps").value(), result.run.steps);
  EXPECT_EQ(metrics.counter("sim.events").value(),
            result.events_processed);
  // A run that processed events had queue depth, hence queue bytes.
  EXPECT_GT(result.queue_peak_events, 0u);
  EXPECT_EQ(result.queue_peak_bytes,
            result.queue_peak_events * sizeof(sim::Event));
  EXPECT_EQ(metrics.gauge("sim.queue_peak_events").value(),
            result.queue_peak_events);
  EXPECT_EQ(metrics.gauge("sim.queue_peak_bytes").value(),
            result.queue_peak_bytes);
  bool saw_summary = false;
  for (const std::string& line : sink.lines()) {
    if (line.find("\"type\":\"sim_summary\"") != std::string::npos) {
      saw_summary = true;
      EXPECT_NE(line.find("\"virtual_end_us\""), std::string::npos);
      EXPECT_NE(line.find("\"queue_peak_events\""), std::string::npos);
      EXPECT_EQ(line.find("wall"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_summary);
}

}  // namespace
}  // namespace commroute
