#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "engine/runner.hpp"
#include "obs/obs.hpp"
#include "spp/gadgets.hpp"
#include "spp/solver.hpp"
#include "test_util.hpp"

namespace commroute::engine {
namespace {

using model::Model;

TEST(Runner, GoodGadgetConvergesUnderRoundRobin) {
  const spp::Instance inst = spp::good_gadget();
  for (const Model& m : Model::all()) {
    RoundRobinScheduler sched(m, inst);
    const RunResult result = run(inst, sched, {.enforce_model = m});
    EXPECT_EQ(result.outcome, Outcome::kConverged) << m.name();
    EXPECT_TRUE(spp::is_solution(inst, result.final_assignment))
        << m.name();
  }
}

TEST(Runner, ConvergedResultIsTheUniqueSolution) {
  const spp::Instance inst = spp::good_gadget();
  const auto sols = spp::stable_assignments(inst);
  ASSERT_EQ(sols.size(), 1u);
  RoundRobinScheduler sched(Model::parse("RMS"), inst);
  const RunResult result = run(inst, sched);
  EXPECT_EQ(result.final_assignment, sols[0]);
}

TEST(Runner, DisagreeOscillatesUnderTheA1Script) {
  const spp::Instance inst = spp::disagree();
  const auto [script, loop_from] =
      testutil::disagree_r1o_oscillation(inst);
  ScriptedScheduler sched(script, loop_from);
  const RunResult result =
      run(inst, sched, {.enforce_model = Model::parse("R1O")});
  EXPECT_EQ(result.outcome, Outcome::kOscillating);
  EXPECT_GT(result.cycle_length, 0u);
  // The oscillation changes x's and y's assignments within the cycle.
  EXPECT_GT(result.trace.change_count(), 4u);
}

TEST(Runner, BadGadgetNeverConverges) {
  const spp::Instance inst = spp::bad_gadget();
  for (const char* name : {"R1O", "RMS", "REA", "UMS"}) {
    RoundRobinScheduler sched(Model::parse(name), inst);
    const RunResult result = run(inst, sched, {.max_steps = 3000});
    EXPECT_NE(result.outcome, Outcome::kConverged) << name;
  }
}

TEST(Runner, ScriptExhaustionStopsTheRun) {
  const spp::Instance inst = spp::disagree();
  model::ActivationScript script{model::read_one_step(
      inst, inst.graph().node("d"), inst.graph().node("x"))};
  ScriptedScheduler sched(script);
  const RunResult result = run(inst, sched);
  EXPECT_EQ(result.outcome, Outcome::kExhausted);
  EXPECT_EQ(result.steps, 1u);
}

TEST(Runner, TraceRecordsInitialAndEveryStep) {
  const spp::Instance inst = spp::good_gadget();
  RoundRobinScheduler sched(Model::parse("REA"), inst);
  const RunResult result = run(inst, sched);
  EXPECT_EQ(result.trace.size(), result.steps + 1);
  EXPECT_EQ(result.trace.back(), result.final_assignment);
}

TEST(Runner, TraceRecordingCanBeDisabled) {
  const spp::Instance inst = spp::good_gadget();
  RoundRobinScheduler sched(Model::parse("REA"), inst);
  const RunResult result = run(inst, sched, {.record_trace = false});
  EXPECT_TRUE(result.trace.empty());
}

TEST(Runner, StronglyQuiescentRequiresPendingAnnouncements) {
  const spp::Instance inst = spp::disagree();
  const NetworkState initial(inst);
  // Channels are empty initially, but d's first announcement is pending.
  EXPECT_TRUE(initial.quiescent());
  EXPECT_FALSE(strongly_quiescent(initial));
}

TEST(Runner, CountsMessages) {
  const spp::Instance inst = spp::good_gadget();
  RoundRobinScheduler sched(Model::parse("RMS"), inst);
  const RunResult result = run(inst, sched);
  EXPECT_GT(result.messages_sent, 0u);
  EXPECT_EQ(result.messages_dropped, 0u);
  // Messages flowed, so the in-flight byte peak is nonzero and at
  // least one Message struct per message at peak occupancy.
  EXPECT_GT(result.max_channel_occupancy, 0u);
  EXPECT_GE(result.peak_channel_bytes,
            result.max_channel_occupancy * sizeof(engine::Message));

  // Byte estimates derive from element counts: a rerun is identical.
  RoundRobinScheduler again_sched(Model::parse("RMS"), inst);
  const RunResult again = run(inst, again_sched);
  EXPECT_EQ(again.peak_channel_bytes, result.peak_channel_bytes);
}

TEST(Runner, RandomFairConvergesOnSafeInstanceAllModels) {
  const spp::Instance inst = spp::good_gadget();
  for (const Model& m : Model::all()) {
    RandomFairScheduler sched(m, inst, Rng(m.index()),
                              {.drop_prob = 0.2, .sweep_period = 8});
    const RunResult result =
        run(inst, sched, {.max_steps = 5000, .enforce_model = m});
    EXPECT_EQ(result.outcome, Outcome::kConverged) << m.name();
    EXPECT_TRUE(spp::is_solution(inst, result.final_assignment))
        << m.name();
    EXPECT_EQ(result.outstanding_drops, 0u) << m.name();
  }
}

TEST(Runner, ModelEnforcementRejectsIllegalScript) {
  const spp::Instance inst = spp::disagree();
  model::ActivationScript script{model::read_every_one_step(
      inst, inst.graph().node("x"))};
  ScriptedScheduler sched(script);
  EXPECT_THROW(run(inst, sched, {.enforce_model = Model::parse("R1O")}),
               PreconditionError);
}

TEST(Runner, FaultHookRequiresTheTrace) {
  // A faulted step's changes are diffed against the trace's last pi.
  struct NoFaults : FaultHook {
    void bind(NetworkState*) override {}
    bool pending() const override { return false; }
    std::vector<AppliedFault> drain_applied() override { return {}; }
  } hook;
  const spp::Instance inst = spp::good_gadget();
  RoundRobinScheduler sched(Model::parse("R1O"), inst);
  EXPECT_THROW(
      run(inst, sched, {.record_trace = false, .fault_hook = &hook}),
      PreconditionError);
  EXPECT_EQ(run(inst, sched, {.fault_hook = &hook}).outcome,
            Outcome::kConverged);
}

TEST(Runner, OutcomeToString) {
  EXPECT_EQ(to_string(Outcome::kConverged), "converged");
  EXPECT_EQ(to_string(Outcome::kOscillating), "oscillating");
  EXPECT_EQ(to_string(Outcome::kExhausted), "exhausted");
}

TEST(Runner, OutcomeNamesRoundTrip) {
  for (const Outcome o : {Outcome::kConverged, Outcome::kOscillating,
                          Outcome::kExhausted}) {
    const auto parsed = outcome_from_string(to_string(o));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, o);
  }
  EXPECT_FALSE(outcome_from_string("diverged").has_value());
  EXPECT_FALSE(outcome_from_string("").has_value());
}

TEST(Runner, CycleDetectionFlagTracksSchedulerSignature) {
  const spp::Instance inst = spp::good_gadget();
  const Model m = Model::parse("RMS");

  RoundRobinScheduler rr(m, inst);
  const RunResult with_signature = run(inst, rr, {.enforce_model = m});
  EXPECT_TRUE(with_signature.cycle_detection);

  RandomFairScheduler random(m, inst, Rng(1), {.sweep_period = 8});
  const RunResult without = run(inst, random, {.enforce_model = m});
  EXPECT_FALSE(without.cycle_detection);

  RoundRobinScheduler rr2(m, inst);
  const RunResult disabled =
      run(inst, rr2, {.detect_cycles = false, .enforce_model = m});
  EXPECT_FALSE(disabled.cycle_detection);
}

TEST(Runner, SignaturelessSchedulerPublishesDisabledGaugeAndEvent) {
  const spp::Instance inst = spp::good_gadget();
  const Model m = Model::parse("RMS");
  obs::Registry metrics;
  obs::MemorySink sink;
  RunOptions options;
  options.enforce_model = m;
  options.obs.metrics = &metrics;
  options.obs.sink = &sink;

  RandomFairScheduler random(m, inst, Rng(2), {.sweep_period = 8});
  run(inst, random, options);
  EXPECT_EQ(metrics.gauge("engine.cycle_detection_disabled").value(), 1u);
  bool saw_event = false;
  for (const std::string& line : sink.lines()) {
    if (line.find("\"type\":\"cycle_detection_disabled\"") !=
        std::string::npos) {
      saw_event = true;
      EXPECT_NE(line.find("scheduler has no signature"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_event);

  // A scheduler with a signature publishes neither.
  obs::Registry clean_metrics;
  obs::MemorySink clean_sink;
  options.obs.metrics = &clean_metrics;
  options.obs.sink = &clean_sink;
  RoundRobinScheduler rr(m, inst);
  const RunResult detected = run(inst, rr, options);
  EXPECT_TRUE(detected.cycle_detection);
  for (const std::string& line : clean_sink.lines()) {
    EXPECT_EQ(line.find("cycle_detection_disabled"), std::string::npos);
  }
}

TEST(Runner, OutcomeStringsRoundTripExhaustively) {
  // Every enumerator survives to_string -> outcome_from_string, and the
  // names stay distinct (recordings and campaign CSVs store them).
  const Outcome all[] = {Outcome::kConverged, Outcome::kOscillating,
                         Outcome::kExhausted};
  std::set<std::string> names;
  for (const Outcome outcome : all) {
    const std::string name = to_string(outcome);
    names.insert(name);
    const std::optional<Outcome> back = outcome_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, outcome) << name;
  }
  EXPECT_EQ(names.size(), std::size(all));
  EXPECT_FALSE(outcome_from_string("").has_value());
  EXPECT_FALSE(outcome_from_string("Converged").has_value());
  EXPECT_FALSE(outcome_from_string("diverged").has_value());
}

}  // namespace
}  // namespace commroute::engine
