// Tests for the event-driven scheduler, schedulers on nodes without
// in-channels, and run statistics.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "engine/scheduler.hpp"
#include "model/multi.hpp"
#include "sim/sim_runner.hpp"
#include "spp/builder.hpp"
#include "spp/gadgets.hpp"
#include "spp/serialize.hpp"
#include "study/campaign.hpp"

namespace commroute::engine {
namespace {

using model::Model;

TEST(EventDriven, StepsAreLegalInR1O) {
  const spp::Instance inst = spp::example_a2();
  EventDrivenScheduler sched(inst);
  NetworkState state(inst);
  for (int i = 0; i < 200; ++i) {
    const auto step = sched.next(state);
    model::require_step_allowed(Model::parse("R1O"), inst, step);
    execute_step(state, step);
  }
}

TEST(EventDriven, ConvergesOnSafeInstances) {
  for (const auto& make : {spp::good_gadget, spp::example_a3,
                           spp::example_a5}) {
    const spp::Instance inst = make();
    EventDrivenScheduler sched(inst);
    const auto run = engine::run(inst, sched, {.max_steps = 5000});
    EXPECT_EQ(run.outcome, Outcome::kConverged);
  }
}

TEST(EventDriven, TriggersTheDestinationsFirstAnnouncement) {
  const spp::Instance inst = spp::good_gadget();
  EventDrivenScheduler sched(inst);
  NetworkState state(inst);
  // All channels start empty: the idle rotation must reach d and fire its
  // announcement within one pass over the nodes.
  std::size_t steps = 0;
  while (state.messages_in_flight() == 0 && steps < inst.node_count()) {
    execute_step(state, sched.next(state));
    ++steps;
  }
  EXPECT_GT(state.messages_in_flight(), 0u);
}

TEST(EventDriven, ServesMessagesPromptly) {
  // Once messages exist, every step consumes one until drained.
  const spp::Instance inst = spp::good_gadget();
  EventDrivenScheduler sched(inst);
  NetworkState state(inst);
  const auto run_until_messages = [&] {
    while (state.messages_in_flight() == 0) {
      execute_step(state, sched.next(state));
    }
  };
  run_until_messages();
  const std::size_t before = state.messages_in_flight();
  const auto step = sched.next(state);
  const StepEffect effect = execute_step(state, step);
  ASSERT_EQ(effect.reads.size(), 1u);
  EXPECT_EQ(effect.reads[0].processed, 1u);
  EXPECT_LE(state.messages_in_flight(), before + effect.sent.size());
}

TEST(EventDriven, HasASignatureForCycleDetection) {
  const spp::Instance inst = spp::disagree();
  EventDrivenScheduler sched(inst);
  EXPECT_TRUE(sched.signature().has_value());
}

TEST(MultiNodeRandom, StepsAreLegalUnrestrictedSteps) {
  const spp::Instance inst = spp::example_a2();
  for (const char* base : {"R1A", "RMS", "REO", "U1O"}) {
    const model::ExtendedModel m =
        model::ExtendedModel::parse(std::string("multi-") + base);
    MultiNodeRandomScheduler sched(Model::parse(base), inst,
                                   Rng(11), 0.5, 16);
    NetworkState state(inst);
    for (int i = 0; i < 150; ++i) {
      const auto step = sched.next(state);
      model::require_extended_step_allowed(m, inst, step);
      execute_step(state, step);
    }
  }
}

TEST(MultiNodeRandom, ConvergesOnSafeInstances) {
  const spp::Instance inst = spp::good_gadget();
  for (const char* base : {"RMS", "REA"}) {
    MultiNodeRandomScheduler sched(Model::parse(base), inst, Rng(5));
    const auto run = engine::run(inst, sched, {.max_steps = 5000});
    EXPECT_EQ(run.outcome, Outcome::kConverged) << base;
  }
}

TEST(MultiNodeRandom, SweepCoversEveryChannelOverTime) {
  const spp::Instance inst = spp::disagree();
  MultiNodeRandomScheduler sched(Model::parse("R1O"), inst, Rng(2),
                                 /*node_prob=*/0.0, /*sweep_period=*/2);
  NetworkState state(inst);
  std::vector<bool> attempted(inst.graph().channel_count(), false);
  for (int i = 0; i < 40; ++i) {
    const auto step = sched.next(state);
    for (const auto& read : step.reads) {
      attempted[read.channel] = true;
    }
    execute_step(state, step);
  }
  for (ChannelIdx c = 0; c < inst.graph().channel_count(); ++c) {
    EXPECT_TRUE(attempted[c]) << inst.graph().channel_name(c);
  }
}

TEST(RunStats, NodeActivationsSumToStepsForSingleNodeSchedules) {
  const spp::Instance inst = spp::good_gadget();
  RoundRobinScheduler sched(Model::parse("RMS"), inst);
  const auto run = engine::run(inst, sched);
  ASSERT_EQ(run.node_activations.size(), inst.node_count());
  const std::uint64_t total = std::accumulate(
      run.node_activations.begin(), run.node_activations.end(),
      std::uint64_t{0});
  EXPECT_EQ(total, run.steps);
}

TEST(RunStats, SynchronousActivationsCountEveryNodePerStep) {
  const spp::Instance inst = spp::good_gadget();
  SynchronousScheduler sched(Model::parse("REA"), inst);
  const auto run = engine::run(inst, sched, {.max_steps = 1000});
  ASSERT_EQ(run.outcome, Outcome::kConverged);
  for (const std::uint64_t count : run.node_activations) {
    EXPECT_EQ(count, run.steps);
  }
}

TEST(RunStats, ChannelOccupancyHighWaterMark) {
  const spp::Instance inst = spp::disagree();
  RoundRobinScheduler sched(Model::parse("RMS"), inst);
  const auto run = engine::run(inst, sched);
  EXPECT_GE(run.max_channel_occupancy, 1u);
  EXPECT_LE(run.max_channel_occupancy, 8u);
}

// -- Nodes without in-channels ---------------------------------------------

/// Forwards to `inner` and checks every step it produces against `m`.
class CheckedScheduler final : public Scheduler {
 public:
  CheckedScheduler(Scheduler& inner, const Model& m,
                   const spp::Instance& instance, bool single_node)
      : inner_(&inner), m_(m), instance_(&instance),
        single_node_(single_node) {}

  model::ActivationStep next(const NetworkState& state) override {
    model::ActivationStep step = inner_->next(state);
    model::require_step_allowed(m_, *instance_, step, single_node_);
    ++steps;
    return step;
  }
  void on_step(const StepEffect& effect) override { inner_->on_step(effect); }
  std::optional<std::uint64_t> signature() const override {
    return inner_->signature();
  }

  std::size_t steps = 0;

 private:
  Scheduler* inner_;
  Model m_;
  const spp::Instance* instance_;
  bool single_node_;
};

std::unique_ptr<Scheduler> make_scheduler(study::SchedulerKind kind,
                                          const Model& m,
                                          const spp::Instance& inst) {
  switch (kind) {
    case study::SchedulerKind::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>(m, inst);
    case study::SchedulerKind::kRandomFair:
      return std::make_unique<RandomFairScheduler>(
          m, inst, Rng(7),
          RandomFairOptions{.drop_prob = m.reliable() ? 0.0 : 0.2,
                            .sweep_period = 16});
    case study::SchedulerKind::kSynchronous:
      return std::make_unique<SynchronousScheduler>(m, inst);
    case study::SchedulerKind::kEventDriven:
      return std::make_unique<EventDrivenScheduler>(inst);
    case study::SchedulerKind::kSim:
      break;
  }
  return nullptr;
}

/// Runs `inst` under every scheduler kind `m` allows, plus the multi-node
/// random scheduler: a run (cycle detection on where the scheduler has a
/// signature), and next() straight from the initial state, since a run
/// of an already quiescent instance takes no step.
void expect_legal_steps(const spp::Instance& inst) {
  for (const Model& m : Model::all()) {
    SCOPED_TRACE(m.name());
    for (const study::SchedulerKind kind :
         {study::SchedulerKind::kRoundRobin,
          study::SchedulerKind::kRandomFair,
          study::SchedulerKind::kSynchronous,
          study::SchedulerKind::kEventDriven}) {
      if (kind == study::SchedulerKind::kEventDriven &&
          !EventDrivenScheduler::allows(m)) {
        continue;  // as study::run_campaign skips it
      }
      SCOPED_TRACE(study::to_string(kind));
      const bool single = kind != study::SchedulerKind::kSynchronous;
      const std::unique_ptr<Scheduler> inner = make_scheduler(kind, m, inst);
      CheckedScheduler checked(*inner, m, inst, single);
      engine::run(inst, checked, {.max_steps = 300});
      const std::unique_ptr<Scheduler> fresh = make_scheduler(kind, m, inst);
      CheckedScheduler direct(*fresh, m, inst, single);
      const NetworkState initial(inst);
      for (int i = 0; i < 40; ++i) {
        direct.next(initial);
      }
    }
    MultiNodeRandomScheduler multi(m, inst, Rng(3), 0.5, 4);
    CheckedScheduler checked(multi, m, inst, /*single_node=*/false);
    engine::run(inst, checked, {.max_steps = 300});
    const NetworkState initial(inst);
    for (int i = 0; i < 40; ++i) {
      checked.next(initial);
    }
    // kSim: sim::run checks every induced step against the model.
    sim::SimOptions opts;
    opts.model = m;
    opts.max_steps = 300;
    sim::run(inst, opts);
  }
}

TEST(NoInChannel, UnreachedPairTakesOnlyLegalSteps) {
  // d has no in-channel: a synchronous 1-neighbor period once divided by
  // zero, and an idle event-driven rotation read front() of nothing.
  expect_legal_steps(spp::parse_instance("dest d\nedge x y\n"));
}

TEST(NoInChannel, IsolatedNodeBesideDisagreeTakesOnlyLegalSteps) {
  spp::InstanceBuilder b("d");
  b.edge("x", "d").edge("y", "d").edge("x", "y").node("z");
  b.prefer("x", {"xyd", "xd"});
  b.prefer("y", {"yxd", "yd"});
  const spp::Instance inst = b.build();
  expect_legal_steps(inst);
  // The isolated node never updates under a 1-neighbor model.
  const NodeId z = inst.graph().node("z");
  RandomFairScheduler sched(Model::parse("R1O"), inst, Rng(1));
  const RunResult run = engine::run(inst, sched, {.max_steps = 400});
  EXPECT_EQ(run.node_activations[z], 0u);
  SynchronousScheduler sync(Model::parse("R1O"), inst);
  EXPECT_EQ(sync.period(), 2u);
}

}  // namespace
}  // namespace commroute::engine
