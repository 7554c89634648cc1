#include <gtest/gtest.h>

#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "engine/scheduler.hpp"
#include "spp/gadgets.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/recording.hpp"
#include "trace/trace.hpp"

namespace commroute::trace {
namespace {

Assignment asg(const spp::Instance& inst,
               const std::vector<std::string>& paths) {
  Assignment out;
  for (const auto& p : paths) {
    out.push_back(inst.parse_path(p));
  }
  return out;
}

TEST(Trace, RecordsInOrder) {
  const spp::Instance inst = spp::disagree();
  Trace t(asg(inst, {"d", "", ""}));
  t.record(asg(inst, {"d", "xd", ""}));
  t.record(asg(inst, {"d", "xd", "yd"}));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.at(1), asg(inst, {"d", "xd", ""}));
  EXPECT_EQ(t.back(), asg(inst, {"d", "xd", "yd"}));
  EXPECT_THROW(t.at(3), PreconditionError);
}

TEST(Trace, ChangeCountIgnoresStutters) {
  const spp::Instance inst = spp::disagree();
  Trace t(asg(inst, {"d", "", ""}));
  t.record(asg(inst, {"d", "", ""}));
  t.record(asg(inst, {"d", "xd", ""}));
  t.record(asg(inst, {"d", "xd", ""}));
  t.record(asg(inst, {"d", "xd", "yd"}));
  EXPECT_EQ(t.change_count(), 2u);
}

TEST(Trace, CollapsedRemovesConsecutiveDuplicates) {
  const spp::Instance inst = spp::disagree();
  Trace t(asg(inst, {"d", "", ""}));
  t.record(asg(inst, {"d", "", ""}));
  t.record(asg(inst, {"d", "xd", ""}));
  t.record(asg(inst, {"d", "", ""}));
  const auto collapsed = t.collapsed();
  ASSERT_EQ(collapsed.size(), 3u);
  EXPECT_EQ(collapsed[0], asg(inst, {"d", "", ""}));
  EXPECT_EQ(collapsed[1], asg(inst, {"d", "xd", ""}));
  EXPECT_EQ(collapsed[2], asg(inst, {"d", "", ""}));
}

TEST(Trace, SettledDetectsStableSuffix) {
  const spp::Instance inst = spp::disagree();
  Trace t(asg(inst, {"d", "", ""}));
  t.record(asg(inst, {"d", "xd", ""}));
  t.record(asg(inst, {"d", "xd", ""}));
  t.record(asg(inst, {"d", "xd", ""}));
  EXPECT_TRUE(t.settled(3));
  EXPECT_FALSE(t.settled(4));
  EXPECT_THROW(t.settled(0), PreconditionError);
}

TEST(Trace, ToStringRendersColumns) {
  const spp::Instance inst = spp::disagree();
  Trace t(asg(inst, {"d", "", ""}));
  t.record(asg(inst, {"d", "xd", ""}));
  const std::string all = t.to_string(inst);
  EXPECT_NE(all.find("pi_x"), std::string::npos);
  EXPECT_NE(all.find("xd"), std::string::npos);
  const std::string only_x = t.to_string(inst, {"x"});
  EXPECT_NE(only_x.find("pi_x"), std::string::npos);
  EXPECT_EQ(only_x.find("pi_y"), std::string::npos);
}

TEST(Trace, RecordChangesSortsAndDropsNonChanges) {
  const spp::Instance inst = spp::disagree();
  const NodeId x = inst.graph().node("x");
  const NodeId y = inst.graph().node("y");
  Trace t(asg(inst, {"d", "", ""}));
  t.record_changes({{y, inst.parse_path("yd")},
                    {x, inst.parse_path("xd")}});
  t.record_changes({{x, inst.parse_path("xd")}});  // not a change
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.back(), asg(inst, {"d", "xd", "yd"}));
  ASSERT_EQ(t.changes(1).size(), 2u);
  EXPECT_EQ(t.changes(1)[0].node, x);
  EXPECT_TRUE(t.changes(2).empty());
  EXPECT_EQ(t.change_count(), 1u);
  EXPECT_THROW(t.record_changes({{x, Path()}, {x, Path()}}),
               PreconditionError);
  EXPECT_THROW(t.changes(0), PreconditionError);
  EXPECT_THROW(Trace().record_changes({}), PreconditionError);
}

// Every query answers as it would on the plain sequence of assignments,
// including on steps that changed nothing (stutters).
TEST(Trace, DeltaQueriesMatchAFullCopyReference) {
  const spp::Instance inst = spp::bad_gadget();
  const std::size_t n = inst.node_count();
  Rng rng(17);
  std::vector<Assignment> ref;
  ref.push_back(engine::NetworkState(inst).assignments());
  for (int t = 0; t < 300; ++t) {
    Assignment next = ref.back();
    // Half the steps change nothing; the rest reassign one or two nodes
    // (possibly to the path they already hold).
    if (rng.below(2) == 1) {
      for (std::uint64_t k = rng.below(2); k < 2; ++k) {
        const NodeId v = static_cast<NodeId>(rng.below(n));
        const std::size_t options = inst.permitted(v).size() + 1;
        const std::size_t pick = rng.below(options);
        next[v] = pick == 0 ? Path() : inst.permitted(v)[pick - 1];
      }
    }
    ref.push_back(std::move(next));
  }
  // Long stable tail, so settled() has something to find.
  for (int t = 0; t < 5; ++t) {
    ref.push_back(ref.back());
  }

  Trace trace(ref[0]);
  for (std::size_t t = 1; t < ref.size(); ++t) {
    trace.record(ref[t]);
  }
  ASSERT_EQ(trace.size(), ref.size());
  EXPECT_EQ(trace.states(), ref);
  EXPECT_EQ(trace.back(), ref.back());
  std::size_t changes = 0;
  std::vector<Assignment> collapsed{ref[0]};
  for (std::size_t t = 0; t < ref.size(); ++t) {
    EXPECT_EQ(trace.at(t), ref[t]) << "t = " << t;
    if (t > 0 && ref[t] != ref[t - 1]) {
      ++changes;
      collapsed.push_back(ref[t]);
    }
  }
  EXPECT_EQ(trace.change_count(), changes);
  EXPECT_EQ(trace.collapsed(), collapsed);
  for (std::size_t k = 1; k <= ref.size() + 1; ++k) {
    bool settled = k <= ref.size();
    for (std::size_t i = ref.size() - std::min(k, ref.size());
         settled && i < ref.size(); ++i) {
      settled = ref[i] == ref.back();
    }
    EXPECT_EQ(trace.settled(k), settled) << "k = " << k;
  }

  // == agrees with comparing the sequences.
  Trace same(ref[0]);
  for (std::size_t t = 1; t < ref.size(); ++t) {
    same.record(ref[t]);
  }
  EXPECT_EQ(trace, same);
  for (const std::size_t at : {std::size_t{0}, ref.size() / 2}) {
    std::vector<Assignment> edited = ref;
    edited[at][1] = edited[at][1].empty() ? inst.permitted(1)[0] : Path();
    Trace other(edited[0]);
    for (std::size_t t = 1; t < edited.size(); ++t) {
      other.record(edited[t]);
    }
    EXPECT_FALSE(trace == other) << "edited entry " << at;
  }
  Trace shorter(ref[0]);
  for (std::size_t t = 1; t + 1 < ref.size(); ++t) {
    shorter.record(ref[t]);
  }
  EXPECT_FALSE(trace == shorter);
}

// engine::run appends each step's node effects; record_script diffs full
// assignments. On round-robin scripts of both gadgets under every model
// the two must produce the same trace.
TEST(Trace, RunDeltasMatchRecordedDiffsUnderAllModels) {
  for (const spp::Instance& inst : {spp::bad_gadget(), spp::good_gadget()}) {
    for (const model::Model& m : model::Model::all()) {
      engine::RoundRobinScheduler round_robin(m, inst);
      engine::NetworkState state(inst);
      model::ActivationScript script;
      while (script.size() < 120 && !engine::strongly_quiescent(state)) {
        script.push_back(round_robin.next(state));
        engine::execute_step(state, script.back());
      }
      engine::ScriptedScheduler scripted(script);
      engine::RunOptions options;
      options.detect_cycles = false;
      const engine::RunResult run = engine::run(inst, scripted, options);
      const Recording rec = record_script(inst, script);
      ASSERT_EQ(run.steps, script.size()) << m.name();
      EXPECT_EQ(run.trace, rec.trace) << m.name();
      EXPECT_EQ(run.trace.states(), rec.trace.states()) << m.name();
      EXPECT_EQ(run.trace.back(), run.final_assignment) << m.name();
    }
  }
}

TEST(Recording, CapturesStepsEffectsAndFinalState) {
  const spp::Instance inst = spp::disagree();
  const NodeId d = inst.graph().node("d");
  const NodeId x = inst.graph().node("x");
  model::ActivationScript script{model::read_one_step(inst, d, x),
                                 model::read_one_step(inst, x, d)};
  const Recording rec = record_script(inst, script);
  EXPECT_EQ(rec.trace.size(), 3u);
  ASSERT_EQ(rec.steps.size(), 2u);
  EXPECT_EQ(rec.steps[0].step.node(), d);
  EXPECT_EQ(rec.steps[0].effect.sent.size(), 2u);
  EXPECT_EQ(inst.path(rec.steps[1].effect.nodes[0].new_assignment),
            inst.parse_path("xd"));
  EXPECT_EQ(rec.final_state.assignment(x), inst.parse_path("xd"));
}

TEST(Recording, EnforcesModelWhenAsked) {
  const spp::Instance inst = spp::disagree();
  model::ActivationScript script{model::read_every_one_step(
      inst, inst.graph().node("x"))};
  EXPECT_NO_THROW(record_script(inst, script));
  EXPECT_NO_THROW(
      record_script(inst, script, model::Model::parse("REO")));
  EXPECT_THROW(record_script(inst, script, model::Model::parse("R1O")),
               PreconditionError);
}

}  // namespace
}  // namespace commroute::trace
