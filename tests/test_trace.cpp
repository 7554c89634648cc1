#include <gtest/gtest.h>

#include "spp/gadgets.hpp"
#include "support/error.hpp"
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
