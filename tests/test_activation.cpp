#include <gtest/gtest.h>

#include "model/activation.hpp"
#include "spp/gadgets.hpp"
#include "support/error.hpp"

namespace commroute::model {
namespace {

class ActivationTest : public ::testing::Test {
 protected:
  spp::Instance inst = spp::disagree();
  NodeId d = inst.graph().node("d");
  NodeId x = inst.graph().node("x");
  NodeId y = inst.graph().node("y");
};

TEST_F(ActivationTest, ValidateRejectsEmptyU) {
  ActivationStep step;
  EXPECT_THROW(validate_step(inst, step), PreconditionError);
}

TEST_F(ActivationTest, ValidateRejectsUnsortedU) {
  ActivationStep step;
  step.nodes = {y, x};
  EXPECT_THROW(validate_step(inst, step), PreconditionError);
  step.nodes = {x, x};
  EXPECT_THROW(validate_step(inst, step), PreconditionError);
}

TEST_F(ActivationTest, ValidateRejectsForeignChannel) {
  // x updating but reading a channel into y.
  ActivationStep step = make_step(x, {ReadSpec{inst.graph().channel(x, y),
                                               1u,
                                               {}}});
  EXPECT_THROW(validate_step(inst, step), PreconditionError);
}

TEST_F(ActivationTest, ValidateRejectsDuplicateChannel) {
  const ChannelIdx c = inst.graph().channel(y, x);
  ActivationStep step = make_step(x, {ReadSpec{c, 1u, {}},
                                      ReadSpec{c, 1u, {}}});
  EXPECT_THROW(validate_step(inst, step), PreconditionError);
  // Not adjacent in X, and named in the diagnostic.
  step = make_step(x, {ReadSpec{c, 1u, {}},
                       ReadSpec{inst.graph().channel(d, x), 1u, {}},
                       ReadSpec{c, 1u, {}}});
  try {
    validate_step(inst, step);
    FAIL() << "duplicate channel accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate channel in X: " +
                                         inst.graph().channel_name(c)),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ActivationTest, ValidateRejectsBadDropSets) {
  const ChannelIdx c = inst.graph().channel(y, x);
  // Drops with f = 0.
  EXPECT_THROW(
      validate_step(inst, make_step(x, {ReadSpec{c, 0u, {1}}})),
      PreconditionError);
  // Drop index above f.
  EXPECT_THROW(
      validate_step(inst, make_step(x, {ReadSpec{c, 2u, {3}}})),
      PreconditionError);
  // Zero index (drops are 1-based).
  EXPECT_THROW(
      validate_step(inst, make_step(x, {ReadSpec{c, 2u, {0}}})),
      PreconditionError);
  // Unsorted drops.
  EXPECT_THROW(
      validate_step(inst, make_step(x, {ReadSpec{c, 3u, {2, 1}}})),
      PreconditionError);
  // f = infinity allows any indices.
  EXPECT_NO_THROW(
      validate_step(inst, make_step(x, {ReadSpec{c, std::nullopt, {7}}})));
}

TEST_F(ActivationTest, SingleNodeRequiredByDefault) {
  ActivationStep step = make_multi_step({x, y}, {});
  std::string why;
  EXPECT_FALSE(step_allowed(Model::parse("RMS"), inst, step, &why));
  EXPECT_NE(why.find("one updating node"), std::string::npos);
  EXPECT_TRUE(step_allowed(Model::parse("RMS"), inst, step, &why, false));
}

TEST_F(ActivationTest, ReliableModelsRejectDrops) {
  const ChannelIdx c = inst.graph().channel(y, x);
  const ActivationStep step = make_step(x, {ReadSpec{c, 1u, {1}}});
  EXPECT_FALSE(step_allowed(Model::parse("R1O"), inst, step));
  EXPECT_TRUE(step_allowed(Model::parse("U1O"), inst, step));
}

TEST_F(ActivationTest, NeighborModeOne) {
  const Model m = Model::parse("R1O");
  EXPECT_TRUE(step_allowed(m, inst, read_one_step(inst, x, y)));
  EXPECT_FALSE(step_allowed(m, inst, read_every_one_step(inst, x)));
  EXPECT_FALSE(step_allowed(m, inst, make_step(x, {})));
}

TEST_F(ActivationTest, NeighborModeEvery) {
  const Model m = Model::parse("REO");
  EXPECT_TRUE(step_allowed(m, inst, read_every_one_step(inst, x)));
  EXPECT_FALSE(step_allowed(m, inst, read_one_step(inst, x, y)));
}

TEST_F(ActivationTest, NeighborModeMultipleAllowsAnySubset) {
  const Model m = Model::parse("RMO");
  EXPECT_TRUE(step_allowed(m, inst, make_step(x, {})));
  EXPECT_TRUE(step_allowed(m, inst, read_one_step(inst, x, y)));
  EXPECT_TRUE(step_allowed(m, inst, read_every_one_step(inst, x)));
}

TEST_F(ActivationTest, MessageModeOneRequiresExactlyOne) {
  const Model m = Model::parse("R1O");
  const ChannelIdx c = inst.graph().channel(y, x);
  EXPECT_TRUE(step_allowed(m, inst, make_step(x, {ReadSpec{c, 1u, {}}})));
  EXPECT_FALSE(step_allowed(m, inst, make_step(x, {ReadSpec{c, 2u, {}}})));
  EXPECT_FALSE(step_allowed(m, inst, make_step(x, {ReadSpec{c, 0u, {}}})));
  EXPECT_FALSE(
      step_allowed(m, inst, make_step(x, {ReadSpec{c, std::nullopt, {}}})));
}

TEST_F(ActivationTest, MessageModeAllRequiresInfinity) {
  const Model m = Model::parse("R1A");
  const ChannelIdx c = inst.graph().channel(y, x);
  EXPECT_TRUE(
      step_allowed(m, inst, make_step(x, {ReadSpec{c, std::nullopt, {}}})));
  EXPECT_FALSE(step_allowed(m, inst, make_step(x, {ReadSpec{c, 1u, {}}})));
}

TEST_F(ActivationTest, MessageModeForcedRejectsZero) {
  const Model m = Model::parse("R1F");
  const ChannelIdx c = inst.graph().channel(y, x);
  EXPECT_TRUE(step_allowed(m, inst, make_step(x, {ReadSpec{c, 1u, {}}})));
  EXPECT_TRUE(step_allowed(m, inst, make_step(x, {ReadSpec{c, 5u, {}}})));
  EXPECT_TRUE(
      step_allowed(m, inst, make_step(x, {ReadSpec{c, std::nullopt, {}}})));
  EXPECT_FALSE(step_allowed(m, inst, make_step(x, {ReadSpec{c, 0u, {}}})));
}

TEST_F(ActivationTest, MessageModeSomeAllowsEverything) {
  const Model m = Model::parse("R1S");
  const ChannelIdx c = inst.graph().channel(y, x);
  for (const auto count : {std::optional<std::uint32_t>{0u},
                           std::optional<std::uint32_t>{1u},
                           std::optional<std::uint32_t>{7u},
                           std::optional<std::uint32_t>{}}) {
    EXPECT_TRUE(step_allowed(m, inst, make_step(x, {ReadSpec{c, count, {}}})));
  }
}

TEST_F(ActivationTest, ContainmentsOfProp33HoldOnSteps) {
  // Any R1O step is a legal step of R1F, R1S, RMO, U1O (Prop. 3.3).
  const ActivationStep step = read_one_step(inst, x, y);
  for (const char* m : {"R1O", "R1F", "R1S", "RMO", "RMF", "RMS", "U1O"}) {
    EXPECT_TRUE(step_allowed(Model::parse(m), inst, step)) << m;
  }
  // Any REA step is legal in REF, RES, MEA-family and UEA.
  const ActivationStep poll = poll_all_step(inst, x);
  for (const char* m : {"REA", "REF", "RES", "RMA", "RMF", "RMS", "UEA"}) {
    EXPECT_TRUE(step_allowed(Model::parse(m), inst, poll)) << m;
  }
}

TEST_F(ActivationTest, RequireStepAllowedThrowsWithDiagnostic) {
  try {
    require_step_allowed(Model::parse("R1O"), inst,
                         read_every_one_step(inst, x));
    FAIL() << "expected throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("R1O"), std::string::npos);
  }
}

TEST_F(ActivationTest, ToStringShowsQuadruple) {
  const ActivationStep step = read_one_step(inst, x, y, true);
  const std::string s = step.to_string(inst);
  EXPECT_NE(s.find("U={x}"), std::string::npos);
  EXPECT_NE(s.find("y->x"), std::string::npos);
  EXPECT_NE(s.find("f=1"), std::string::npos);
  EXPECT_NE(s.find("g={1}"), std::string::npos);
}

TEST_F(ActivationTest, NodeAccessorRequiresSingleton) {
  EXPECT_EQ(read_one_step(inst, x, y).node(), x);
  EXPECT_THROW(make_multi_step({x, y}, {}).node(), PreconditionError);
}

TEST_F(ActivationTest, MakeMultiStepSortsAndDedupes) {
  const ActivationStep step = make_multi_step({y, x, y}, {});
  ASSERT_EQ(step.nodes.size(), 2u);
  EXPECT_EQ(step.nodes[0], x);
  EXPECT_EQ(step.nodes[1], y);
}

}  // namespace
}  // namespace commroute::model
