#include <gtest/gtest.h>

#include "engine/executor.hpp"
#include "spp/builder.hpp"
#include "spp/gadgets.hpp"

namespace commroute::engine {
namespace {

using model::make_multi_step;
using model::make_step;
using model::poll_all_step;
using model::read_one_step;
using model::ReadSpec;

class ExecutorTest : public ::testing::Test {
 protected:
  spp::Instance inst = spp::disagree();
  NodeId d = inst.graph().node("d");
  NodeId x = inst.graph().node("x");
  NodeId y = inst.graph().node("y");
  NetworkState state{inst};

  void activate_d() {
    execute_step(state, read_one_step(inst, d, x));
  }
};

TEST_F(ExecutorTest, DestinationAnnouncesOnFirstActivation) {
  const StepEffect effect = execute_step(state, read_one_step(inst, d, x));
  EXPECT_EQ(state.assignment(d), Path{d});
  ASSERT_EQ(effect.sent.size(), 2u);  // to x and to y
  for (const SentMessage& m : effect.sent) {
    EXPECT_EQ(inst.path(m.path), Path{d});
  }
  EXPECT_EQ(state.channel(inst.graph().channel(d, x)).size(), 1u);
  EXPECT_EQ(state.channel(inst.graph().channel(d, y)).size(), 1u);
}

TEST_F(ExecutorTest, DestinationDoesNotReannounceUnchanged) {
  activate_d();
  const StepEffect effect = execute_step(state, read_one_step(inst, d, x));
  EXPECT_TRUE(effect.sent.empty());
}

TEST_F(ExecutorTest, NodeLearnsAndAnnouncesRoute) {
  activate_d();
  const StepEffect effect = execute_step(state, read_one_step(inst, x, d));
  EXPECT_EQ(state.assignment(x), inst.parse_path("xd"));
  ASSERT_EQ(effect.nodes.size(), 1u);
  EXPECT_TRUE(effect.nodes[0].changed);
  EXPECT_EQ(effect.nodes[0].selected_from, inst.graph().channel(d, x));
  ASSERT_EQ(effect.sent.size(), 2u);  // announces xd to d and y
  // rho holds the raw announced path, not the extension.
  EXPECT_EQ(state.known(inst.graph().channel(d, x)), Path{d});
}

TEST_F(ExecutorTest, NoAnnouncementWithoutChange) {
  activate_d();
  execute_step(state, read_one_step(inst, x, d));
  // Re-activating x with an empty channel changes nothing and sends
  // nothing.
  const StepEffect effect = execute_step(state, read_one_step(inst, x, d));
  EXPECT_FALSE(effect.nodes[0].changed);
  EXPECT_TRUE(effect.sent.empty());
}

TEST_F(ExecutorTest, ProcessesAtMostAvailableMessages) {
  activate_d();
  // f = 5 on a channel holding 1 message: i = min(5, 1) = 1.
  const ChannelIdx c = inst.graph().channel(d, x);
  const StepEffect effect =
      execute_step(state, make_step(x, {ReadSpec{c, 5u, {}}}));
  ASSERT_EQ(effect.reads.size(), 1u);
  EXPECT_EQ(effect.reads[0].processed, 1u);
  EXPECT_TRUE(effect.reads[0].delivered);
  EXPECT_TRUE(state.channel(c).empty());
}

TEST_F(ExecutorTest, ReadOfEmptyChannelIsANoOp) {
  const ChannelIdx c = inst.graph().channel(y, x);
  const StepEffect effect =
      execute_step(state, make_step(x, {ReadSpec{c, 1u, {}}}));
  EXPECT_EQ(effect.reads[0].processed, 0u);
  EXPECT_FALSE(effect.reads[0].delivered);
  EXPECT_TRUE(state.known(c).empty());
}

TEST_F(ExecutorTest, LastNonDroppedMessageWins) {
  // Put three announcements in (y, x), process all: rho = the last one.
  const ChannelIdx c = inst.graph().channel(y, x);
  state.mutable_channel(c).push(Message{inst.parse_path("yd"), 0});
  state.mutable_channel(c).push(Message{Path::epsilon(), 0});
  state.mutable_channel(c).push(Message{inst.parse_path("yd"), 0});
  const StepEffect effect =
      execute_step(state, make_step(x, {ReadSpec{c, std::nullopt, {}}}));
  EXPECT_EQ(effect.reads[0].processed, 3u);
  EXPECT_EQ(state.known(c), inst.parse_path("yd"));
  EXPECT_EQ(state.assignment(x), inst.parse_path("xyd"));
}

TEST_F(ExecutorTest, DropsSkipMessages) {
  const ChannelIdx c = inst.graph().channel(y, x);
  state.mutable_channel(c).push(Message{inst.parse_path("yd"), 0});
  state.mutable_channel(c).push(Message{Path::epsilon(), 0});
  // Process both but drop the second (the withdrawal): rho = yd.
  const StepEffect effect =
      execute_step(state, make_step(x, {ReadSpec{c, 2u, {2}}}));
  EXPECT_EQ(effect.reads[0].processed, 2u);
  EXPECT_EQ(effect.reads[0].dropped, 1u);
  EXPECT_TRUE(effect.reads[0].delivered);
  EXPECT_EQ(state.known(c), inst.parse_path("yd"));
  EXPECT_TRUE(state.channel(c).empty());  // dropped messages still leave
}

TEST_F(ExecutorTest, AllDroppedKeepsOldKnownRoute) {
  const ChannelIdx c = inst.graph().channel(y, x);
  state.set_known(c, inst.parse_path("yd"));
  state.mutable_channel(c).push(Message{Path::epsilon(), 0});
  const StepEffect effect =
      execute_step(state, make_step(x, {ReadSpec{c, 1u, {1}}}));
  EXPECT_EQ(effect.reads[0].dropped, 1u);
  EXPECT_FALSE(effect.reads[0].delivered);
  EXPECT_EQ(state.known(c), inst.parse_path("yd"));  // rho unchanged
}

TEST_F(ExecutorTest, WithdrawalRemovesRouteAndPropagates) {
  activate_d();
  execute_step(state, read_one_step(inst, x, d));   // x -> xd
  execute_step(state, read_one_step(inst, y, d));   // y -> yd
  execute_step(state, read_one_step(inst, x, y));   // x -> xyd
  ASSERT_EQ(state.assignment(x), inst.parse_path("xyd"));
  // y withdraws (simulate by injecting a withdrawal into (y, x)).
  state.mutable_channel(inst.graph().channel(y, x))
      .push(Message{Path::epsilon(), 0});
  const StepEffect effect = execute_step(state, read_one_step(inst, x, y));
  EXPECT_EQ(state.assignment(x), inst.parse_path("xd"));
  ASSERT_FALSE(effect.sent.empty());
  EXPECT_EQ(inst.path(effect.sent[0].path), inst.parse_path("xd"));
}

TEST_F(ExecutorTest, LosingAllRoutesAnnouncesWithdrawal) {
  activate_d();
  execute_step(state, read_one_step(inst, x, d));
  // Pretend d withdraws.
  state.mutable_channel(inst.graph().channel(d, x))
      .push(Message{Path::epsilon(), 0});
  const StepEffect effect = execute_step(state, read_one_step(inst, x, d));
  EXPECT_TRUE(state.assignment(x).empty());
  ASSERT_EQ(effect.sent.size(), 2u);
  for (const SentMessage& m : effect.sent) {
    EXPECT_EQ(m.path, spp::kEpsilonPath);
  }
}

TEST_F(ExecutorTest, SelectionSkipsLoopingAnnouncements) {
  // y announces yxd; x must not extend it (contains x).
  const ChannelIdx c = inst.graph().channel(y, x);
  state.mutable_channel(c).push(Message{inst.parse_path("yxd"), 0});
  execute_step(state, make_step(x, {ReadSpec{c, 1u, {}}}));
  EXPECT_TRUE(state.assignment(x).empty());
}

TEST_F(ExecutorTest, SelectionPicksMostPreferredAcrossChannels) {
  activate_d();
  state.mutable_channel(inst.graph().channel(y, x))
      .push(Message{inst.parse_path("yd"), 0});
  const StepEffect effect = execute_step(state, poll_all_step(inst, x));
  // Both xd and xyd available: xyd has rank 0.
  EXPECT_EQ(state.assignment(x), inst.parse_path("xyd"));
  EXPECT_EQ(effect.nodes[0].selected_from, inst.graph().channel(y, x));
}

TEST_F(ExecutorTest, MultiNodeStepReadsBeforeAnnouncements) {
  activate_d();
  // x and y update simultaneously, each polling d's channel: neither can
  // see the other's same-step announcement.
  const StepEffect effect = execute_step(
      state,
      make_multi_step({x, y},
                      {ReadSpec{inst.graph().channel(d, x), 1u, {}},
                       ReadSpec{inst.graph().channel(d, y), 1u, {}}}));
  EXPECT_EQ(state.assignment(x), inst.parse_path("xd"));
  EXPECT_EQ(state.assignment(y), inst.parse_path("yd"));
  EXPECT_EQ(effect.nodes.size(), 2u);
  // Each announced after selecting; the cross announcements are now
  // queued but were not visible during the step.
  EXPECT_EQ(state.channel(inst.graph().channel(x, y)).size(), 1u);
  EXPECT_EQ(state.channel(inst.graph().channel(y, x)).size(), 1u);
}

TEST_F(ExecutorTest, EffectReportsOldAndNewAssignments) {
  activate_d();
  const StepEffect effect = execute_step(state, read_one_step(inst, x, d));
  ASSERT_EQ(effect.nodes.size(), 1u);
  EXPECT_EQ(effect.nodes[0].old_assignment, spp::kEpsilonPath);
  EXPECT_EQ(inst.path(effect.nodes[0].new_assignment), inst.parse_path("xd"));
}

TEST_F(ExecutorTest, ReusedEffectMatchesFreshEffect) {
  // The in-place form clears the caller's effect before filling it, so
  // one effect reused across a run reports each step alone.
  const model::ActivationScript script = {
      read_one_step(inst, d, x), read_one_step(inst, y, d),
      read_one_step(inst, x, y), poll_all_step(inst, y),
      read_one_step(inst, x, d), poll_all_step(inst, d)};
  NetworkState fresh_state(inst);
  StepEffect reused;
  for (const model::ActivationStep& step : script) {
    const StepEffect fresh = execute_step(fresh_state, step);
    execute_step(state, step, reused);
    EXPECT_EQ(state, fresh_state);
    ASSERT_EQ(reused.reads.size(), fresh.reads.size());
    for (std::size_t i = 0; i < fresh.reads.size(); ++i) {
      EXPECT_EQ(reused.reads[i].channel, fresh.reads[i].channel);
      EXPECT_EQ(reused.reads[i].processed, fresh.reads[i].processed);
      EXPECT_EQ(reused.reads[i].delivered, fresh.reads[i].delivered);
    }
    ASSERT_EQ(reused.nodes.size(), fresh.nodes.size());
    for (std::size_t i = 0; i < fresh.nodes.size(); ++i) {
      EXPECT_EQ(reused.nodes[i].new_assignment,
                fresh.nodes[i].new_assignment);
      EXPECT_EQ(reused.nodes[i].changed, fresh.nodes[i].changed);
    }
    ASSERT_EQ(reused.sent.size(), fresh.sent.size());
    for (std::size_t i = 0; i < fresh.sent.size(); ++i) {
      EXPECT_EQ(reused.sent[i].channel, fresh.sent[i].channel);
      EXPECT_EQ(reused.sent[i].path, fresh.sent[i].path);
    }
  }
}

TEST_F(ExecutorTest, EpsilonSelectionReportsNoChannel) {
  const StepEffect effect =
      execute_step(state, read_one_step(inst, x, d));
  EXPECT_EQ(effect.nodes[0].selected_from, kNoChannel);
}

}  // namespace
}  // namespace commroute::engine
