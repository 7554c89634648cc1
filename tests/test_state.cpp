#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <unordered_set>

#include "checker/successors.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "engine/state.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"

namespace commroute::engine {
namespace {

class StateTest : public ::testing::Test {
 protected:
  spp::Instance inst = spp::disagree();
  NodeId d = inst.graph().node("d");
  NodeId x = inst.graph().node("x");
  NodeId y = inst.graph().node("y");
};

TEST_F(StateTest, InitialStateMatchesDefinition21) {
  const NetworkState s(inst);
  // pi_d(0) = (d); everything else epsilon.
  EXPECT_EQ(s.assignment(d), Path{d});
  EXPECT_TRUE(s.assignment(x).empty());
  EXPECT_TRUE(s.assignment(y).empty());
  // rho(c; 0) = epsilon; channels empty; nothing exported.
  for (ChannelIdx c = 0; c < inst.graph().channel_count(); ++c) {
    EXPECT_TRUE(s.known(c).empty());
    EXPECT_TRUE(s.channel(c).empty());
    EXPECT_EQ(s.last_exported(c), nullptr);
    EXPECT_EQ(s.exported_id(c), spp::kNoPath);
  }
  EXPECT_TRUE(s.quiescent());
  EXPECT_EQ(s.messages_in_flight(), 0u);
  EXPECT_EQ(s.max_channel_length(), 0u);
}

TEST_F(StateTest, EqualityAndHashCoverAllComponents) {
  NetworkState a(inst), b(inst);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());

  b.set_assignment(x, inst.parse_path("xd"));
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());

  b = NetworkState(inst);
  b.set_known(0, inst.parse_path("xd"));
  EXPECT_FALSE(a == b);

  b = NetworkState(inst);
  b.mutable_channel(0).push(Message{inst.parse_path("xd"), 0});
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());

  b = NetworkState(inst);
  b.set_last_exported(0, Path::epsilon());
  EXPECT_FALSE(a == b);
  b.reset_last_exported(0);
  EXPECT_TRUE(a == b);
}

TEST_F(StateTest, QuiescenceTracksChannels) {
  NetworkState s(inst);
  s.mutable_channel(2).push(Message{inst.parse_path("xd"), 0});
  EXPECT_FALSE(s.quiescent());
  EXPECT_EQ(s.messages_in_flight(), 1u);
  EXPECT_EQ(s.max_channel_length(), 1u);
  s.mutable_channel(2).pop_front();
  EXPECT_TRUE(s.quiescent());
}

TEST_F(StateTest, CopySemantics) {
  NetworkState a(inst);
  a.mutable_channel(1).push(Message{inst.parse_path("yd"), 0});
  NetworkState b = a;
  EXPECT_TRUE(a == b);
  b.mutable_channel(1).pop_front();
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.channel(1).size(), 1u);  // deep copy
}

TEST_F(StateTest, ToStringShowsEveryComponent) {
  NetworkState s(inst);
  const ChannelIdx xy = inst.graph().channel(x, y);
  s.set_assignment(x, inst.parse_path("xd"));
  s.mutable_channel(xy).push(Message{inst.parse_path("xd"), 0});
  s.set_last_exported(xy, inst.parse_path("xd"));
  const std::string out = s.to_string();
  EXPECT_NE(out.find("x=xd"), std::string::npos);
  EXPECT_NE(out.find("x->y=[xd]"), std::string::npos);
  EXPECT_NE(out.find("exported: x->y=xd"), std::string::npos);
}

TEST_F(StateTest, MutatorsRejectPathsOutsideThePathTable) {
  NetworkState s(inst);
  const Path stray{x, y};  // does not end at d: no state can hold it
  const std::vector<std::function<void()>> mutators{
      [&] { s.set_assignment(x, stray); },
      [&] { s.set_known(0, stray); },
      [&] { s.set_last_exported(0, stray); },
      [&] { s.mutable_channel(0).push(Message{stray, 0}); }};
  for (const auto& mutate : mutators) {
    try {
      mutate();
      ADD_FAILURE() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("path xy"), std::string::npos)
          << e.what();
    }
  }
  const auto beyond = static_cast<spp::PathId>(inst.path_count());
  EXPECT_THROW(s.set_assignment_id(x, beyond), PreconditionError);
  EXPECT_THROW(s.set_known_id(0, beyond), PreconditionError);
  EXPECT_THROW(s.set_exported_id(0, beyond), PreconditionError);
  EXPECT_TRUE(s == NetworkState(inst));  // every rejected call left it
}

TEST_F(StateTest, ByteModelKeepsThePointerLayoutUnitCosts) {
  NetworkState s(inst);
  const std::size_t channels = inst.graph().channel_count();
  // 104 + per node a path (24 + 4 per path node; only (d) has one) + per
  // channel a rho path (24), a queue (88) and an export slot (32).
  const std::size_t initial = 104 + 3 * 24 + 4 + channels * (24 + 88 + 32);
  EXPECT_EQ(s.estimated_bytes(), initial);
  const ChannelIdx xy = inst.graph().channel(x, y);
  s.mutable_channel(xy).push(Message{inst.parse_path("xd"), 0});
  s.set_last_exported(xy, inst.parse_path("xd"));
  // A queued message costs 32 + 4 per path node; an export 4 per node.
  EXPECT_EQ(s.channel_usage().bytes, 32u + 2 * 4);
  EXPECT_EQ(s.estimated_bytes(), initial + (32 + 2 * 4) + 2 * 4);
}

/// Renders what equality covers: to_string() plus every message tag.
std::string rendering(const NetworkState& s) {
  std::string out = s.to_string();
  for (ChannelIdx c = 0; c < s.instance().graph().channel_count(); ++c) {
    for (std::size_t i = 0; i < s.channel(c).size(); ++i) {
      out += " " + std::to_string(s.channel(c).tag(i));
    }
  }
  return out;
}

// Over seeded random instances x all 24 models: states reached by
// exploration (duplicates kept) are == exactly when their renderings
// match, and equal states hash equal.
TEST(StateEncoding, EqualityMatchesRenderingOnExploredStates) {
  constexpr std::size_t kStatesPerModel = 120;
  Rng rng(1207);
  for (int trial = 0; trial < 2; ++trial) {
    const spp::Instance inst = spp::random_policy(rng, {.nodes = 4});
    for (const model::Model& m : model::Model::all()) {
      std::vector<NetworkState> reached;
      std::deque<NetworkState> frontier{NetworkState(inst)};
      std::unordered_set<std::string> expanded;
      while (!frontier.empty() && reached.size() < kStatesPerModel) {
        const NetworkState s = std::move(frontier.front());
        frontier.pop_front();
        if (!expanded.insert(s.to_string()).second || strongly_quiescent(s)) {
          continue;
        }
        for (const model::ActivationStep& step :
             checker::enumerate_steps(s, m)) {
          NetworkState next = s;
          execute_step(next, step);
          if (next.max_channel_length() <= 2) {
            reached.push_back(next);
            frontier.push_back(std::move(next));
          }
        }
      }
      std::vector<std::string> renderings;
      for (const NetworkState& s : reached) {
        renderings.push_back(rendering(s));
      }
      EXPECT_GT(reached.size(), 1u) << m.name();
      for (std::size_t i = 0; i < reached.size(); ++i) {
        for (std::size_t j = 0; j < reached.size(); ++j) {
          const bool equal = reached[i] == reached[j];
          ASSERT_EQ(equal, renderings[i] == renderings[j])
              << m.name() << "\n" << renderings[i] << renderings[j];
          if (equal) {
            ASSERT_EQ(reached[i].hash(), reached[j].hash()) << m.name();
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace commroute::engine
