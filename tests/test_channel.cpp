// The channel views of a NetworkState: FIFO slices of the state's id
// arena, with index and pop-count diagnostics and tag-sensitive equality;
// and the blocked queue offsets behind them, checked against a reference
// model of per-channel deques on both sides of each 64-offset block edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "engine/state.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace commroute::engine {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  spp::Instance inst = spp::disagree();
  Path xd = inst.parse_path("xd");
  Path xyd = inst.parse_path("xyd");
  Path yd = inst.parse_path("yd");
  ChannelIdx c = inst.graph().channel(inst.graph().node("x"),
                                      inst.graph().node("y"));
  NetworkState state{inst};
};

TEST_F(ChannelTest, FifoOrder) {
  state.mutable_channel(c).push(Message{xd, 0});
  state.mutable_channel(c).push(Message{xyd, 0});
  state.mutable_channel(c).push(Message{Path::epsilon(), 0});
  const Channel queue = state.channel(c);
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.path(0), xd);
  EXPECT_EQ(queue.path(2), Path::epsilon());
  state.mutable_channel(c).pop_front();
  EXPECT_EQ(queue.path(0), xyd);  // the view reads the live state
}

TEST_F(ChannelTest, QueuesOfOtherChannelsStayPut) {
  const ChannelIdx other = inst.graph().channel(inst.graph().node("y"),
                                                inst.graph().node("x"));
  state.mutable_channel(other).push(Message{yd, 0});
  state.mutable_channel(c).push(Message{xd, 0});
  state.mutable_channel(other).push(Message{Path::epsilon(), 0});
  state.mutable_channel(c).pop_front();
  EXPECT_TRUE(state.channel(c).empty());
  ASSERT_EQ(state.channel(other).size(), 2u);
  EXPECT_EQ(state.channel(other).path(0), yd);
  EXPECT_EQ(state.messages_in_flight(), 2u);
}

TEST_F(ChannelTest, PopFrontN) {
  for (int i = 0; i < 5; ++i) {
    state.mutable_channel(c).push(Message{i < 3 ? xd : xyd, 0});
  }
  state.mutable_channel(c).pop_front_n(3);
  ASSERT_EQ(state.channel(c).size(), 2u);
  EXPECT_EQ(state.channel(c).path(0), xyd);
  state.mutable_channel(c).pop_front_n(0);
  EXPECT_EQ(state.channel(c).size(), 2u);
  EXPECT_THROW(state.mutable_channel(c).pop_front_n(3), PreconditionError);
}

TEST_F(ChannelTest, PopEmptyThrows) {
  EXPECT_THROW(state.mutable_channel(c).pop_front(), PreconditionError);
}

TEST_F(ChannelTest, EqualityIncludesTags) {
  NetworkState a(inst);
  NetworkState b(inst);
  a.mutable_channel(c).push(Message{xd, 0});
  b.mutable_channel(c).push(Message{xd, 1});
  EXPECT_EQ(b.channel(c).tag(0), 1u);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.to_string(), b.to_string());  // tags are not rendered
  b.mutable_channel(c).set_tag(0, 0);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST_F(ChannelTest, TagsFollowTheirMessages) {
  auto queue = state.mutable_channel(c);
  queue.push(Message{xd, 0});
  queue.push(Message{xyd, 7});
  queue.push(Message{xd, 0});
  queue.pop_front();
  EXPECT_EQ(queue.tag(0), 7u);  // xyd moved to the front with its tag
  EXPECT_EQ(queue.tag(1), 0u);
  queue.pop_front();
  EXPECT_EQ(queue.tag(0), 0u);  // a popped message's tag leaves with it
  NetworkState untagged(inst);
  untagged.mutable_channel(c).push(Message{xd, 0});
  EXPECT_TRUE(state == untagged);
}

TEST_F(ChannelTest, HashTracksContents) {
  NetworkState a(inst);
  NetworkState b(inst);
  EXPECT_EQ(a.hash(), b.hash());
  a.mutable_channel(c).push(Message{xd, 0});
  EXPECT_NE(a.hash(), b.hash());
  b.mutable_channel(c).push(Message{xd, 0});
  EXPECT_EQ(a.hash(), b.hash());
}

TEST_F(ChannelTest, WithdrawalIsEmptyPath) {
  state.mutable_channel(c).push(Message{Path::epsilon(), 0});
  EXPECT_TRUE(state.channel(c).path(0).empty());
  EXPECT_EQ(state.channel(c).id(0), spp::kEpsilonPath);
}

TEST_F(ChannelTest, AtOutOfRangeThrowsWithDiagnostic) {
  state.mutable_channel(c).push(Message{xd, 0});
  EXPECT_NO_THROW(state.channel(c).path(0));
  try {
    state.channel(c).path(1);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    // The diagnostic names the index and the size.
    EXPECT_NE(std::string(e.what()).find("index 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("size 1"), std::string::npos);
  }
  EXPECT_THROW(state.channel(c).tag(1), PreconditionError);
  EXPECT_THROW(state.mutable_channel(c).set_tag(1, 1), PreconditionError);
  EXPECT_THROW(NetworkState(inst).channel(c).id(0), PreconditionError);
  EXPECT_THROW(state.channel(inst.graph().channel_count()),
               PreconditionError);
}

TEST_F(ChannelTest, PopFrontNBeyondSizeThrowsWithDiagnostic) {
  state.mutable_channel(c).push(Message{xd, 0});
  state.mutable_channel(c).push(Message{xyd, 0});
  try {
    state.mutable_channel(c).pop_front_n(3);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("pop_front_n(3)"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("size 2"), std::string::npos);
  }
  EXPECT_EQ(state.channel(c).size(), 2u);  // failed pop left it intact
}

TEST_F(ChannelTest, PushRejectsPathsNoStateCanHold) {
  // yx does not end at the destination, so no state can hold it.
  const Path stray{inst.graph().node("y"), inst.graph().node("x")};
  try {
    state.mutable_channel(c).push(Message{stray, 0});
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("path yx"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(state.mutable_channel(c).push(
                   static_cast<spp::PathId>(inst.path_count())),
               PreconditionError);
  EXPECT_TRUE(state.channel(c).empty());
}

// -- The queue layout against a reference model --------------------------

/// A star: d plus `leaves` nodes, each permitting its one-hop path, so
/// 2 * leaves channels.
spp::Instance star(std::size_t leaves) {
  std::vector<std::string> names{"d"};
  for (std::size_t i = 1; i <= leaves; ++i) {
    names.push_back("n" + std::to_string(i));
  }
  Graph g(std::move(names));
  std::vector<std::vector<Path>> permitted(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) {
    g.add_edge(v, 0);
    permitted[v] = {Path{v, 0}};
  }
  return spp::Instance(std::move(g), 0, std::move(permitted));
}

/// The size of a converge-400 instance: 400 nodes, about 1,600 channels.
spp::Instance converge_sized() {
  Rng rng(5);
  spp::RandomInstanceParams params;
  params.nodes = 400;
  params.extra_edge_prob = 0.005;
  params.max_paths_per_node = 8;
  return spp::random_shortest(rng, params);
}

using Queue = std::deque<std::pair<spp::PathId, std::uint64_t>>;

/// The state `queues` describe, built channel-interleaved from the last
/// channel down: a push order unlike any random operation sequence's.
NetworkState rebuilt(const spp::Instance& inst,
                     const std::vector<Queue>& queues) {
  NetworkState state(inst);
  std::size_t depth = 0;
  for (const Queue& q : queues) {
    depth = std::max(depth, q.size());
  }
  for (std::size_t i = 0; i < depth; ++i) {
    for (std::size_t c = queues.size(); c-- > 0;) {
      if (i < queues[c].size()) {
        const auto& [id, tag] = queues[c][i];
        state.mutable_channel(static_cast<ChannelIdx>(c))
            .push(Message{inst.path(id), tag});
      }
    }
  }
  return state;
}

void expect_matches(const NetworkState& state, const spp::Instance& inst,
                    const std::vector<Queue>& queues, std::size_t op) {
  std::size_t messages = 0;
  std::size_t longest = 0;
  std::size_t path_nodes = 0;
  for (ChannelIdx c = 0; c < queues.size(); ++c) {
    const Queue& q = queues[c];
    const Channel channel = state.channel(c);
    ASSERT_EQ(channel.size(), q.size()) << "channel " << c << " op " << op;
    for (std::size_t i = 0; i < q.size(); ++i) {
      ASSERT_EQ(channel.id(i), q[i].first) << "channel " << c << " op " << op;
      ASSERT_EQ(channel.tag(i), q[i].second)
          << "channel " << c << " op " << op;
      path_nodes += inst.path(q[i].first).size();
    }
    messages += q.size();
    longest = std::max(longest, q.size());
  }
  ASSERT_EQ(state.messages_in_flight(), messages) << "op " << op;
  ASSERT_EQ(state.quiescent(), messages == 0) << "op " << op;
  ASSERT_EQ(state.max_channel_length(), longest) << "op " << op;
  // The byte model: 32 bytes per queued message plus 4 per path node.
  ASSERT_EQ(state.in_flight_bytes(), messages * 32 + path_nodes * 4)
      << "op " << op;
  const NetworkState other = rebuilt(inst, queues);
  ASSERT_TRUE(state == other) << "op " << op;
  ASSERT_EQ(state.hash(), other.hash()) << "op " << op;
}

/// Seeded push / pop_front_n / set_tag sequences, checked after every
/// operation against one std::deque per channel. Half the operations hit
/// channels around the 64-offset block edges, so queues there grow long.
void run_differential(const spp::Instance& inst, std::uint64_t seed,
                      std::size_t ops) {
  const std::size_t channels = inst.graph().channel_count();
  std::vector<ChannelIdx> edges;
  for (const std::size_t c : {0, 1, 2, 61, 62, 63, 64, 65, 125, 126, 127,
                              128, 129}) {
    if (c < channels) {
      edges.push_back(static_cast<ChannelIdx>(c));
    }
  }
  edges.push_back(static_cast<ChannelIdx>(channels - 1));
  Rng rng(seed);
  NetworkState state(inst);
  std::vector<Queue> queues(channels);
  for (std::size_t op = 0; op < ops; ++op) {
    const ChannelIdx c =
        rng.chance(0.5)
            ? edges[static_cast<std::size_t>(rng.below(edges.size()))]
            : static_cast<ChannelIdx>(rng.below(channels));
    Queue& q = queues[c];
    MutableChannel channel = state.mutable_channel(c);
    const std::uint64_t kind = rng.below(10);
    if (kind < 5) {
      const auto id = static_cast<spp::PathId>(rng.below(inst.path_count()));
      const std::uint64_t tag = rng.chance(0.2) ? 1 + rng.below(9) : 0;
      if (tag == 0 && rng.chance(0.5)) {
        channel.push(id);
      } else {
        channel.push(Message{inst.path(id), tag});
      }
      q.emplace_back(id, tag);
    } else if (kind < 8) {
      const auto n = static_cast<std::size_t>(rng.below(q.size() + 1));
      channel.pop_front_n(n);
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(n));
    } else if (!q.empty()) {
      const auto i = static_cast<std::size_t>(rng.below(q.size()));
      const std::uint64_t tag = rng.chance(0.5) ? 0 : 1 + rng.below(9);
      channel.set_tag(i, tag);
      q[i].second = tag;
    }
    expect_matches(state, inst, queues, op);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(QueueLayout, MatchesReferenceAroundBlockEdges) {
  for (const std::size_t leaves : {31, 32, 63, 64}) {
    const spp::Instance inst = star(leaves);
    ASSERT_EQ(inst.graph().channel_count(), 2 * leaves);
    SCOPED_TRACE(std::to_string(2 * leaves) + " channels");
    run_differential(inst, leaves, 3000);
  }
}

TEST(QueueLayout, MatchesReferenceAtConvergeSize) {
  const spp::Instance inst = converge_sized();
  ASSERT_GT(inst.graph().channel_count(), 1500u);
  run_differential(inst, 11, 1500);
}

}  // namespace
}  // namespace commroute::engine
