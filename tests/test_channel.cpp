// The channel views of a NetworkState: FIFO slices of the state's id
// arena, with index and pop-count diagnostics and tag-sensitive equality.
#include <gtest/gtest.h>

#include "engine/state.hpp"
#include "spp/gadgets.hpp"
#include "support/error.hpp"

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

}  // namespace
}  // namespace commroute::engine
