#include <gtest/gtest.h>

#include "spp/builder.hpp"
#include "spp/gadgets.hpp"
#include "spp/instance.hpp"
#include "support/error.hpp"

namespace commroute::spp {
namespace {

TEST(InstanceBuilder, BuildsDisagreeShape) {
  const Instance inst = disagree();
  EXPECT_EQ(inst.node_count(), 3u);
  EXPECT_EQ(inst.graph().edge_count(), 3u);
  EXPECT_EQ(inst.destination(), inst.graph().node("d"));
  EXPECT_EQ(inst.permitted_path_count(), 4u);
}

TEST(InstanceBuilder, DestinationGetsTrivialPath) {
  const Instance inst = disagree();
  const auto& pd = inst.permitted(inst.destination());
  ASSERT_EQ(pd.size(), 1u);
  EXPECT_EQ(pd[0], Path{inst.destination()});
}

TEST(InstanceBuilder, PreferenceOrderBecomesRank) {
  const Instance inst = disagree();
  const NodeId x = inst.graph().node("x");
  EXPECT_EQ(*inst.rank(x, inst.parse_path("xyd")), 0u);
  EXPECT_EQ(*inst.rank(x, inst.parse_path("xd")), 1u);
  EXPECT_FALSE(inst.rank(x, inst.parse_path("yd")).has_value());
}

TEST(InstanceBuilder, RejectsDuplicatePreferenceList) {
  InstanceBuilder b("d");
  b.edge("x", "d");
  b.prefer("x", {"xd"});
  b.prefer("x", {"xd"});
  EXPECT_THROW(b.build(), PreconditionError);
}

TEST(InstanceBuilder, RejectsUnknownNodesInPrefer) {
  InstanceBuilder b("d");
  b.edge("x", "d");
  EXPECT_THROW(b.prefer("z", {"zd"}), PreconditionError);
}

TEST(InstanceValidation, RejectsPathNotStartingAtNode) {
  InstanceBuilder b("d");
  b.edge("x", "d").edge("y", "d");
  b.prefer("x", {"yd"});
  EXPECT_THROW(b.build(), PreconditionError);
}

TEST(InstanceValidation, RejectsPathNotEndingAtDestination) {
  InstanceBuilder b("d");
  b.edge("x", "d").edge("x", "y");
  b.prefer("x", {"xy"});
  EXPECT_THROW(b.build(), PreconditionError);
}

TEST(InstanceValidation, RejectsMissingEdge) {
  InstanceBuilder b("d");
  b.edge("x", "d");
  b.node("y");
  b.edge("y", "d");
  b.prefer("x", {"xyd"});  // edge x-y does not exist
  EXPECT_THROW(b.build(), PreconditionError);
}

TEST(InstanceValidation, RejectsDuplicatePermittedPath) {
  InstanceBuilder b("d");
  b.edge("x", "d");
  b.prefer("x", {"xd", "xd"});
  EXPECT_THROW(b.build(), PreconditionError);
}

TEST(Instance, PrefersIsStrict) {
  const Instance inst = disagree();
  const NodeId x = inst.graph().node("x");
  const Path xyd = inst.parse_path("xyd");
  const Path xd = inst.parse_path("xd");
  EXPECT_TRUE(inst.prefers(x, xyd, xd));
  EXPECT_FALSE(inst.prefers(x, xd, xyd));
  EXPECT_FALSE(inst.prefers(x, xyd, xyd));
  EXPECT_TRUE(inst.prefers(x, xd, Path::epsilon()));
  EXPECT_FALSE(inst.prefers(x, Path::epsilon(), xd));
}

TEST(Instance, BestSelectsLowestRankIgnoringForbidden) {
  const Instance inst = disagree();
  const NodeId x = inst.graph().node("x");
  const Path xyd = inst.parse_path("xyd");
  const Path xd = inst.parse_path("xd");
  EXPECT_EQ(inst.best(x, {xd, xyd}), xyd);
  EXPECT_EQ(inst.best(x, {xd}), xd);
  EXPECT_EQ(inst.best(x, {inst.parse_path("yd")}), Path::epsilon());
  EXPECT_EQ(inst.best(x, {}), Path::epsilon());
}

TEST(Instance, PathNamesCompactForSingleCharNodes) {
  const Instance inst = disagree();
  EXPECT_EQ(inst.path_name(inst.parse_path("xyd")), "xyd");
  EXPECT_EQ(inst.path_name(Path::epsilon()), "(eps)");
}

TEST(Instance, ParsePathSpacedSyntax) {
  const Instance inst = disagree();
  EXPECT_EQ(inst.parse_path("x y d"), inst.parse_path("xyd"));
  EXPECT_EQ(inst.parse_path(""), Path::epsilon());
  EXPECT_EQ(inst.parse_path("(eps)"), Path::epsilon());
  EXPECT_THROW(inst.parse_path("xzd"), ParseError);
}

TEST(Instance, MultiCharNamesUseSeparators) {
  InstanceBuilder b("dst");
  b.edge("n1", "dst");
  b.prefer("n1", {"n1 dst"});
  const Instance inst = b.build();
  EXPECT_EQ(inst.path_name(inst.parse_path("n1 dst")), "n1>dst");
  EXPECT_THROW(inst.parse_path("n1dst"), PreconditionError);
}

TEST(Instance, ParsePathTakesOneNodeNameAsAOneNodePath) {
  InstanceBuilder b("dst");
  b.edge("n1", "dst");
  b.prefer("n1", {"n1 dst"});
  const Instance multi = b.build();
  EXPECT_EQ(multi.parse_path("dst"), Path{multi.graph().node("dst")});
  EXPECT_EQ(multi.parse_path(" n1 "), Path{multi.graph().node("n1")});
  EXPECT_EQ(multi.path_name(multi.parse_path("dst")), "dst");
  EXPECT_THROW(multi.parse_path("n2"), PreconditionError);
  // Single-character names read the same either way.
  const Instance single = disagree();
  EXPECT_EQ(single.parse_path("d"), Path{single.graph().node("d")});
  EXPECT_EQ(single.parse_path("d"), single.parse_path("d "));
  EXPECT_THROW(single.parse_path("z"), ParseError);
}

TEST(Instance, DefaultExportAllowsEverything) {
  const Instance inst = disagree();
  const NodeId x = inst.graph().node("x");
  const NodeId y = inst.graph().node("y");
  EXPECT_TRUE(inst.export_allows(x, y, inst.parse_path("xd")));
}

TEST(Instance, ToStringMentionsEveryNode) {
  const Instance inst = disagree();
  const std::string s = inst.to_string();
  EXPECT_NE(s.find("x:"), std::string::npos);
  EXPECT_NE(s.find("y:"), std::string::npos);
  EXPECT_NE(s.find("xyd"), std::string::npos);
}

}  // namespace
}  // namespace commroute::spp
