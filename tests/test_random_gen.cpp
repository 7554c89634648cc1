#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spp/random_gen.hpp"
#include "spp/serialize.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace commroute::spp {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

TEST(RandomGen, TreeHasOnePathPerNode) {
  Rng rng(1);
  const Instance inst = random_tree(rng, 8);
  EXPECT_EQ(inst.node_count(), 8u);
  for (NodeId v = 1; v < inst.node_count(); ++v) {
    ASSERT_EQ(inst.permitted(v).size(), 1u);
    EXPECT_EQ(inst.permitted(v)[0].source(), v);
    EXPECT_EQ(inst.permitted(v)[0].destination(), inst.destination());
  }
}

TEST(RandomGen, TreeRejectsTooFewNodes) {
  Rng rng(1);
  EXPECT_THROW(random_tree(rng, 1), PreconditionError);
}

TEST(RandomGen, ShortestRanksByLength) {
  Rng rng(2);
  const Instance inst = random_shortest(rng, {.nodes = 7});
  for (NodeId v = 1; v < inst.node_count(); ++v) {
    const auto& paths = inst.permitted(v);
    ASSERT_FALSE(paths.empty());
    for (std::size_t i = 1; i < paths.size(); ++i) {
      EXPECT_LE(paths[i - 1].size(), paths[i].size());
    }
  }
}

TEST(RandomGen, PolicyGuaranteesAPathPerNode) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = random_policy(rng, {.nodes = 7});
    for (NodeId v = 1; v < inst.node_count(); ++v) {
      EXPECT_FALSE(inst.permitted(v).empty());
    }
  }
}

TEST(RandomGen, RespectsPathCaps) {
  Rng rng(4);
  RandomInstanceParams params;
  params.nodes = 8;
  params.extra_edge_prob = 0.6;
  params.max_paths_per_node = 3;
  const Instance inst = random_policy(rng, params);
  for (NodeId v = 1; v < inst.node_count(); ++v) {
    EXPECT_LE(inst.permitted(v).size(), 3u);
  }
}

TEST(RandomGen, RespectsLengthCap) {
  Rng rng(5);
  RandomInstanceParams params;
  params.nodes = 8;
  params.max_path_len = 3;
  const Instance inst = random_shortest(rng, params);
  for (NodeId v = 1; v < inst.node_count(); ++v) {
    for (const Path& p : inst.permitted(v)) {
      EXPECT_LE(p.size(), 4u);  // max_path_len edges = len+1 nodes
    }
  }
}

TEST(RandomGen, DeterministicGivenSeed) {
  Rng a(99), b(99);
  const Instance ia = random_policy(a, {.nodes = 6});
  const Instance ib = random_policy(b, {.nodes = 6});
  EXPECT_EQ(ia.to_string(), ib.to_string());
}

// Generation is pinned byte for byte: an FNV-1a digest of both graph
// generators' instance text over a grid of sizes, edge probabilities,
// length caps and seeds. A random_policy call whose length cap leaves a
// node without a path throws, and the throw is part of the digest. The
// value was taken from the generator that tested every node pair for an
// existing edge and sorted a fresh neighbor list on every search step.
TEST(RandomGen, GeneratedInstancesArePinned) {
  struct Shape {
    std::size_t nodes;
    double extra_edge_prob;
  };
  std::vector<Shape> shapes;
  for (const std::size_t n : {2, 3, 4, 6, 9, 14, 25}) {
    for (const double p : {0.0, 0.1, 0.3, 0.7}) {
      shapes.push_back({n, p});
    }
  }
  for (const std::size_t n : {100, 400}) {
    for (const double edges : {1.0, 3.0}) {
      shapes.push_back({n, edges / static_cast<double>(n)});
    }
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t combinations = 0;
  std::size_t throws = 0;
  for (const Shape& shape : shapes) {
    for (const std::size_t max_len : {1, 2, 4, 6}) {
      for (const std::uint64_t seed : {1, 7, 23}) {
        RandomInstanceParams params;
        params.nodes = shape.nodes;
        params.extra_edge_prob = shape.extra_edge_prob;
        params.max_path_len = max_len;
        params.max_paths_per_node = 8;
        for (const bool policy : {false, true}) {
          Rng rng(seed);
          std::string text;
          try {
            text = format_instance(policy ? random_policy(rng, params)
                                          : random_shortest(rng, params));
          } catch (const InvariantError&) {
            text = "throw invariant";  // the message names a source line
            ++throws;
          }
          digest = fnv1a(digest, text);
        }
        ++combinations;
      }
    }
  }
  EXPECT_EQ(combinations, 384u);
  EXPECT_EQ(throws, 109u);
  EXPECT_EQ(digest, 12549570366960316371ULL);
}

TEST(RandomGen, InstancesPassValidation) {
  // Construction already validates; exercising many seeds is the test.
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    EXPECT_NO_THROW(random_policy(rng, {.nodes = 6}));
    EXPECT_NO_THROW(random_shortest(rng, {.nodes = 5}));
    EXPECT_NO_THROW(random_tree(rng, 5));
  }
}

}  // namespace
}  // namespace commroute::spp
