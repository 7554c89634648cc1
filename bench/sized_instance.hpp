// The network of the engine and sim perf benches' BySize rows, kept free
// of google-benchmark so that tests pinning per-step costs on the same
// network include this one recipe.
#pragma once

#include <cstddef>
#include <map>

#include "spp/random_gen.hpp"
#include "support/rng.hpp"

namespace commroute::bench {

/// A seeded shortest-path instance with `nodes` nodes, about one edge
/// per node beyond the spanning tree, and at most 8 permitted paths per
/// node. Built once per size.
inline const spp::Instance& sized_instance(std::size_t nodes) {
  static std::map<std::size_t, spp::Instance> instances;
  auto it = instances.find(nodes);
  if (it == instances.end()) {
    Rng rng(42);
    spp::RandomInstanceParams params;
    params.nodes = nodes;
    params.extra_edge_prob = 2.0 / static_cast<double>(nodes);
    params.max_paths_per_node = 8;
    it = instances.emplace(nodes, spp::random_shortest(rng, params)).first;
  }
  return it->second;
}

}  // namespace commroute::bench
