#include "spp/random_gen.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "support/error.hpp"

namespace commroute::spp {

namespace {

std::vector<std::string> make_names(std::size_t nodes) {
  std::vector<std::string> names;
  names.reserve(nodes);
  names.push_back("d");
  for (std::size_t i = 1; i < nodes; ++i) {
    names.push_back("n" + std::to_string(i));
  }
  return names;
}

/// Random connected graph: a random spanning tree (random attachment)
/// plus independent extra edges.
Graph random_connected_graph(Rng& rng, std::size_t nodes,
                             double extra_edge_prob) {
  CR_REQUIRE(nodes >= 2, "need at least two nodes");
  Graph g(make_names(nodes));
  // Random attachment tree keeps the destination reachable from everyone.
  std::vector<NodeId> parent(nodes, kNoNode);
  for (NodeId v = 1; v < nodes; ++v) {
    parent[v] = static_cast<NodeId>(rng.below(v));
    g.add_edge(v, parent[v]);
  }
  // Each pair u < v is visited once, so the only edge it can already
  // have is v's tree edge.
  for (NodeId u = 0; u < nodes; ++u) {
    for (NodeId v = u + 1; v < nodes; ++v) {
      if (parent[v] != u && rng.chance(extra_edge_prob)) {
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

/// What every simple_paths_to search of one graph and destination
/// shares: the neighbor lists in ascending order, and each node's hop
/// distance to d.
struct PathSearch {
  PathSearch(const Graph& g, NodeId d)
      : destination(d),
        neighbors(g.node_count()),
        distance(g.node_count(), kUnreachable) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      neighbors[v] = g.neighbors(v);
      std::sort(neighbors[v].begin(), neighbors[v].end());
    }
    std::queue<NodeId> frontier;
    distance[d] = 0;
    frontier.push(d);
    while (!frontier.empty()) {
      const NodeId at = frontier.front();
      frontier.pop();
      for (const NodeId next : neighbors[at]) {
        if (distance[next] == kUnreachable) {
          distance[next] = distance[at] + 1;
          frontier.push(next);
        }
      }
    }
  }

  static constexpr std::size_t kUnreachable =
      std::numeric_limits<std::size_t>::max() / 2;
  NodeId destination;
  std::vector<std::vector<NodeId>> neighbors;
  std::vector<std::size_t> distance;
};

/// All simple paths from v to the search's destination d with at most
/// `max_len` edges, in lexicographic node order (deterministic). A branch
/// stops where the hop distance to d exceeds the edges left; it could
/// emit nothing, so the output is that of the full search.
std::vector<Path> simple_paths_to(const PathSearch& search, NodeId v,
                                  std::size_t max_len,
                                  std::size_t cap = 512) {
  const NodeId d = search.destination;
  std::vector<Path> out;
  std::vector<NodeId> current{v};
  std::vector<bool> used(search.neighbors.size(), false);
  used[v] = true;

  const auto dfs = [&](auto&& self, NodeId at) -> void {
    if (out.size() >= cap) {
      return;
    }
    if (at == d) {
      out.emplace_back(current);
      return;
    }
    // Stepping to `next` makes current.size() edges.
    for (const NodeId next : search.neighbors[at]) {
      if (used[next] || current.size() + search.distance[next] > max_len) {
        continue;
      }
      used[next] = true;
      current.push_back(next);
      self(self, next);
      current.pop_back();
      used[next] = false;
    }
  };
  dfs(dfs, v);
  return out;
}

/// Ranks by (length, node sequence); shortest-path-like and hence
/// dispute-wheel free.
void sort_by_length(std::vector<Path>& paths) {
  std::sort(paths.begin(), paths.end(), [](const Path& a, const Path& b) {
    if (a.size() != b.size()) {
      return a.size() < b.size();
    }
    return a.nodes() < b.nodes();
  });
}

}  // namespace

Instance random_tree(Rng& rng, std::size_t nodes) {
  CR_REQUIRE(nodes >= 2, "need at least two nodes");
  Graph g(make_names(nodes));
  std::vector<NodeId> parent(nodes, kNoNode);
  for (NodeId v = 1; v < nodes; ++v) {
    parent[v] = static_cast<NodeId>(rng.below(v));
    g.add_edge(v, parent[v]);
  }
  std::vector<std::vector<Path>> permitted(nodes);
  for (NodeId v = 1; v < nodes; ++v) {
    std::vector<NodeId> chain;
    for (NodeId at = v; at != kNoNode; at = parent[at]) {
      chain.push_back(at);
      if (at == 0) {
        break;
      }
    }
    permitted[v] = {Path(std::move(chain))};
  }
  return Instance(std::move(g), 0, std::move(permitted));
}

Instance random_shortest(Rng& rng, const RandomInstanceParams& params) {
  Graph g = random_connected_graph(rng, params.nodes,
                                   params.extra_edge_prob);
  const PathSearch search(g, 0);
  std::vector<std::vector<Path>> permitted(params.nodes);
  for (NodeId v = 1; v < params.nodes; ++v) {
    std::vector<Path> paths =
        simple_paths_to(search, v, params.max_path_len);
    sort_by_length(paths);
    if (paths.size() > params.max_paths_per_node) {
      paths.resize(params.max_paths_per_node);
    }
    permitted[v] = std::move(paths);
  }
  return Instance(std::move(g), 0, std::move(permitted));
}

Instance random_policy(Rng& rng, const RandomInstanceParams& params) {
  Graph g = random_connected_graph(rng, params.nodes,
                                   params.extra_edge_prob);
  const PathSearch search(g, 0);
  std::vector<std::vector<Path>> permitted(params.nodes);
  for (NodeId v = 1; v < params.nodes; ++v) {
    std::vector<Path> paths =
        simple_paths_to(search, v, params.max_path_len);
    sort_by_length(paths);
    CR_ASSERT(!paths.empty(), "connected graph must offer a path to d");
    const Path shortest = paths.front();

    std::vector<Path> kept;
    for (const Path& p : paths) {
      if (p == shortest || rng.chance(params.permit_prob)) {
        kept.push_back(p);
      }
    }
    rng.shuffle(kept);
    if (kept.size() > params.max_paths_per_node) {
      kept.resize(params.max_paths_per_node);
    }
    // Re-guarantee the shortest path survives truncation.
    if (std::find(kept.begin(), kept.end(), shortest) == kept.end()) {
      kept.back() = shortest;
    }
    permitted[v] = std::move(kept);
  }
  return Instance(std::move(g), 0, std::move(permitted));
}

}  // namespace commroute::spp
