// Stable Paths Problem (SPP) instances — Sec. 2.1 of the paper.
//
// An instance is an undirected graph with a distinguished destination d
// and, per node v, a ranked list of permitted paths P_v (rank 0 = most
// preferred; lower rank = more preferred, like cost). The destination's
// only permitted path is the trivial path (d).
//
// Instances are immutable once built (see spp/builder.hpp).
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/graph.hpp"
#include "core/path.hpp"
#include "support/error.hpp"

namespace commroute::spp {

/// Rank of a permitted path at a node; lower is more preferred.
using Rank = std::uint32_t;

/// Dense id of a path a network state can hold (engine::NetworkState):
/// epsilon is 0, then every node's permitted paths in node order, most
/// preferred first — so among one node's paths the id grows with rank.
using PathId = std::uint32_t;
inline constexpr PathId kEpsilonPath = 0;
/// "No path", e.g. nothing exported on a channel yet.
inline constexpr PathId kNoPath = static_cast<PathId>(-1);

/// Export-policy hook: step 4 of Def. 2.3 writes pi_v(t) to channel (v, u)
/// only "if prescribed by export policy". The default permits everything;
/// the BGP substrate installs Gao-Rexford export rules.
class ExportPolicy {
 public:
  virtual ~ExportPolicy() = default;

  /// May `from` announce `path` (its current assignment; never epsilon)
  /// to its neighbor `to`? When this returns false the neighbor receives
  /// a withdrawal instead.
  virtual bool allows(const Graph& graph, NodeId from, NodeId to,
                      const Path& path) const = 0;
};

/// Default export policy: announce everything to everyone.
class AllowAllExport final : public ExportPolicy {
 public:
  bool allows(const Graph&, NodeId, NodeId, const Path&) const override {
    return true;
  }
};

/// An immutable SPP instance.
class Instance {
 public:
  /// Builds and validates an instance. `permitted[v]` lists v's permitted
  /// paths most-preferred first; the entry for the destination must be
  /// empty or the single trivial path. Throws PreconditionError on any
  /// malformed input (non-simple paths, wrong endpoints, missing edges,
  /// duplicates).
  Instance(Graph graph, NodeId destination,
           std::vector<std::vector<Path>> permitted,
           std::shared_ptr<const ExportPolicy> export_policy = nullptr);

  const Graph& graph() const { return graph_; }
  NodeId destination() const { return destination_; }
  std::size_t node_count() const { return graph_.node_count(); }

  /// v's permitted paths, most-preferred first. For the destination this
  /// is the single trivial path (d).
  const std::vector<Path>& permitted(NodeId v) const;

  /// Rank of `p` at `v`, or nullopt if not permitted.
  std::optional<Rank> rank(NodeId v, const Path& p) const;

  bool is_permitted(NodeId v, const Path& p) const;

  /// True when `a` is strictly preferred to `b` at `v`. Both paths must be
  /// permitted at v; epsilon is less preferred than any permitted path and
  /// equal to itself.
  bool prefers(NodeId v, const Path& a, const Path& b) const;

  /// Best (lowest-rank) permitted path among `candidates`; epsilon if none
  /// is permitted. Non-permitted candidates are ignored.
  Path best(NodeId v, const std::vector<Path>& candidates) const;

  /// Export policy accessor (never null).
  const ExportPolicy& export_policy() const { return *export_policy_; }

  /// Shared ownership of the export policy, for derived instances
  /// (e.g. scenario perturbations) that keep the policy but change the
  /// ranking.
  std::shared_ptr<const ExportPolicy> export_policy_ptr() const {
    return export_policy_;
  }

  /// Whether `from` may export `path` to `to`.
  bool export_allows(NodeId from, NodeId to, const Path& path) const;

  /// Renders a path with symbolic node names: "xyd" when every node name
  /// is a single character, "x>y>d" otherwise; epsilon renders as "(eps)".
  std::string path_name(const Path& p) const;

  /// Parses a path from symbolic names: whitespace-separated names
  /// ("x y d"), one node's name ("d", "n12"), or, when every node name is
  /// a single character, a compact string ("xyd"). Throws ParseError on
  /// unknown names.
  Path parse_path(const std::string& text) const;

  /// Human-readable dump of the whole instance.
  std::string to_string() const;

  /// Total number of permitted paths across all nodes (excluding d's
  /// trivial path).
  std::size_t permitted_path_count() const;

  // -- Path table: every path a network state can hold, interned ---------

  /// Number of path ids: epsilon plus every permitted path (the
  /// destination's trivial path included).
  std::size_t path_count() const { return path_owner_.size(); }

  /// The path with id `id`. Requires id < path_count().
  const Path& path(PathId id) const {
    CR_REQUIRE(id < path_owner_.size(), "path id out of range");
    const NodeId v = path_owner_[id];
    return v == kNoNode ? epsilon_ : permitted_[v][id - path_base_[v]];
  }

  /// Id of `p`, or nullopt when no state can hold it (it is neither
  /// epsilon nor permitted at its first node).
  std::optional<PathId> path_id(const Path& p) const;

  /// Id of v's permitted path of rank `r`.
  PathId permitted_id(NodeId v, Rank r) const {
    CR_REQUIRE(v < permitted_.size() && r < permitted_[v].size(),
               "no such permitted path");
    return path_base_[v] + r;
  }

  /// The selection table: the id of v . a when v permits that extension
  /// of the announced path with id `announced`, kNoPath otherwise (always
  /// for epsilon). Of two extensions at v, the lower id is preferred.
  PathId extension(NodeId v, PathId announced) const {
    CR_REQUIRE(announced < path_owner_.size(), "path id out of range");
    const auto first = extensions_.begin() + extension_begin_[announced];
    const auto last = extensions_.begin() + extension_begin_[announced + 1];
    const auto it =
        std::lower_bound(first, last, v, [](const Extension& e, NodeId n) {
          return e.node < n;
        });
    return it != last && it->node == v ? it->path : kNoPath;
  }

 private:
  struct Extension {
    NodeId node;  ///< the extending node v
    PathId path;  ///< v . announced
  };

  Graph graph_;
  NodeId destination_;
  std::vector<std::vector<Path>> permitted_;
  std::vector<std::unordered_map<Path, Rank>> rank_;
  std::shared_ptr<const ExportPolicy> export_policy_;
  bool single_char_names_ = true;

  Path epsilon_;
  std::vector<NodeId> path_owner_;  ///< id -> its node (kNoNode: epsilon)
  std::vector<PathId> path_base_;   ///< node -> id of its rank-0 path
  /// Extensions grouped by announced id (nodes ascending within a group):
  /// group a is [extension_begin_[a], extension_begin_[a + 1]).
  std::vector<std::uint32_t> extension_begin_;
  std::vector<Extension> extensions_;

  void validate() const;
  void build_extensions();
};

}  // namespace commroute::spp
