#include "bgp/topology.hpp"

#include "support/error.hpp"

namespace commroute::bgp {

std::string to_string(Relationship r) {
  switch (r) {
    case Relationship::kCustomer:
      return "customer";
    case Relationship::kProvider:
      return "provider";
    case Relationship::kPeer:
      return "peer";
  }
  throw InvariantError("bad Relationship");
}

Relationship reverse(Relationship r) {
  switch (r) {
    case Relationship::kCustomer:
      return Relationship::kProvider;
    case Relationship::kProvider:
      return Relationship::kCustomer;
    case Relationship::kPeer:
      return Relationship::kPeer;
  }
  throw InvariantError("bad Relationship");
}

NodeId AsTopology::add_as(const std::string& name) {
  CR_REQUIRE(!name.empty(), "AS name must be non-empty");
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;
  }
  const NodeId v = static_cast<NodeId>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, v);
  adjacency_.emplace_back();
  return v;
}

void AsTopology::add_link(NodeId a, NodeId b, Relationship a_view) {
  CR_REQUIRE(a != b, "self-links are not allowed");
  CR_REQUIRE(!relationship(a, b).has_value(),
             "duplicate link between " + name(a) + " and " + name(b));
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  rel_.emplace(key(a, b), a_view);
  rel_.emplace(key(b, a), reverse(a_view));
  links_.push_back(Link{a, b, a_view});
}

void AsTopology::add_customer_provider(const std::string& customer,
                                       const std::string& provider) {
  const NodeId c = add_as(customer);
  const NodeId p = add_as(provider);
  add_link(c, p, Relationship::kProvider);  // c sees p as its provider
}

void AsTopology::add_peering(const std::string& a, const std::string& b) {
  const NodeId va = add_as(a);
  const NodeId vb = add_as(b);
  add_link(va, vb, Relationship::kPeer);
}

const std::string& AsTopology::name(NodeId v) const {
  CR_REQUIRE(v < names_.size(), "AS out of range");
  return names_[v];
}

NodeId AsTopology::as(const std::string& name) const {
  const auto it = by_name_.find(name);
  CR_REQUIRE(it != by_name_.end(), "unknown AS: " + name);
  return it->second;
}

const std::vector<NodeId>& AsTopology::neighbors(NodeId v) const {
  CR_REQUIRE(v < adjacency_.size(), "AS out of range");
  return adjacency_[v];
}

std::optional<Relationship> AsTopology::relationship(NodeId u,
                                                     NodeId v) const {
  const auto it = rel_.find(key(u, v));
  if (it == rel_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool AsTopology::provider_dag_acyclic() const {
  // DFS over customer -> provider edges.
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(as_count(), Color::kWhite);

  const auto dfs = [&](auto&& self, NodeId v) -> bool {
    color[v] = Color::kGray;
    for (const NodeId u : neighbors(v)) {
      if (relationship(v, u) != Relationship::kProvider) {
        continue;  // follow edges from customer v to provider u only
      }
      if (color[u] == Color::kGray) {
        return false;
      }
      if (color[u] == Color::kWhite && !self(self, u)) {
        return false;
      }
    }
    color[v] = Color::kBlack;
    return true;
  };

  for (NodeId v = 0; v < as_count(); ++v) {
    if (color[v] == Color::kWhite && !dfs(dfs, v)) {
      return false;
    }
  }
  return true;
}

}  // namespace commroute::bgp
