// AS-level topologies with business relationships.
//
// The paper's taxonomy models BGP's update processing; this substrate
// grounds the abstract SPP instances in BGP reality: autonomous systems
// connected by customer-provider or peer-peer links, with Gao-Rexford
// routing policies (bgp/policy.hpp) compiled into SPP instances
// (bgp/compile.hpp). It also documents how the taxonomy's dimensions map
// to BGP configuration:
//   reliability R/U  — BGP-over-TCP vs. datagram transports;
//   messages A       — the Route Refresh capability (RFC 2918): polling a
//                      neighbor's current state;
//   messages O/S     — event-driven processing vs. draining the Adj-RIB-In
//                      queue, i.e. different update-batching settings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/path.hpp"

namespace commroute::bgp {

/// u's view of its relationship with neighbor v.
enum class Relationship : std::uint8_t {
  kCustomer,  ///< v is u's customer (v pays u)
  kProvider,  ///< v is u's provider (u pays v)
  kPeer,      ///< settlement-free peering
};

std::string to_string(Relationship r);

/// Flips the perspective: my customer sees me as its provider.
Relationship reverse(Relationship r);

/// An AS-level topology; ASes are named, links are labeled with the
/// relationship as seen from each endpoint.
class AsTopology {
 public:
  /// Declares an AS (idempotent); returns its dense index.
  NodeId add_as(const std::string& name);

  /// Adds a customer-provider link.
  void add_customer_provider(const std::string& customer,
                             const std::string& provider);

  /// Adds a settlement-free peering link.
  void add_peering(const std::string& a, const std::string& b);

  std::size_t as_count() const { return names_.size(); }
  const std::string& name(NodeId v) const;
  NodeId as(const std::string& name) const;

  const std::vector<NodeId>& neighbors(NodeId v) const;

  /// u's view of neighbor v; nullopt if not adjacent.
  std::optional<Relationship> relationship(NodeId u, NodeId v) const;

  /// True if the customer->provider digraph is acyclic (first Gao-Rexford
  /// condition; a provider cycle would mean someone is their own indirect
  /// customer).
  bool provider_dag_acyclic() const;

  /// All undirected links as (a, b) with a's view of b.
  struct Link {
    NodeId a;
    NodeId b;
    Relationship a_view_of_b;
  };
  const std::vector<Link>& links() const { return links_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::unordered_map<std::uint64_t, Relationship> rel_;
  std::vector<Link> links_;

  static std::uint64_t key(NodeId u, NodeId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  void add_link(NodeId a, NodeId b, Relationship a_view);
};

}  // namespace commroute::bgp
