#include <gtest/gtest.h>

#include <limits>

#include "support/error.hpp"
#include "bgp/compile.hpp"
#include "bgp/policy.hpp"
#include "bgp/random_topology.hpp"
#include "bgp/topology.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "spp/dispute_wheel.hpp"
#include "spp/serialize.hpp"
#include "spp/solver.hpp"

namespace commroute::bgp {
namespace {

using model::Model;

/// A small reference topology:
///       as0 (tier-1) --- peers --- as1 (tier-1)
///        |                           |
///       as2 (provider: as0)         as3 (provider: as1)
///        \---- peers: as2 -- as3 ---/
///       as4 (customer of as2 and as3)
std::shared_ptr<AsTopology> reference_topology() {
  auto topo = std::make_shared<AsTopology>();
  topo->add_peering("as0", "as1");
  topo->add_customer_provider("as2", "as0");
  topo->add_customer_provider("as3", "as1");
  topo->add_peering("as2", "as3");
  topo->add_customer_provider("as4", "as2");
  topo->add_customer_provider("as4", "as3");
  return topo;
}

TEST(Topology, RelationshipsAreSymmetricallyLabeled) {
  const auto topo = reference_topology();
  const NodeId as2 = topo->as("as2");
  const NodeId as0 = topo->as("as0");
  EXPECT_EQ(topo->relationship(as2, as0), Relationship::kProvider);
  EXPECT_EQ(topo->relationship(as0, as2), Relationship::kCustomer);
  const NodeId as1 = topo->as("as1");
  EXPECT_EQ(topo->relationship(as0, as1), Relationship::kPeer);
  EXPECT_EQ(topo->relationship(as1, as0), Relationship::kPeer);
  EXPECT_FALSE(topo->relationship(as0, topo->as("as4")).has_value());
}

TEST(Topology, RejectsDuplicatesAndSelfLinks) {
  AsTopology topo;
  topo.add_customer_provider("a", "b");
  EXPECT_THROW(topo.add_peering("a", "b"), PreconditionError);
  EXPECT_THROW(topo.add_peering("a", "a"), PreconditionError);
}

TEST(Topology, ProviderAcyclicityDetection) {
  const auto good = reference_topology();
  EXPECT_TRUE(good->provider_dag_acyclic());

  AsTopology cyclic;
  cyclic.add_customer_provider("a", "b");
  cyclic.add_customer_provider("b", "c");
  cyclic.add_customer_provider("c", "a");
  EXPECT_FALSE(cyclic.provider_dag_acyclic());
}

TEST(Topology, ReverseRelationship) {
  EXPECT_EQ(reverse(Relationship::kCustomer), Relationship::kProvider);
  EXPECT_EQ(reverse(Relationship::kProvider), Relationship::kCustomer);
  EXPECT_EQ(reverse(Relationship::kPeer), Relationship::kPeer);
}

TEST(Policy, ClassificationFollowsGR2) {
  const auto topo = reference_topology();
  const NodeId as2 = topo->as("as2");
  EXPECT_EQ(classify(*topo, as2, topo->as("as4")),
            RouteClass::kCustomerRoute);
  EXPECT_EQ(classify(*topo, as2, topo->as("as3")), RouteClass::kPeerRoute);
  EXPECT_EQ(classify(*topo, as2, topo->as("as0")),
            RouteClass::kProviderRoute);
}

TEST(Policy, ExportRuleGR3) {
  const auto topo = reference_topology();
  const NodeId as2 = topo->as("as2");
  const NodeId as0 = topo->as("as0");
  const NodeId as3 = topo->as("as3");
  const NodeId as4 = topo->as("as4");
  // Customer-learned routes go everywhere.
  EXPECT_TRUE(gao_rexford_export(*topo, as2, as0, as4));
  EXPECT_TRUE(gao_rexford_export(*topo, as2, as3, as4));
  // Peer-learned routes go only to customers.
  EXPECT_TRUE(gao_rexford_export(*topo, as2, as4, as3));
  EXPECT_FALSE(gao_rexford_export(*topo, as2, as0, as3));
  // Provider-learned routes go only to customers.
  EXPECT_TRUE(gao_rexford_export(*topo, as2, as4, as0));
  EXPECT_FALSE(gao_rexford_export(*topo, as2, as3, as0));
  // Originated routes go everywhere.
  EXPECT_TRUE(gao_rexford_export(*topo, as2, as0, as2));
}

TEST(Policy, ValleyFreePathAcceptance) {
  const auto topo = reference_topology();
  const auto path = [&](const std::vector<const char*>& names) {
    std::vector<NodeId> nodes;
    for (const char* n : names) {
      nodes.push_back(topo->as(n));
    }
    return Path(std::move(nodes));
  };
  // Customer chain up is fine.
  EXPECT_TRUE(gao_rexford_permits(*topo, path({"as4", "as2", "as0"})));
  // Valley: as0 -> as2 (customer) -> as3 (peer) is a peer hop after a
  // customer hop as seen by as2: as2 exports a peer-learned route to its
  // provider as0 — forbidden.
  EXPECT_FALSE(
      gao_rexford_permits(*topo, path({"as0", "as2", "as3"})));
  // Down-then-along-peering toward a customer is fine.
  EXPECT_TRUE(gao_rexford_permits(*topo, path({"as4", "as2", "as3"})));
  // Two peering hops in a row are forbidden (as2 would export a
  // peer-learned route to a peer).
  EXPECT_FALSE(
      gao_rexford_permits(*topo, path({"as3", "as2", "as0", "as1"})));
}

TEST(Policy, ValleyViolationsAreRejectedHopByHop) {
  const auto topo = reference_topology();
  const auto path = [&](std::initializer_list<const char*> names) {
    std::vector<NodeId> nodes;
    for (const char* n : names) {
      nodes.push_back(topo->as(n));
    }
    return Path(std::move(nodes));
  };
  // Up through a provider chain: valley-free.
  EXPECT_TRUE(gao_rexford_permits(*topo, path({"as4", "as2", "as0"})));
  // Down to a customer then back up to a provider: a valley. as2 would
  // have to export a provider-learned route (from as0... actually as4's
  // route) upward — GR3 forbids it.
  EXPECT_FALSE(gao_rexford_permits(*topo, path({"as3", "as4", "as2", "as0"})));
  // Peer then peer: as2 may not re-export a peer-learned route to
  // another peer (as0 -> as2 is provider-to-customer, fine; but
  // as3 -> as2 -> as0? as2 learned from peer as3 and exports to
  // provider as0 — forbidden).
  EXPECT_FALSE(gao_rexford_permits(*topo, path({"as0", "as2", "as3"})));
  // Provider down to customer all the way: always exportable.
  EXPECT_TRUE(gao_rexford_permits(*topo, path({"as0", "as2", "as4"})));
}

TEST(Policy, PreferenceTieBreakOrdering) {
  const auto topo = reference_topology();
  const auto path = [&](std::initializer_list<const char*> names) {
    std::vector<NodeId> nodes;
    for (const char* n : names) {
      nodes.push_back(topo->as(n));
    }
    return Path(std::move(nodes));
  };
  // Route class dominates length: a longer customer route beats a
  // shorter peer route at as2 (customer as4 vs peer as3).
  const RoutePreference customer =
      preference_of(*topo, path({"as2", "as4", "as3"}));
  const RoutePreference peer = preference_of(*topo, path({"as2", "as3"}));
  EXPECT_EQ(customer.route_class, RouteClass::kCustomerRoute);
  EXPECT_EQ(peer.route_class, RouteClass::kPeerRoute);
  EXPECT_TRUE(customer < peer);
  // Same class: shorter wins.
  const RoutePreference direct = preference_of(*topo, path({"as4", "as2"}));
  const RoutePreference longer =
      preference_of(*topo, path({"as4", "as2", "as0"}));
  EXPECT_TRUE(direct < longer);
  // Same class and length: the next-hop index breaks the tie strictly.
  const RoutePreference via2 = preference_of(*topo, path({"as4", "as2"}));
  const RoutePreference via3 = preference_of(*topo, path({"as4", "as3"}));
  EXPECT_TRUE(via2 < via3 || via3 < via2);
}

TEST(Policy, CompiledInstanceRoundTripsThroughSerialize) {
  // The text format carries graph/destination/permitted but not the
  // export policy, so the round trip is compared on those three only.
  const auto topo = reference_topology();
  const spp::Instance inst = compile_gao_rexford(topo, "as0");
  const spp::Instance back = spp::parse_instance(spp::format_instance(inst));
  EXPECT_EQ(back.destination(), inst.destination());
  ASSERT_EQ(back.node_count(), inst.node_count());
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    EXPECT_EQ(back.graph().name(v), inst.graph().name(v));
    EXPECT_EQ(back.permitted(v), inst.permitted(v)) << inst.graph().name(v);
  }
  // Formatting the parsed instance again is a fixed point.
  EXPECT_EQ(spp::format_instance(back), spp::format_instance(inst));
}

TEST(Compile, InstanceMirrorsTopology) {
  const auto topo = reference_topology();
  const spp::Instance inst = compile_gao_rexford(topo, "as0");
  EXPECT_EQ(inst.node_count(), topo->as_count());
  EXPECT_EQ(inst.graph().edge_count(), topo->links().size());
  EXPECT_EQ(inst.destination(), topo->as("as0"));
}

TEST(Compile, PermittedPathsAreValleyFreeAndRankedByGR2) {
  const auto topo = reference_topology();
  const spp::Instance inst = compile_gao_rexford(topo, "as0");
  for (NodeId v = 0; v < inst.node_count(); ++v) {
    if (v == inst.destination()) {
      continue;
    }
    const auto& paths = inst.permitted(v);
    for (const Path& p : paths) {
      EXPECT_TRUE(gao_rexford_permits(*topo, p)) << inst.path_name(p);
    }
    for (std::size_t i = 1; i < paths.size(); ++i) {
      EXPECT_TRUE(preference_of(*topo, paths[i - 1]) <
                  preference_of(*topo, paths[i]));
    }
  }
  // as4 prefers its customer-free ... provider routes by class then
  // length: as4>as2>as0 (provider, len 3) over as4>as2>as3>... etc.
  const NodeId as4 = topo->as("as4");
  ASSERT_FALSE(inst.permitted(as4).empty());
  EXPECT_EQ(inst.permitted(as4)[0].size(), 3u);
}

TEST(Compile, RejectsProviderCycles) {
  auto cyclic = std::make_shared<AsTopology>();
  cyclic->add_customer_provider("a", "b");
  cyclic->add_customer_provider("b", "c");
  cyclic->add_customer_provider("c", "a");
  EXPECT_THROW(compile_gao_rexford(cyclic, "a"), PreconditionError);
}

TEST(Compile, GaoRexfordInstancesAreDisputeWheelFree) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const auto topo = random_as_topology(rng, {.as_count = 7});
    const spp::Instance inst = compile_gao_rexford(topo, "as0");
    EXPECT_TRUE(spp::is_dispute_wheel_free(inst));
    EXPECT_EQ(spp::stable_assignments(inst, 2).size(), 1u);
  }
}

TEST(Compile, ExportPolicyFiltersAnnouncements) {
  const auto topo = reference_topology();
  const spp::Instance inst = compile_gao_rexford(topo, "as0");
  const NodeId as2 = topo->as("as2");
  const NodeId as3 = topo->as("as3");
  const NodeId as4 = topo->as("as4");
  // as2's peer route via as3 must not be exported to its provider as0 or
  // to its peer as3, but may go to customer as4.
  const Path peer_route =
      Path{as2, as3, topo->as("as1"), topo->as("as0")};
  EXPECT_TRUE(inst.export_allows(as2, as4, peer_route));
  EXPECT_FALSE(inst.export_allows(as2, topo->as("as0"), peer_route));
}

TEST(Compile, ConvergesInEveryCommunicationModel) {
  const auto topo = reference_topology();
  const spp::Instance inst = compile_gao_rexford(topo, "as0");
  for (const Model& m : Model::all()) {
    engine::RoundRobinScheduler sched(m, inst);
    const engine::RunResult result =
        engine::run(inst, sched, {.enforce_model = m});
    EXPECT_EQ(result.outcome, engine::Outcome::kConverged) << m.name();
    EXPECT_TRUE(spp::is_solution(inst, result.final_assignment))
        << m.name();
  }
}

TEST(Compile, WireLevelExportFiltering) {
  // GR3 enforced by the engine itself: over a full convergence run, every
  // route announced on a channel must have been exportable by its sender,
  // and peers/providers never see peer- or provider-learned routes.
  const auto topo = reference_topology();
  const spp::Instance inst = compile_gao_rexford(topo, "as0");
  engine::RoundRobinScheduler sched(Model::parse("RMS"), inst);
  engine::NetworkState state(inst);
  for (int i = 0; i < 500 && !engine::strongly_quiescent(state); ++i) {
    const auto step = sched.next(state);
    const auto effect = engine::execute_step(state, step);
    for (const auto& sent : effect.sent) {
      const Path& route = inst.path(sent.path);
      if (route.empty()) {
        continue;  // withdrawals always propagate
      }
      const ChannelId id = inst.graph().channel_id(sent.channel);
      const NodeId learned_from =
          route.size() >= 2 ? route.next_hop() : id.from;
      EXPECT_TRUE(gao_rexford_export(*topo, id.from, id.to, learned_from))
          << inst.graph().channel_name(sent.channel) << " carried "
          << inst.path_name(route);
    }
  }
  EXPECT_TRUE(engine::strongly_quiescent(state));
}

TEST(Compile, AllDestinationsAreIndependentAndSafe) {
  Rng rng(21);
  const auto topo = random_as_topology(rng, {.as_count = 6});
  const auto instances = compile_all_destinations(topo);
  ASSERT_EQ(instances.size(), topo->as_count());
  for (NodeId d = 0; d < topo->as_count(); ++d) {
    EXPECT_EQ(instances[d].destination(), d);
    EXPECT_TRUE(spp::is_dispute_wheel_free(instances[d]))
        << topo->name(d);
    engine::RoundRobinScheduler sched(Model::parse("RMS"), instances[d]);
    const auto run = engine::run(instances[d], sched,
                                 {.record_trace = false});
    EXPECT_EQ(run.outcome, engine::Outcome::kConverged) << topo->name(d);
  }
}

TEST(RandomTopology, SatisfiesGR1ByConstruction) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const auto topo = random_as_topology(rng, {.as_count = 10});
    EXPECT_TRUE(topo->provider_dag_acyclic());
    EXPECT_EQ(topo->as_count(), 10u);
  }
}

TEST(RandomTopology, EveryAsHasATransitPath) {
  Rng rng(14);
  const auto topo = random_as_topology(rng, {.as_count = 8});
  const spp::Instance inst = compile_gao_rexford(topo, "as0");
  for (NodeId v = 1; v < inst.node_count(); ++v) {
    EXPECT_FALSE(inst.permitted(v).empty()) << topo->name(v);
  }
}

TEST(RandomTopology, RejectsDegenerateParameters) {
  Rng rng(16);
  // A hierarchy needs a provider and a customer.
  EXPECT_THROW(random_as_topology(rng, {.as_count = 0}), PreconditionError);
  EXPECT_THROW(random_as_topology(rng, {.as_count = 1}), PreconditionError);
  // Probabilities must be finite and in [0, 1].
  EXPECT_THROW(
      random_as_topology(rng, {.as_count = 4, .extra_provider_prob = -0.1}),
      PreconditionError);
  EXPECT_THROW(
      random_as_topology(rng, {.as_count = 4, .peering_prob = 1.5}),
      PreconditionError);
  EXPECT_THROW(random_as_topology(
                   rng, {.as_count = 4,
                         .extra_provider_prob =
                             std::numeric_limits<double>::quiet_NaN()}),
               PreconditionError);
  EXPECT_THROW(random_as_topology(
                   rng, {.as_count = 4,
                         .peering_prob =
                             std::numeric_limits<double>::infinity()}),
               PreconditionError);
}

TEST(RandomTopology, BoundaryProbabilitiesAreAccepted) {
  Rng rng(17);
  // 0 and 1 are valid: a pure tree and a fully multihomed/peered mesh.
  const auto sparse = random_as_topology(
      rng, {.as_count = 6, .extra_provider_prob = 0.0, .peering_prob = 0.0});
  EXPECT_TRUE(sparse->provider_dag_acyclic());
  const auto dense = random_as_topology(
      rng, {.as_count = 6, .extra_provider_prob = 1.0, .peering_prob = 1.0});
  EXPECT_TRUE(dense->provider_dag_acyclic());
  // The dense draw actually multihomed someone: more provider links
  // than the spanning minimum of as_count - 1.
  std::size_t provider_links = 0;
  for (NodeId a = 0; a < dense->as_count(); ++a) {
    for (NodeId b = 0; b < dense->as_count(); ++b) {
      if (a != b && dense->relationship(a, b) == Relationship::kProvider) {
        ++provider_links;
      }
    }
  }
  EXPECT_GT(provider_links, dense->as_count() - 1);
}

TEST(RandomTopology, ConvergesUnderRandomFairSchedulesAllModels) {
  Rng rng(15);
  const auto topo = random_as_topology(rng, {.as_count = 6});
  const spp::Instance inst = compile_gao_rexford(topo, "as0");
  for (const Model& m : Model::all()) {
    engine::RandomFairScheduler sched(m, inst, Rng(m.index() + 99),
                                      {.drop_prob = 0.25,
                                       .sweep_period = 8});
    const engine::RunResult result =
        engine::run(inst, sched, {.max_steps = 20000, .enforce_model = m});
    EXPECT_EQ(result.outcome, engine::Outcome::kConverged) << m.name();
  }
}

TEST(Relationship, ToStringNames) {
  EXPECT_EQ(to_string(Relationship::kCustomer), "customer");
  EXPECT_EQ(to_string(Relationship::kProvider), "provider");
  EXPECT_EQ(to_string(Relationship::kPeer), "peer");
}

}  // namespace
}  // namespace commroute::bgp
