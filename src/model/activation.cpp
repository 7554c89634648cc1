#include "model/activation.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace commroute::model {

NodeId ActivationStep::node() const {
  CR_REQUIRE(nodes.size() == 1,
             "ActivationStep::node() on a multi-node step");
  return nodes.front();
}

std::string ActivationStep::to_string(const spp::Instance& instance) const {
  const Graph& g = instance.graph();
  std::ostringstream os;
  os << "U={";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    os << (i ? "," : "") << g.name(nodes[i]);
  }
  os << "} X={";
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const ReadSpec& r = reads[i];
    os << (i ? ", " : "") << g.channel_name(r.channel) << " f=";
    if (r.count.has_value()) {
      os << *r.count;
    } else {
      os << "inf";
    }
    if (!r.drops.empty()) {
      os << " g={";
      for (std::size_t j = 0; j < r.drops.size(); ++j) {
        os << (j ? "," : "") << r.drops[j];
      }
      os << "}";
    }
  }
  os << "}";
  return os.str();
}

void validate_step(const spp::Instance& instance,
                   const ActivationStep& step) {
  const Graph& g = instance.graph();
  CR_REQUIRE(!step.nodes.empty(), "U must be non-empty");
  CR_REQUIRE(std::is_sorted(step.nodes.begin(), step.nodes.end()) &&
                 std::adjacent_find(step.nodes.begin(), step.nodes.end()) ==
                     step.nodes.end(),
             "U must be sorted and duplicate-free");
  for (const NodeId v : step.nodes) {
    CR_REQUIRE(v < g.node_count(), "updating node out of range");
  }

  for (auto it = step.reads.begin(); it != step.reads.end(); ++it) {
    const ReadSpec& r = *it;
    CR_REQUIRE(r.channel < g.channel_count(), "channel out of range");
    // X is at most the updating nodes' in-channels: a scan of the earlier
    // reads beats building a set.
    CR_REQUIRE(std::none_of(step.reads.begin(), it,
                            [&](const ReadSpec& earlier) {
                              return earlier.channel == r.channel;
                            }),
               "duplicate channel in X: " + g.channel_name(r.channel));
    const ChannelId id = g.channel_id(r.channel);
    CR_REQUIRE(std::binary_search(step.nodes.begin(), step.nodes.end(),
                                  id.to),
               "receiving end of " + g.channel_name(r.channel) +
                   " is not updating");
    CR_REQUIRE(std::is_sorted(r.drops.begin(), r.drops.end()) &&
                   std::adjacent_find(r.drops.begin(), r.drops.end()) ==
                       r.drops.end(),
               "g must be sorted and duplicate-free");
    for (const std::uint32_t idx : r.drops) {
      CR_REQUIRE(idx >= 1, "drop indices are 1-based");
    }
    if (r.count.has_value()) {
      if (*r.count == 0) {
        CR_REQUIRE(r.drops.empty(), "g must be empty when f = 0");
      } else {
        CR_REQUIRE(r.drops.empty() || r.drops.back() <= *r.count,
                   "g must be contained in {1..f}");
      }
    }
  }
}

namespace {

bool fail(std::string* why, const std::string& message) {
  if (why != nullptr) {
    *why = message;
  }
  return false;
}

}  // namespace

bool step_allowed(const Model& m, const spp::Instance& instance,
                  const ActivationStep& step, std::string* why,
                  bool require_single_node) {
  validate_step(instance, step);
  const Graph& g = instance.graph();

  if (require_single_node && step.nodes.size() != 1) {
    return fail(why, "taxonomy models require exactly one updating node");
  }

  // Reliability.
  if (m.reliability == Reliability::kReliable) {
    for (const ReadSpec& r : step.reads) {
      if (!r.drops.empty()) {
        return fail(why, "reliable models never drop messages (channel " +
                             g.channel_name(r.channel) + ")");
      }
    }
  }

  // Group read channels per updating node.
  for (const NodeId v : step.nodes) {
    std::size_t read_count = 0;
    for (const ReadSpec& r : step.reads) {
      if (g.channel_id(r.channel).to == v) {
        ++read_count;
      }
    }
    switch (m.neighbors) {
      case NeighborMode::kOne:
        if (read_count != 1) {
          return fail(why, "model " + m.name() + " requires node " +
                               g.name(v) + " to process exactly one channel");
        }
        break;
      case NeighborMode::kEvery:
        if (read_count != g.in_channels(v).size()) {
          return fail(why, "model " + m.name() + " requires node " +
                               g.name(v) + " to process every channel");
        }
        break;
      case NeighborMode::kMultiple:
        break;  // any subset, including none
    }
  }

  // Message mode per read.
  for (const ReadSpec& r : step.reads) {
    switch (m.messages) {
      case MessageMode::kOne:
        if (!r.count.has_value() || *r.count != 1) {
          return fail(why, "model " + m.name() +
                               " requires f = 1 on every processed channel");
        }
        break;
      case MessageMode::kAll:
        if (r.count.has_value()) {
          return fail(why, "model " + m.name() +
                               " requires f = all on every processed channel");
        }
        break;
      case MessageMode::kForced:
        if (r.count.has_value() && *r.count == 0) {
          return fail(why, "model " + m.name() +
                               " requires f >= 1 on every processed channel");
        }
        break;
      case MessageMode::kSome:
        break;  // unrestricted
    }
  }
  return true;
}

void require_step_allowed(const Model& m, const spp::Instance& instance,
                          const ActivationStep& step,
                          bool require_single_node) {
  std::string why;
  if (!step_allowed(m, instance, step, &why, require_single_node)) {
    throw PreconditionError("step not allowed in " + m.name() + ": " + why +
                            " [" + step.to_string(instance) + "]");
  }
}

ActivationStep poll_all_step(const spp::Instance& instance, NodeId v) {
  ActivationStep step;
  step.nodes = {v};
  for (const ChannelIdx c : instance.graph().in_channels(v)) {
    step.reads.push_back(ReadSpec{c, std::nullopt, {}});
  }
  return step;
}

ActivationStep poll_one_step(const spp::Instance& instance, NodeId v,
                             NodeId u) {
  ActivationStep step;
  step.nodes = {v};
  step.reads.push_back(
      ReadSpec{instance.graph().channel(u, v), std::nullopt, {}});
  return step;
}

ActivationStep read_one_step(const spp::Instance& instance, NodeId v,
                             NodeId u, bool drop) {
  ActivationStep step;
  step.nodes = {v};
  ReadSpec r{instance.graph().channel(u, v), 1u, {}};
  if (drop) {
    r.drops = {1};
  }
  step.reads.push_back(std::move(r));
  return step;
}

ActivationStep read_every_one_step(const spp::Instance& instance, NodeId v) {
  ActivationStep step;
  step.nodes = {v};
  for (const ChannelIdx c : instance.graph().in_channels(v)) {
    step.reads.push_back(ReadSpec{c, 1u, {}});
  }
  return step;
}

ActivationStep make_step(NodeId v, std::vector<ReadSpec> reads) {
  ActivationStep step;
  step.nodes = {v};
  step.reads = std::move(reads);
  return step;
}

ActivationStep make_multi_step(std::vector<NodeId> nodes,
                               std::vector<ReadSpec> reads) {
  ActivationStep step;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  step.nodes = std::move(nodes);
  step.reads = std::move(reads);
  return step;
}

}  // namespace commroute::model
