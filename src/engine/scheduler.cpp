#include "engine/scheduler.hpp"

#include <algorithm>

#include "engine/state.hpp"
#include "support/error.hpp"

namespace commroute::engine {

using model::ActivationStep;
using model::MessageMode;
using model::Model;
using model::NeighborMode;
using model::ReadSpec;
using model::Reliability;

namespace {

/// The nodes a step of a model with neighbor mode `neighbors` can
/// activate. A 1-neighbor step reads exactly one in-channel per updating
/// node, so a node without one is never activated; otherwise every node.
std::vector<NodeId> activatable_nodes(NeighborMode neighbors,
                                      const Graph& g) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (neighbors != NeighborMode::kOne || !g.in_channels(v).empty()) {
      nodes.push_back(v);
    }
  }
  return nodes;
}

}  // namespace

// ---- ScriptedScheduler ----------------------------------------------------

ScriptedScheduler::ScriptedScheduler(model::ActivationScript script,
                                     std::optional<std::size_t> loop_from)
    : script_(std::move(script)), loop_from_(loop_from) {
  CR_REQUIRE(!script_.empty(), "script must be non-empty");
  if (loop_from_.has_value()) {
    CR_REQUIRE(*loop_from_ < script_.size(),
               "loop_from out of script range");
  }
}

ActivationStep ScriptedScheduler::next(const NetworkState&) {
  CR_REQUIRE(position_ < script_.size(), "script exhausted");
  ActivationStep step = script_[position_];
  ++position_;
  if (position_ == script_.size() && loop_from_.has_value()) {
    position_ = *loop_from_;
  }
  return step;
}

std::optional<std::uint64_t> ScriptedScheduler::signature() const {
  return position_;
}

bool ScriptedScheduler::exhausted() const {
  return !loop_from_.has_value() && position_ >= script_.size();
}

std::optional<std::size_t> ScriptedScheduler::remaining() const {
  if (loop_from_.has_value()) {
    return std::nullopt;
  }
  return script_.size() - position_;
}

// ---- RoundRobinScheduler --------------------------------------------------

RoundRobinScheduler::RoundRobinScheduler(Model m,
                                         const spp::Instance& instance)
    : model_(m), instance_(&instance) {
  const Graph& g = instance.graph();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (model_.neighbors == NeighborMode::kOne) {
      for (const ChannelIdx c : g.in_channels(v)) {
        order_.push_back(Slot{v, c});
      }
    } else {
      order_.push_back(Slot{v, kNoChannel});
    }
  }
  CR_ASSERT(!order_.empty(), "round-robin order cannot be empty");
}

ActivationStep RoundRobinScheduler::next(const NetworkState&) {
  const Slot& slot = order_[position_];
  position_ = (position_ + 1) % order_.size();

  // f choice: the most permissive legal value ("read everything you may").
  const std::optional<std::uint32_t> count =
      (model_.messages == MessageMode::kOne)
          ? std::optional<std::uint32_t>(1u)
          : std::nullopt;

  ActivationStep step;
  step.nodes = {slot.node};
  if (slot.channel != kNoChannel) {
    step.reads.push_back(ReadSpec{slot.channel, count, {}});
  } else {
    for (const ChannelIdx c : instance_->graph().in_channels(slot.node)) {
      step.reads.push_back(ReadSpec{c, count, {}});
    }
  }
  return step;
}

std::optional<std::uint64_t> RoundRobinScheduler::signature() const {
  return position_;
}

// ---- SynchronousScheduler ---------------------------------------------------

namespace {

std::uint64_t lcm_u64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a, y = b;
  while (y != 0) {
    const std::uint64_t t = x % y;
    x = y;
    y = t;
  }
  return (a / x) * b;
}

}  // namespace

SynchronousScheduler::SynchronousScheduler(Model base,
                                           const spp::Instance& instance)
    : base_(base),
      instance_(&instance),
      nodes_(activatable_nodes(base.neighbors, instance.graph())) {
  if (base_.neighbors == NeighborMode::kOne) {
    for (const NodeId v : nodes_) {
      period_ = lcm_u64(period_, instance.graph().in_channels(v).size());
    }
  }
}

ActivationStep SynchronousScheduler::next(const NetworkState&) {
  const Graph& g = instance_->graph();
  const std::optional<std::uint32_t> count =
      (base_.messages == MessageMode::kOne)
          ? std::optional<std::uint32_t>(1u)
          : std::nullopt;

  ActivationStep step;
  for (const NodeId v : nodes_) {
    step.nodes.push_back(v);
    const auto& in = g.in_channels(v);
    if (base_.neighbors == NeighborMode::kOne) {
      const std::size_t pick =
          static_cast<std::size_t>(round_ % in.size());
      step.reads.push_back(ReadSpec{in[pick], count, {}});
    } else {
      for (const ChannelIdx c : in) {
        step.reads.push_back(ReadSpec{c, count, {}});
      }
    }
  }
  ++round_;
  return step;
}

std::optional<std::uint64_t> SynchronousScheduler::signature() const {
  return round_ % period_;
}

// ---- MultiNodeRandomScheduler -----------------------------------------------

MultiNodeRandomScheduler::MultiNodeRandomScheduler(
    Model base, const spp::Instance& instance, Rng rng, double node_prob,
    std::uint64_t sweep_period)
    : base_(base),
      instance_(&instance),
      nodes_(activatable_nodes(base.neighbors, instance.graph())),
      rng_(rng),
      node_prob_(node_prob),
      sweep_period_(sweep_period) {
  CR_REQUIRE(sweep_period_ > 0, "sweep_period must be positive");
}

ActivationStep MultiNodeRandomScheduler::step_for_nodes(
    const std::vector<NodeId>& nodes) {
  const Graph& g = instance_->graph();
  const std::optional<std::uint32_t> count =
      (base_.messages == MessageMode::kOne)
          ? std::optional<std::uint32_t>(1u)
          : std::nullopt;
  ActivationStep step;
  step.nodes = nodes;
  for (const NodeId v : nodes) {
    const auto& in = g.in_channels(v);
    switch (base_.neighbors) {
      case NeighborMode::kOne:
        step.reads.push_back(ReadSpec{
            in[static_cast<std::size_t>(rng_.below(in.size()))], count,
            {}});
        break;
      case NeighborMode::kEvery:
        for (const ChannelIdx c : in) {
          step.reads.push_back(ReadSpec{c, count, {}});
        }
        break;
      case NeighborMode::kMultiple:
        for (const ChannelIdx c : in) {
          if (rng_.chance(0.5)) {
            step.reads.push_back(ReadSpec{c, count, {}});
          }
        }
        break;
    }
  }
  return step;
}

ActivationStep MultiNodeRandomScheduler::next(const NetworkState&) {
  const Graph& g = instance_->graph();
  ++steps_;
  std::vector<NodeId> nodes;
  if (steps_ % sweep_period_ == 0) {
    // Fairness backstop: activate everyone. For 1-neighbor base models
    // each node's channel rotates across sweeps, covering all channels
    // over time; otherwise every channel is read in the sweep itself.
    ActivationStep step;
    const std::optional<std::uint32_t> count =
        (base_.messages == MessageMode::kOne)
            ? std::optional<std::uint32_t>(1u)
            : std::nullopt;
    const std::uint64_t round = steps_ / sweep_period_;
    for (const NodeId v : nodes_) {
      step.nodes.push_back(v);
      const auto& in = g.in_channels(v);
      if (base_.neighbors == NeighborMode::kOne) {
        step.reads.push_back(
            ReadSpec{in[static_cast<std::size_t>(round % in.size())],
                     count,
                     {}});
      } else {
        for (const ChannelIdx c : in) {
          step.reads.push_back(ReadSpec{c, count, {}});
        }
      }
    }
    return step;
  }
  for (const NodeId v : nodes_) {
    if (rng_.chance(node_prob_)) {
      nodes.push_back(v);
    }
  }
  if (nodes.empty()) {
    nodes.push_back(nodes_[static_cast<std::size_t>(
        rng_.below(nodes_.size()))]);
  }
  return step_for_nodes(nodes);
}

// ---- EventDrivenScheduler ---------------------------------------------------

EventDrivenScheduler::EventDrivenScheduler(const spp::Instance& instance)
    : instance_(&instance),
      idle_nodes_(activatable_nodes(NeighborMode::kOne, instance.graph())) {}

bool EventDrivenScheduler::allows(const Model& m) {
  return m.is_message_passing() && m.neighbors != NeighborMode::kEvery;
}

ActivationStep EventDrivenScheduler::next(const NetworkState& state) {
  const Graph& g = instance_->graph();
  const std::size_t channels = g.channel_count();

  // Serve the next non-empty channel after the cursor, FIFO-ish.
  for (std::size_t offset = 0; offset < channels; ++offset) {
    const ChannelIdx c = static_cast<ChannelIdx>(
        (channel_cursor_ + offset) % channels);
    if (!state.channel(c).empty()) {
      channel_cursor_ = (static_cast<std::uint64_t>(c) + 1) % channels;
      ActivationStep step;
      step.nodes = {g.channel_id(c).to};
      step.reads = {ReadSpec{c, 1u, {}}};
      return step;
    }
  }

  // Nothing in flight: rotate no-op activations (still read attempts, and
  // they trigger any pending first announcement) over the nodes that have
  // an in-channel to read.
  CR_REQUIRE(!idle_nodes_.empty(),
             "event-driven scheduling needs a node with an in-channel");
  const NodeId v = idle_nodes_[idle_cursor_ % idle_nodes_.size()];
  idle_cursor_ = (idle_cursor_ + 1) % idle_nodes_.size();
  ActivationStep step;
  step.nodes = {v};
  step.reads = {ReadSpec{g.in_channels(v).front(), 1u, {}}};
  return step;
}

std::optional<std::uint64_t> EventDrivenScheduler::signature() const {
  return channel_cursor_ * (instance_->node_count() + 1) + idle_cursor_;
}

// ---- RandomFairScheduler --------------------------------------------------

RandomFairScheduler::RandomFairScheduler(Model m,
                                         const spp::Instance& instance,
                                         Rng rng, Options options)
    : model_(m),
      instance_(&instance),
      nodes_(activatable_nodes(m.neighbors, instance.graph())),
      rng_(rng),
      options_(options) {
  CR_REQUIRE(options_.sweep_period > 0, "sweep_period must be positive");
}

ReadSpec RandomFairScheduler::make_read(const NetworkState& state,
                                        ChannelIdx c) {
  const std::size_t m = state.channel(c).size();

  std::optional<std::uint32_t> count;
  switch (model_.messages) {
    case MessageMode::kOne:
      count = 1u;
      break;
    case MessageMode::kAll:
      count = std::nullopt;
      break;
    case MessageMode::kForced:
      if (rng_.chance(0.25)) {
        count = std::nullopt;  // all
      } else {
        count = static_cast<std::uint32_t>(
            rng_.range(1, std::max<std::int64_t>(1, options_.max_f)));
      }
      break;
    case MessageMode::kSome:
      if (rng_.chance(0.25)) {
        count = std::nullopt;  // all
      } else {
        count = static_cast<std::uint32_t>(rng_.range(0, options_.max_f));
      }
      break;
  }

  ReadSpec read{c, count, {}};
  if (model_.reliability == Reliability::kUnreliable &&
      options_.drop_prob > 0.0) {
    // i = number of messages this read will actually process.
    const std::size_t i =
        count.has_value() ? std::min<std::size_t>(*count, m) : m;
    for (std::size_t idx = 1; idx <= i; ++idx) {
      // Never drop the newest message currently in the channel: every
      // dropped message then provably has a later non-dropped one,
      // satisfying the drop clause of Def. 2.4 unconditionally.
      if (idx == m) {
        continue;
      }
      if (rng_.chance(options_.drop_prob)) {
        read.drops.push_back(static_cast<std::uint32_t>(idx));
      }
    }
  }
  return read;
}

ActivationStep RandomFairScheduler::random_step(const NetworkState& state) {
  const Graph& g = instance_->graph();
  const NodeId v =
      nodes_[static_cast<std::size_t>(rng_.below(nodes_.size()))];
  const auto& in = g.in_channels(v);

  std::vector<ChannelIdx> chosen;
  switch (model_.neighbors) {
    case NeighborMode::kOne:
      chosen.push_back(in[static_cast<std::size_t>(rng_.below(in.size()))]);
      break;
    case NeighborMode::kEvery:
      chosen = in;
      break;
    case NeighborMode::kMultiple:
      for (const ChannelIdx c : in) {
        if (rng_.chance(options_.channel_prob)) {
          chosen.push_back(c);
        }
      }
      break;
  }

  ActivationStep step;
  step.nodes = {v};
  for (const ChannelIdx c : chosen) {
    step.reads.push_back(make_read(state, c));
  }
  return step;
}

void RandomFairScheduler::enqueue_sweep() {
  const Graph& g = instance_->graph();
  const std::optional<std::uint32_t> count =
      (model_.messages == MessageMode::kOne)
          ? std::optional<std::uint32_t>(1u)
          : std::nullopt;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (model_.neighbors == NeighborMode::kOne) {
      for (const ChannelIdx c : g.in_channels(v)) {
        ActivationStep step;
        step.nodes = {v};
        step.reads.push_back(ReadSpec{c, count, {}});
        pending_sweep_.push_back(std::move(step));
      }
    } else {
      ActivationStep step;
      step.nodes = {v};
      for (const ChannelIdx c : g.in_channels(v)) {
        step.reads.push_back(ReadSpec{c, count, {}});
      }
      pending_sweep_.push_back(std::move(step));
    }
  }
}

ActivationStep RandomFairScheduler::next(const NetworkState& state) {
  ++steps_;
  if (!pending_sweep_.empty()) {
    ActivationStep step = std::move(pending_sweep_.front());
    pending_sweep_.pop_front();
    return step;
  }
  if (steps_ % options_.sweep_period == 0) {
    enqueue_sweep();
  }
  return random_step(state);
}

}  // namespace commroute::engine
