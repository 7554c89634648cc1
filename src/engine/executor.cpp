#include "engine/executor.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace commroute::engine {

namespace {

/// Phase 1 for one channel: remove i = min(f, m) messages (all when
/// f = all), deliver the last non-dropped one into rho.
ReadEffect process_read(NetworkState& state, const model::ReadSpec& read) {
  ReadEffect effect;
  effect.channel = read.channel;

  MutableChannel channel = state.mutable_channel(read.channel);
  const std::size_t i = processed_count(state, read);
  effect.processed = static_cast<std::uint32_t>(i);
  if (i == 0) {
    return effect;
  }

  // Largest index in {1..i} \ g, if any (indices are 1-based).
  std::size_t last_kept = 0;  // 0 = none
  std::size_t dropped_within_i = 0;
  {
    auto drop_it = read.drops.begin();
    for (std::size_t idx = 1; idx <= i; ++idx) {
      while (drop_it != read.drops.end() && *drop_it < idx) {
        ++drop_it;
      }
      const bool dropped = (drop_it != read.drops.end() && *drop_it == idx);
      if (dropped) {
        ++dropped_within_i;
      } else {
        last_kept = idx;
      }
    }
  }
  effect.dropped = static_cast<std::uint32_t>(dropped_within_i);

  if (last_kept != 0) {
    effect.delivered = true;
    state.set_known_id(read.channel, channel.id(last_kept - 1));
  }
  channel.pop_front_n(i);
  return effect;
}

/// v's best permitted extension of its known routes, read from the
/// instance's selection table, and the in-channel it extends.
struct Selection {
  spp::PathId path = spp::kEpsilonPath;  ///< epsilon when none is feasible
  ChannelIdx from = kNoChannel;  ///< kNoChannel for epsilon and at d
};

Selection best_extension(const NetworkState& state, NodeId v) {
  const spp::Instance& inst = state.instance();
  Selection best;
  if (v == inst.destination()) {
    best.path = inst.permitted_id(v, 0);  // (d)
    return best;
  }
  for (const ChannelIdx c : inst.graph().in_channels(v)) {
    const spp::PathId candidate = inst.extension(v, state.known_id(c));
    if (candidate == spp::kNoPath) {
      continue;
    }
    // Lower ids rank higher among v's paths; ties keep the first.
    if (best.from == kNoChannel || candidate < best.path) {
      best.path = candidate;
      best.from = c;
    }
  }
  return best;
}

/// Phase 2 for one node: pi_v becomes its best extension.
NodeEffect select(NetworkState& state, NodeId v) {
  NodeEffect effect;
  effect.node = v;
  effect.old_assignment = state.assignment_id(v);
  const Selection best = best_extension(state, v);
  effect.new_assignment = best.path;
  effect.selected_from = best.from;
  effect.changed = (effect.new_assignment != effect.old_assignment);
  state.set_assignment_id(v, effect.new_assignment);
  return effect;
}

/// Phase 3 for one node: write the export value to each out-channel whose
/// last exported value differs. With allow-all export this reduces to the
/// paper's announce-on-change rule plus the first announcement.
void announce(NetworkState& state, const NodeEffect& node_effect,
              std::vector<SentMessage>& sent) {
  for (const ChannelIdx out :
       state.instance().graph().out_channels(node_effect.node)) {
    const spp::PathId value =
        pending_export(state, out, node_effect.new_assignment);
    if (value == spp::kNoPath) {
      continue;
    }
    state.mutable_channel(out).push(value);
    state.set_exported_id(out, value);
    sent.push_back(SentMessage{out, value});
  }
}

}  // namespace

bool idle(const NetworkState& state, NodeId v) {
  const spp::PathId pi = state.assignment_id(v);
  if (best_extension(state, v).path != pi) {
    return false;
  }
  for (const ChannelIdx out : state.instance().graph().out_channels(v)) {
    if (pending_export(state, out, pi) != spp::kNoPath) {
      return false;
    }
  }
  return true;
}

spp::PathId pending_export(const NetworkState& state, ChannelIdx out,
                           spp::PathId pi) {
  const spp::Instance& inst = state.instance();
  const ChannelId id = inst.graph().channel_id(out);
  const spp::PathId value =
      (pi != spp::kEpsilonPath &&
       inst.export_allows(id.from, id.to, inst.path(pi)))
          ? pi
          : spp::kEpsilonPath;
  const spp::PathId last = state.exported_id(out);
  const spp::PathId previous = last == spp::kNoPath ? spp::kEpsilonPath : last;
  return value == previous ? spp::kNoPath : value;
}

void execute_step(NetworkState& state, const model::ActivationStep& step,
                  StepEffect& effect, obs::SpanCollector* spans) {
  model::validate_step(state.instance(), step);

  effect.reads.clear();
  effect.nodes.clear();
  effect.sent.clear();
  effect.reads.reserve(step.reads.size());
  for (const model::ReadSpec& read : step.reads) {
    effect.reads.push_back(process_read(state, read));
  }
  effect.nodes.reserve(step.nodes.size());
  for (const NodeId v : step.nodes) {
    obs::Span activate = obs::begin_span(spans, "engine.activate");
    effect.nodes.push_back(select(state, v));
    if (activate.enabled()) {
      activate.attr("node", static_cast<std::uint64_t>(v))
          .attr("changed", effect.nodes.back().changed);
    }
  }
  for (const NodeEffect& node_effect : effect.nodes) {
    announce(state, node_effect, effect.sent);
  }
}

StepEffect execute_step(NetworkState& state,
                        const model::ActivationStep& step,
                        obs::SpanCollector* spans) {
  StepEffect effect;
  execute_step(state, step, effect, spans);
  return effect;
}

}  // namespace commroute::engine
