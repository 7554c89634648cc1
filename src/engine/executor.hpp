// The iterative routing algorithm's step semantics (Def. 2.3).
//
// Given an activation step (U, X, f, g), execute_step performs, in order:
//   1. Reads:  for every channel c = (u, v) in X, process
//              i = min(f(c), m_c) messages (all of them when f = all);
//              rho_v(c) becomes the payload of the last non-dropped
//              processed message, if any; the i messages leave the channel.
//   2. Select: every v in U picks the most preferred permitted extension
//              v . rho_v((u, v)) over its neighbors u (epsilon when none
//              is feasible); the destination always selects (d).
//   3. Announce: every v in U whose export value toward a neighbor changed
//              writes it to the corresponding out-channel. With the
//              default allow-all export policy this is exactly the
//              paper's "announce iff pi_v(t) != pi_v(t-1)" rule, plus the
//              destination's first self-announcement.
//
// Note on the paper's step 2(b): the printed "i = max{f(c), m_c(t)}" is a
// typo for min (one cannot process more messages than are present); see
// DESIGN.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/state.hpp"
#include "model/activation.hpp"
#include "obs/spans.hpp"

namespace commroute::engine {

/// What happened on one processed channel.
struct ReadEffect {
  ChannelIdx channel = kNoChannel;
  std::uint32_t processed = 0;  ///< i = messages removed from the channel
  std::uint32_t dropped = 0;    ///< how many of those were dropped
  bool delivered = false;       ///< true if rho was (re)assigned
};

/// What happened at one updating node. Paths are ids into the instance's
/// path table (spp::Instance::path).
struct NodeEffect {
  NodeId node = kNoNode;
  spp::PathId old_assignment = spp::kEpsilonPath;
  spp::PathId new_assignment = spp::kEpsilonPath;
  bool changed = false;
  /// In-channel whose rho furnished new_assignment (kNoChannel when the
  /// new assignment is epsilon or the node is the destination). Used by
  /// the Thm. 3.5 realization transform.
  ChannelIdx selected_from = kNoChannel;
};

/// One message written to a channel during announcements.
struct SentMessage {
  ChannelIdx channel = kNoChannel;
  spp::PathId path = spp::kEpsilonPath;  ///< epsilon = withdrawal
};

/// Complete effect of one activation step.
struct StepEffect {
  std::vector<ReadEffect> reads;
  std::vector<NodeEffect> nodes;
  std::vector<SentMessage> sent;
};

/// Executes one step, mutating `state`, and writes what happened into
/// `effect` (cleared first; its vectors keep their capacity, so a caller
/// that reuses one effect across steps allocates nothing for it). The
/// step must satisfy model::validate_step for `state.instance()`; callers
/// enforcing a model should check model::step_allowed first. With a span
/// collector attached, each updating node's select+announce is traced as
/// an "engine.activate" span (null = free, the usual guard idiom).
void execute_step(NetworkState& state, const model::ActivationStep& step,
                  StepEffect& effect, obs::SpanCollector* spans = nullptr);

/// The same, returning a fresh effect.
StepEffect execute_step(NetworkState& state,
                        const model::ActivationStep& step,
                        obs::SpanCollector* spans = nullptr);

/// Step 4's announce rule for out-channel `out` of a node holding `pi`:
/// the export value (pi, or epsilon where the export policy forbids it)
/// when it differs from the channel's last export (nothing exported
/// counts as epsilon), else kNoPath — nothing to write.
spp::PathId pending_export(const NetworkState& state, ChannelIdx out,
                           spp::PathId pi);

/// How many messages a read processes: i = min(f, m_c) of the m_c on
/// its channel, or m_c when f = all. A read with i = 0 touches nothing.
inline std::size_t processed_count(const NetworkState& state,
                                   const model::ReadSpec& read) {
  const std::size_t m = state.channel(read.channel).size();
  return read.count.has_value() ? std::min<std::size_t>(*read.count, m) : m;
}

/// True when activating v changes nothing: v's best permitted extension
/// is pi_v already, and no out-channel of v has a pending export. A step
/// whose reads all process zero messages (processed_count) at idle
/// nodes leaves the state word-for-word equal; any other step pops or
/// pushes a message. The model checker keeps such steps out of its
/// configuration graph as self-loops.
bool idle(const NetworkState& state, NodeId v);

}  // namespace commroute::engine
