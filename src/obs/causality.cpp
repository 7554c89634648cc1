#include "obs/causality.hpp"

#include <algorithm>
#include <deque>

#include "engine/state.hpp"
#include "scenario/fault.hpp"
#include "support/error.hpp"
#include "trace/recording_io.hpp"

namespace commroute::obs {

std::uint64_t CausalityGraph::critical_path_len() const {
  const CausalIndex t = terminal();
  return t == kNoCausalIndex ? 0 : activations_[t].depth;
}

std::uint64_t CausalityGraph::critical_path_us() const {
  const CausalIndex t = terminal();
  return (t == kNoCausalIndex || !timed_) ? 0 : activations_[t].t_us;
}

CausalIndex CausalityGraph::terminal() const {
  // The last assignment-changing activation; within its step the one
  // with the deepest chain (first such index on ties, deterministic).
  CausalIndex best = kNoCausalIndex;
  for (CausalIndex i = 0; i < activations_.size(); ++i) {
    const CausalActivation& a = activations_[i];
    if (!a.changed) {
      continue;
    }
    if (best == kNoCausalIndex || a.step > activations_[best].step ||
        (a.step == activations_[best].step &&
         a.depth > activations_[best].depth)) {
      best = i;
    }
  }
  return best;
}

CausalLink CausalityGraph::link_for(CausalIndex a, ChannelIdx via) const {
  const CausalActivation& act = activations_[a];
  CausalLink link;
  link.activation = a;
  link.step = act.step;
  link.node = act.node;
  link.t_us = act.t_us;
  link.changed = act.changed;
  link.via = via;
  return link;
}

std::vector<CausalLink> CausalityGraph::critical_path() const {
  std::vector<CausalLink> rev;
  CausalIndex cur = terminal();
  while (cur != kNoCausalIndex) {
    rev.push_back(link_for(cur, kNoChannel));
    // Deepest parent; the program-order edge wins ties (considered
    // first, strict improvement required), keeping extraction
    // deterministic. depth(parent) == depth(cur) - 1 by the DP, so the
    // chain length equals the terminal depth.
    const CausalActivation& a = activations_[cur];
    CausalIndex parent = a.prog_parent;
    std::uint64_t parent_depth =
        parent == kNoCausalIndex ? 0 : activations_[parent].depth;
    ChannelIdx via = kNoChannel;
    for (const CausalIndex m : a.consumed) {
      const CausalIndex s = messages_[m].sender;
      if (s != kNoCausalIndex && activations_[s].depth > parent_depth) {
        parent = s;
        parent_depth = activations_[s].depth;
        via = messages_[m].channel;
      }
    }
    rev.back().via = via;
    cur = parent;
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

std::vector<std::uint64_t> CausalityGraph::influence() const {
  // Ancestor-node bitsets, one pass in topological (= insertion) order:
  // anc(a) = {a.node} | anc(prog_parent) | anc(sender of each consumed).
  const std::size_t n = node_count();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> anc(activations_.size() * words, 0);
  std::vector<std::uint64_t> counts(n, 0);
  for (CausalIndex i = 0; i < activations_.size(); ++i) {
    const CausalActivation& a = activations_[i];
    std::uint64_t* w = anc.data() + static_cast<std::size_t>(i) * words;
    const auto merge = [&](CausalIndex parent) {
      const std::uint64_t* p =
          anc.data() + static_cast<std::size_t>(parent) * words;
      for (std::size_t k = 0; k < words; ++k) {
        w[k] |= p[k];
      }
    };
    if (a.prog_parent != kNoCausalIndex) {
      merge(a.prog_parent);
    }
    for (const CausalIndex m : a.consumed) {
      if (messages_[m].sender != kNoCausalIndex) {
        merge(messages_[m].sender);
      }
    }
    w[a.node / 64] |= std::uint64_t{1} << (a.node % 64);
    for (std::size_t v = 0; v < n; ++v) {
      if ((w[v / 64] >> (v % 64)) & 1) {
        ++counts[v];
      }
    }
  }
  return counts;
}

CausalityGraph::RootCause CausalityGraph::root_cause(NodeId v) const {
  CR_REQUIRE(v < node_count(), "root_cause: node out of range");
  RootCause rc;
  rc.node = v;
  CausalIndex cur = kNoCausalIndex;
  for (CausalIndex i = 0; i < activations_.size(); ++i) {
    if (activations_[i].node == v && activations_[i].changed) {
      cur = i;  // last change wins (insertion order = step order)
    }
  }
  if (cur == kNoCausalIndex) {
    return rc;  // pi(v) never changed inside the window
  }
  std::vector<CausalLink> rev;
  for (;;) {
    // Strictly decreasing steps (a message is sent before it is
    // consumed, and adopted no earlier than consumed), so this
    // terminates.
    const CausalActivation& a = activations_[cur];
    rev.push_back(link_for(cur, kNoChannel));
    if (a.adoption_unknown) {
      rc.complete = false;
      break;
    }
    if (a.adopted == kNoCausalIndex) {
      break;  // genuine origin: epsilon selection or the destination
    }
    const CausalMessage& m = messages_[a.adopted];
    rev.back().via = m.channel;
    if (m.sender == kNoCausalIndex) {
      rc.complete = false;  // provenance left the recorded window
      break;
    }
    cur = m.sender;
  }
  std::reverse(rev.begin(), rev.end());
  rc.chain = std::move(rev);
  return rc;
}

CausalityStats CausalityGraph::stats() const {
  CausalityStats s;
  s.activations = activations_.size();
  s.messages = messages_.size();
  for (const CausalActivation& a : activations_) {
    s.consume_edges += a.consumed.size();
    if (a.prog_parent != kNoCausalIndex) {
      ++s.program_edges;
    }
    if (a.adopted != kNoCausalIndex) {
      ++s.adoption_edges;
    }
    if (a.depth == 1) {
      ++s.roots;
    }
    s.max_depth = std::max(s.max_depth, a.depth);
  }
  for (const CausalMessage& m : messages_) {
    if (m.sender != kNoCausalIndex) {
      ++s.emit_edges;
    }
    if (m.dropped) {
      ++s.dropped_messages;
    }
    if (m.flushed) {
      ++s.flushed_messages;
    } else if (m.consumer == kNoCausalIndex) {
      ++s.in_flight_messages;
    }
  }
  s.faults = faults_.size();
  s.unknown_origin_messages = unknown_origin_;
  s.critical_path_len = critical_path_len();
  s.critical_path_us = critical_path_us();
  s.truncated = truncated_;
  s.timed = timed_;
  return s;
}

CausalityRecorder::CausalityRecorder(const spp::Instance& instance,
                                     std::uint64_t first_step)
    : instance_(&instance), next_step_(first_step) {
  CR_REQUIRE(first_step >= 1, "causality: first_step must be >= 1");
  const Graph& g = instance.graph();
  graph_.first_step_ = first_step;
  graph_.truncated_ = first_step > 1;
  graph_.node_names_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    graph_.node_names_.push_back(g.name(v));
  }
  graph_.channel_names_.reserve(g.channel_count());
  for (ChannelIdx c = 0; c < g.channel_count(); ++c) {
    graph_.channel_names_.push_back(g.channel_name(c));
  }
  channel_mirror_.resize(g.channel_count());
  rho_provenance_.assign(g.channel_count(), kNoCausalIndex);
  last_activation_.assign(g.node_count(), kNoCausalIndex);
  step_activation_.assign(g.node_count(), kNoCausalIndex);
}

void CausalityRecorder::set_adoption_unavailable() {
  adoption_available_ = false;
}

void CausalityRecorder::record(const model::ActivationStep& step,
                               const engine::StepEffect& effect,
                               std::uint64_t step_index,
                               std::optional<std::uint64_t> t_us) {
  CR_REQUIRE(step_index == next_step_,
             "causality: steps must be recorded contiguously (expected " +
                 std::to_string(next_step_) + ", got " +
                 std::to_string(step_index) + ")");
  ++next_step_;
  if (graph_.activations_.empty()) {
    graph_.timed_ = t_us.has_value();
  }
  const Graph& g = instance_->graph();

  // One vertex per updating node. U is sorted and duplicate-free
  // (model::validate_step), and announcements happen after reads, so
  // every causal parent of these vertices already has a final depth.
  for (const NodeId v : step.nodes) {
    CausalActivation a;
    a.step = step_index;
    a.node = v;
    a.t_us = t_us.value_or(0);
    a.prog_parent = last_activation_[v];
    step_activation_[v] =
        static_cast<CausalIndex>(graph_.activations_.size());
    graph_.activations_.push_back(std::move(a));
  }

  // Reads: consume edges, drop marks (from g, 1-based indices into the
  // processed prefix), and rho provenance. effect.reads is parallel to
  // step.reads (execute_step preserves X's order).
  CR_ASSERT(effect.reads.size() == step.reads.size(),
            "causality: effect/step read mismatch");
  for (std::size_t i = 0; i < effect.reads.size(); ++i) {
    const engine::ReadEffect& read = effect.reads[i];
    const model::ReadSpec& spec = step.reads[i];
    CR_ASSERT(read.channel == spec.channel,
              "causality: effect/step read channel mismatch");
    const NodeId receiver = g.channel_id(read.channel).to;
    const CausalIndex consumer = step_activation_[receiver];
    CR_ASSERT(consumer != kNoCausalIndex,
              "causality: read receiver not in U");
    std::deque<CausalIndex>& mirror = channel_mirror_[read.channel];
    std::size_t drop_cursor = 0;
    for (std::uint32_t j = 1; j <= read.processed; ++j) {
      CausalIndex m;
      if (!mirror.empty()) {
        m = mirror.front();
        mirror.pop_front();
      } else {
        // Already in flight when a truncated window began: an
        // unknown-origin vertex (its chain contribution is 0).
        CausalMessage msg;
        msg.channel = read.channel;
        m = static_cast<CausalIndex>(graph_.messages_.size());
        graph_.messages_.push_back(msg);
        ++graph_.unknown_origin_;
      }
      CausalMessage& msg = graph_.messages_[m];
      msg.consumer = consumer;
      msg.consume_step = step_index;
      while (drop_cursor < spec.drops.size() &&
             spec.drops[drop_cursor] < j) {
        ++drop_cursor;
      }
      msg.dropped = drop_cursor < spec.drops.size() &&
                    spec.drops[drop_cursor] == j;
      if (!msg.dropped) {
        rho_provenance_[read.channel] = m;
      }
      graph_.activations_[consumer].consumed.push_back(m);
    }
  }

  // Selects: changed flags and adoption (data-flow) edges.
  CR_ASSERT(effect.nodes.size() == step.nodes.size(),
            "causality: effect/step node mismatch");
  for (const engine::NodeEffect& node : effect.nodes) {
    CausalActivation& a =
        graph_.activations_[step_activation_[node.node]];
    a.changed = node.changed;
    if (!adoption_available_) {
      a.adoption_unknown = node.changed;
    } else if (node.selected_from != kNoChannel) {
      a.adopted = rho_provenance_[node.selected_from];
      // rho predates a truncated window: provenance unknowable.
      a.adoption_unknown = a.adopted == kNoCausalIndex;
    }
  }

  // Depth DP: 1 + the deepest parent (program order or the sender of a
  // consumed message; unknown-origin messages contribute 0).
  for (const NodeId v : step.nodes) {
    CausalActivation& a = graph_.activations_[step_activation_[v]];
    std::uint64_t best = 0;
    if (a.prog_parent != kNoCausalIndex) {
      best = graph_.activations_[a.prog_parent].depth;
    }
    for (const CausalIndex m : a.consumed) {
      const CausalIndex s = graph_.messages_[m].sender;
      if (s != kNoCausalIndex) {
        best = std::max(best, graph_.activations_[s].depth);
      }
    }
    a.depth = best + 1;
  }

  // Announces: emit edges, mirrored onto the channel queues so later
  // reads pop the right vertices (channels are FIFO).
  for (const engine::SentMessage& sent : effect.sent) {
    const NodeId from = g.channel_id(sent.channel).from;
    const CausalIndex sender = step_activation_[from];
    CR_ASSERT(sender != kNoCausalIndex, "causality: sender not in U");
    CausalMessage msg;
    msg.channel = sent.channel;
    msg.sender = sender;
    msg.send_step = step_index;
    channel_mirror_[sent.channel].push_back(
        static_cast<CausalIndex>(graph_.messages_.size()));
    graph_.messages_.push_back(msg);
  }

  for (const NodeId v : step.nodes) {
    last_activation_[v] = step_activation_[v];
    step_activation_[v] = kNoCausalIndex;
  }
}

void CausalityRecorder::record_fault(std::string text, std::uint64_t t_us) {
  CausalFault f;
  f.before = next_step_;
  f.text = std::move(text);
  f.t_us = t_us;
  graph_.faults_.push_back(std::move(f));
}

void CausalityRecorder::flush_channel(ChannelIdx c) {
  CR_REQUIRE(c < channel_mirror_.size(),
             "causality: flushed channel out of range");
  for (const CausalIndex m : channel_mirror_[c]) {
    graph_.messages_[m].flushed = true;
  }
  channel_mirror_[c].clear();
  // Whatever the reader had learned from c is gone with the session;
  // adoption provenance for a post-fault rho re-learn starts fresh.
  rho_provenance_[c] = kNoCausalIndex;
}

CausalityGraph CausalityRecorder::finish() && { return std::move(graph_); }

CausalityGraph build_causality(const spp::Instance& instance,
                               const trace::RecordingDoc& doc) {
  CR_REQUIRE(doc.trace.size() == doc.steps.size() + 1,
             "causality: recording steps/trace mismatch");
  const auto step_time =
      [&](std::size_t t) -> std::optional<std::uint64_t> {
    return doc.step_time_us.empty()
               ? std::nullopt
               : std::optional<std::uint64_t>(doc.step_time_us[t]);
  };

  if (doc.complete()) {
    // Replayable window: re-execute for exact effects (works for any
    // loadable recording, I/O fields or not — replay is deterministic).
    // Recorded faults (schema v3) are re-applied at their recorded
    // positions so the mirrors stay in lockstep with the faulted run.
    engine::NetworkState state(instance);
    CausalityRecorder recorder(instance);
    std::size_t next_fault = 0;
    const auto apply_faults_before = [&](std::uint64_t step_index) {
      while (next_fault < doc.faults.size() &&
             doc.faults[next_fault].before <= step_index) {
        const trace::RecordedFault& f = doc.faults[next_fault++];
        const scenario::FaultEvent ev =
            scenario::parse_fault(f.text, instance);
        recorder.record_fault(f.text, f.t_us);
        for (const ChannelIdx c : scenario::apply_fault(state, ev).flushed) {
          recorder.flush_channel(c);
        }
      }
    };
    for (std::size_t t = 0; t < doc.steps.size(); ++t) {
      apply_faults_before(t + 1);
      const engine::StepEffect effect =
          engine::execute_step(state, doc.steps[t]);
      recorder.record(doc.steps[t], effect, t + 1, step_time(t));
    }
    apply_faults_before(doc.steps.size() + 1);
    return std::move(recorder).finish();
  }

  // Ring window: seed from the recorded per-step I/O. The channel state
  // at the window edge is unknown, so reads that outrun the mirrored
  // sends synthesize unknown-origin messages and the graph reports
  // itself truncated.
  CR_REQUIRE(!doc.io.empty(),
             "cannot build a causal DAG from a ring window without "
             "per-step I/O fields (recording starts at step " +
                 std::to_string(doc.meta.first_step) +
                 " and carries no \"sent\"/\"reads\" records)");
  CausalityRecorder recorder(instance, doc.meta.first_step);
  bool has_selected = true;
  for (std::size_t t = 0; t < doc.steps.size(); ++t) {
    if (doc.io[t].selected.size() != doc.steps[t].nodes.size()) {
      has_selected = false;  // schema-v1 window: no selection provenance
      break;
    }
  }
  if (!has_selected) {
    recorder.set_adoption_unavailable();
  }
  // Faults inside the window: no state to mutate here, but the flushed
  // channel set is purely topological, so the mirror still tracks them.
  std::size_t next_fault = 0;
  const auto apply_faults_before = [&](std::uint64_t step_index) {
    while (next_fault < doc.faults.size() &&
           doc.faults[next_fault].before <= step_index) {
      const trace::RecordedFault& f = doc.faults[next_fault++];
      recorder.record_fault(f.text, f.t_us);
      for (const ChannelIdx c : scenario::fault_flushed_channels(
               instance, scenario::parse_fault(f.text, instance))) {
        recorder.flush_channel(c);
      }
    }
  };
  for (std::size_t t = 0; t < doc.steps.size(); ++t) {
    apply_faults_before(doc.meta.first_step + t);
    const trace::StepIo& io = doc.io[t];
    CR_REQUIRE(io.reads.size() == doc.steps[t].reads.size(),
               "causality: recorded I/O does not match the step's reads");
    engine::StepEffect effect;
    effect.reads.reserve(io.reads.size());
    for (const trace::StepIo::Read& read : io.reads) {
      engine::ReadEffect re;
      re.channel = read.channel;
      re.processed = read.processed;
      re.dropped = read.dropped;
      effect.reads.push_back(std::move(re));
    }
    const std::span<const trace::Change> changes = doc.trace.changes(t + 1);
    effect.nodes.reserve(doc.steps[t].nodes.size());
    for (std::size_t k = 0; k < doc.steps[t].nodes.size(); ++k) {
      engine::NodeEffect ne;
      ne.node = doc.steps[t].nodes[k];
      ne.changed = std::any_of(
          changes.begin(), changes.end(),
          [&](const trace::Change& c) { return c.node == ne.node; });
      ne.selected_from = has_selected ? io.selected[k] : kNoChannel;
      effect.nodes.push_back(std::move(ne));
    }
    effect.sent.reserve(io.sent.size());
    for (const ChannelIdx c : io.sent) {
      effect.sent.push_back(engine::SentMessage{c});
    }
    recorder.record(doc.steps[t], effect, doc.meta.first_step + t,
                    step_time(t));
  }
  apply_faults_before(doc.meta.first_step + doc.steps.size());
  return std::move(recorder).finish();
}

}  // namespace commroute::obs
