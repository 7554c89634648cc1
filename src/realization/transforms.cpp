#include "realization/transforms.hpp"

#include <algorithm>
#include <unordered_map>

#include "engine/executor.hpp"
#include "support/error.hpp"

namespace commroute::realization {

using model::ActivationStep;
using model::MessageMode;
using model::Model;
using model::NeighborMode;
using model::ReadSpec;
using model::Reliability;

namespace {

/// Some transforms drop source steps that consumed nothing. One such step
/// must not be dropped: the destination's first activation, whose only
/// effect is announcing (d). This emits a stand-in activation of the
/// destination that is legal in the target model. It may consume messages
/// from a channel *into* the destination, which is harmless: the
/// destination never selects based on received routes, so neither the
/// assignment trace nor any other node's behavior can observe it.
model::ActivationStep destination_standin(const spp::Instance& instance,
                                          const Model& target,
                                          ChannelIdx preferred) {
  const NodeId d = instance.destination();
  ChannelIdx c = preferred;
  if (c == kNoChannel) {
    c = instance.graph().in_channels(d).front();
  }
  std::optional<std::uint32_t> f;
  switch (target.messages) {
    case MessageMode::kOne:
      f = 1u;
      break;
    case MessageMode::kSome:
      f = 0u;  // consume nothing at all
      break;
    case MessageMode::kForced:
      f = 1u;
      break;
    case MessageMode::kAll:
      f = std::nullopt;
      break;
  }
  ActivationStep step;
  step.nodes = {d};
  step.reads = {ReadSpec{c, f, {}}};
  return step;
}

// ---- Prop. 3.4: wMS -> wES -------------------------------------------------

model::ActivationScript pad_empty_reads(const spp::Instance& instance,
                                        const trace::Recording& recording) {
  model::ActivationScript out;
  out.reserve(recording.steps.size());
  for (const trace::RecordedStep& rs : recording.steps) {
    ActivationStep step = rs.step;
    const NodeId v = step.node();
    for (const ChannelIdx c : instance.graph().in_channels(v)) {
      const bool present =
          std::any_of(step.reads.begin(), step.reads.end(),
                      [c](const ReadSpec& r) { return r.channel == c; });
      if (!present) {
        step.reads.push_back(ReadSpec{c, 0u, {}});
      }
    }
    out.push_back(std::move(step));
  }
  return out;
}

// ---- Thm. 3.5: wMy -> w1y --------------------------------------------------

model::ActivationScript expand_multi(const spp::Instance& instance,
                                     const Model& target,
                                     const trace::Recording& recording) {
  const Graph& g = instance.graph();
  const std::vector<trace::Assignment> pi = recording.trace.states();
  model::ActivationScript out;

  for (std::size_t t = 0; t < recording.steps.size(); ++t) {
    const ActivationStep& step = recording.steps[t].step;
    const NodeId v = step.node();
    if (step.reads.empty()) {
      // An empty-X step changes no assignment; drop it — unless it was the
      // destination's first activation, whose announcement must survive.
      if (!recording.steps[t].effect.sent.empty()) {
        CR_ASSERT(v == instance.destination(),
                  "only the destination can announce without reading");
        out.push_back(destination_standin(instance, target, kNoChannel));
      }
      continue;
    }

    const Path& old_path = pi[t][v];      // P
    const Path& new_path = pi[t + 1][v];  // Q
    const ChannelIdx new_channel =
        (new_path.size() >= 2) ? g.channel(new_path.next_hop(), v)
                               : kNoChannel;
    const ChannelIdx old_channel =
        (old_path.size() >= 2) ? g.channel(old_path.next_hop(), v)
                               : kNoChannel;

    // Order the reads: channel of Q first, channel of P last; when they
    // coincide, first if Q is preferred to P, last otherwise.
    std::vector<ReadSpec> ordered = step.reads;
    std::stable_sort(
        ordered.begin(), ordered.end(),
        [&](const ReadSpec& a, const ReadSpec& b) {
          const auto priority = [&](const ReadSpec& r) -> int {
            if (new_channel == old_channel) {
              if (r.channel != new_channel || new_channel == kNoChannel) {
                return 1;
              }
              if (new_path == old_path) {
                return 1;
              }
              // Same channel furnishing both: first on improvement.
              const bool improved =
                  old_path.empty() ||
                  (!new_path.empty() &&
                   instance.prefers(v, new_path, old_path));
              return improved ? 0 : 2;
            }
            if (r.channel == new_channel) {
              return 0;
            }
            if (r.channel == old_channel) {
              return 2;
            }
            return 1;
          };
          return priority(a) < priority(b);
        });

    for (const ReadSpec& read : ordered) {
      ActivationStep single;
      single.nodes = {v};
      single.reads = {read};
      out.push_back(std::move(single));
    }
  }
  return out;
}

// ---- Prop. 3.6 (unreliable): U1S -> U1O -----------------------------------

model::ActivationScript split_drop_all_but_last(
    const spp::Instance& instance, const trace::Recording& recording) {
  const Model u1o = Model::parse("U1O");
  model::ActivationScript out;
  for (const trace::RecordedStep& rs : recording.steps) {
    const ActivationStep& step = rs.step;
    CR_REQUIRE(step.reads.size() == 1, "U1S steps read exactly one channel");
    const ReadSpec& read = step.reads[0];
    const engine::ReadEffect& effect = rs.effect.reads[0];
    const std::uint32_t processed = effect.processed;
    if (processed == 0) {
      // Nothing was consumed: drop the step unless it announced (the
      // destination's first activation).
      if (!rs.effect.sent.empty()) {
        CR_ASSERT(step.node() == instance.destination(),
                  "only the destination can announce without consuming");
        out.push_back(destination_standin(instance, u1o, read.channel));
      }
      continue;
    }
    // Largest processed index not in g: the message U1S delivered.
    std::uint32_t delivered_index = 0;  // 0 = everything was dropped
    for (std::uint32_t idx = processed; idx >= 1; --idx) {
      if (!std::binary_search(read.drops.begin(), read.drops.end(), idx)) {
        delivered_index = idx;
        break;
      }
    }
    for (std::uint32_t idx = 1; idx <= processed; ++idx) {
      ActivationStep single;
      single.nodes = step.nodes;
      ReadSpec r{read.channel, 1u, {}};
      if (idx != delivered_index) {
        r.drops = {1};
      }
      single.reads = {std::move(r)};
      out.push_back(std::move(single));
    }
  }
  return out;
}

// ---- Thm. 3.7: U1O -> R1S --------------------------------------------------

model::ActivationScript accumulate_skips(const spp::Instance& instance,
                                         const trace::Recording& recording) {
  std::vector<std::uint32_t> pending(instance.graph().channel_count(), 0);
  model::ActivationScript out;
  for (const trace::RecordedStep& rs : recording.steps) {
    const ActivationStep& step = rs.step;
    CR_REQUIRE(step.reads.size() == 1, "U1O steps read exactly one channel");
    const ReadSpec& read = step.reads[0];
    const engine::ReadEffect& effect = rs.effect.reads[0];

    ActivationStep replacement;
    replacement.nodes = step.nodes;
    if (effect.processed == 0) {
      // Empty channel: an attempt that consumes nothing.
      replacement.reads = {ReadSpec{read.channel, 0u, {}}};
    } else if (effect.dropped > 0) {
      // The single processed message was dropped: leave it in the R1S
      // channel for the next delivered read to consume.
      ++pending[read.channel];
      replacement.reads = {ReadSpec{read.channel, 0u, {}}};
    } else {
      const std::uint32_t consume = pending[read.channel] + 1;
      pending[read.channel] = 0;
      replacement.reads = {ReadSpec{read.channel, consume, {}}};
    }
    out.push_back(std::move(replacement));
  }
  return out;
}

// ---- Prop. 3.6 (reliable): R1S -> R1O --------------------------------------

constexpr std::uint64_t kFlagTag = 1;

model::ActivationScript flag_batches(const spp::Instance& instance,
                                     const trace::Recording& recording) {
  const Graph& g = instance.graph();
  engine::NetworkState sim(instance);  // the R1O system, simulated
  model::ActivationScript out;

  for (const trace::RecordedStep& rs : recording.steps) {
    const ActivationStep& step = rs.step;
    const NodeId v = step.node();
    CR_REQUIRE(step.reads.size() == 1, "R1S steps read exactly one channel");
    const ReadSpec& read = step.reads[0];
    const ChannelIdx c = read.channel;
    const std::uint32_t i = rs.effect.reads[0].processed;

    const bool into_destination = (v == instance.destination());

    if (read.count.has_value() && *read.count == 0) {
      // f = 0: the paper's construction deletes the step — except the
      // destination's first activation, whose announcement must survive.
      if (rs.effect.sent.empty()) {
        continue;
      }
      CR_ASSERT(into_destination,
                "only the destination can announce on an f = 0 read");
      // Fall through with k = 0: one stand-in mini-step is emitted below.
    }

    const engine::Channel channel = sim.channel(c);
    const std::size_t m = channel.size();

    std::size_t k = 0;
    if (read.count.has_value() && *read.count == 0) {
      k = 0;
    } else if (into_destination) {
      // Channels into the destination never influence any assignment (the
      // destination always selects itself), so flag bookkeeping is
      // unnecessary; consuming roughly as much as the R1S system keeps
      // the queue drained.
      k = std::min<std::size_t>(i, m);
    } else {
      std::size_t flags = 0;
      for (std::size_t idx = 0; idx < m; ++idx) {
        if (channel.tag(idx) == kFlagTag) {
          ++flags;
        }
      }
      if (i == 0) {
        CR_ASSERT(flags == 0,
                  "R1S processed nothing but flagged messages are queued");
        k = m;  // consume trailing unflagged groups (they re-sync rho)
      } else {
        CR_ASSERT(flags >= i, "fewer flagged messages than R1S processed");
        std::size_t seen = 0;
        for (std::size_t idx = 0; idx < m; ++idx) {
          if (channel.tag(idx) == kFlagTag && ++seen == i) {
            k = idx + 1;
            break;
          }
        }
      }
    }

    // Remember out-channel tails to locate this batch's announcements.
    std::unordered_map<ChannelIdx, std::size_t> out_sizes;
    for (const ChannelIdx oc : g.out_channels(v)) {
      out_sizes[oc] = sim.channel(oc).size();
    }

    const std::size_t mini_steps = std::max<std::size_t>(k, 1);
    for (std::size_t s = 0; s < mini_steps; ++s) {
      ActivationStep single;
      single.nodes = {v};
      single.reads = {ReadSpec{c, 1u, {}}};
      engine::execute_step(sim, single);
      out.push_back(std::move(single));
    }

    // Flag the final announcement of the batch iff the R1S system
    // announced at this step (covers both announce-on-change and the
    // destination's first self-announcement). The batch's last appended
    // message carries the batch-final assignment, which equals the R1S
    // announcement by the lockstep invariant.
    for (const engine::SentMessage& sent : rs.effect.sent) {
      engine::MutableChannel och = sim.mutable_channel(sent.channel);
      CR_ASSERT(och.size() > out_sizes[sent.channel],
                "lockstep violated: R1S announced but the simulated R1O "
                "batch did not");
      CR_ASSERT(och.id(och.size() - 1) == sent.path,
                "lockstep violated: final R1O announcement differs from "
                "the R1S announcement");
      och.set_tag(och.size() - 1, kFlagTag);
    }
  }
  return out;
}

}  // namespace

std::vector<TransformCase> all_transform_cases() {
  std::vector<TransformCase> cases;
  const std::vector<Reliability> ws{Reliability::kReliable,
                                    Reliability::kUnreliable};
  const std::vector<NeighborMode> xs{NeighborMode::kOne,
                                     NeighborMode::kMultiple,
                                     NeighborMode::kEvery};
  const std::vector<MessageMode> ys{MessageMode::kOne, MessageMode::kSome,
                                    MessageMode::kForced, MessageMode::kAll};
  const auto make = [](Reliability w, NeighborMode x, MessageMode y) {
    return Model{w, x, y};
  };

  // Prop. 3.3(1): Rxy -> Uxy.
  for (const NeighborMode x : xs) {
    for (const MessageMode y : ys) {
      cases.push_back({"Prop. 3.3(1)", make(Reliability::kReliable, x, y),
                       make(Reliability::kUnreliable, x, y),
                       Strength::kExact, TransformRule::kIdentity});
    }
  }
  for (const Reliability w : ws) {
    for (const NeighborMode x : xs) {
      // Prop. 3.3(2): wxF -> wxS.
      cases.push_back({"Prop. 3.3(2)", make(w, x, MessageMode::kForced),
                       make(w, x, MessageMode::kSome), Strength::kExact,
                       TransformRule::kIdentity});
      // Prop. 3.3(3): wxO -> wxF and wxA -> wxF.
      cases.push_back({"Prop. 3.3(3)", make(w, x, MessageMode::kOne),
                       make(w, x, MessageMode::kForced), Strength::kExact,
                       TransformRule::kIdentity});
      cases.push_back({"Prop. 3.3(3)", make(w, x, MessageMode::kAll),
                       make(w, x, MessageMode::kForced), Strength::kExact,
                       TransformRule::kIdentity});
    }
    for (const MessageMode y : ys) {
      // Prop. 3.3(4): w1y -> wMy and wEy -> wMy.
      cases.push_back({"Prop. 3.3(4)", make(w, NeighborMode::kOne, y),
                       make(w, NeighborMode::kMultiple, y), Strength::kExact,
                       TransformRule::kIdentity});
      cases.push_back({"Prop. 3.3(4)", make(w, NeighborMode::kEvery, y),
                       make(w, NeighborMode::kMultiple, y), Strength::kExact,
                       TransformRule::kIdentity});
      // Thm. 3.5: wMy -> w1y.
      cases.push_back({"Thm. 3.5", make(w, NeighborMode::kMultiple, y),
                       make(w, NeighborMode::kOne, y), Strength::kRepetition,
                       TransformRule::kExpandMulti});
    }
    // Prop. 3.4: wMS -> wES.
    cases.push_back({"Prop. 3.4",
                     make(w, NeighborMode::kMultiple, MessageMode::kSome),
                     make(w, NeighborMode::kEvery, MessageMode::kSome),
                     Strength::kExact, TransformRule::kPadEmptyReads});
  }
  // Prop. 3.6: R1S -> R1O (subsequence) and U1S -> U1O (repetition).
  cases.push_back({"Prop. 3.6", Model::parse("R1S"), Model::parse("R1O"),
                   Strength::kSubsequence, TransformRule::kFlagBatches});
  cases.push_back({"Prop. 3.6", Model::parse("U1S"), Model::parse("U1O"),
                   Strength::kRepetition,
                   TransformRule::kSplitDropAllButLast});
  // Thm. 3.7: U1O -> R1S.
  cases.push_back({"Thm. 3.7", Model::parse("U1O"), Model::parse("R1S"),
                   Strength::kExact, TransformRule::kAccumulateSkips});
  return cases;
}

model::ActivationScript apply_transform(const TransformCase& c,
                                        const spp::Instance& instance,
                                        const trace::Recording& recording) {
  switch (c.rule) {
    case TransformRule::kIdentity: {
      model::ActivationScript out;
      out.reserve(recording.steps.size());
      for (const trace::RecordedStep& rs : recording.steps) {
        out.push_back(rs.step);
      }
      return out;
    }
    case TransformRule::kPadEmptyReads:
      return pad_empty_reads(instance, recording);
    case TransformRule::kExpandMulti:
      return expand_multi(instance, c.to, recording);
    case TransformRule::kFlagBatches:
      return flag_batches(instance, recording);
    case TransformRule::kSplitDropAllButLast:
      return split_drop_all_but_last(instance, recording);
    case TransformRule::kAccumulateSkips:
      return accumulate_skips(instance, recording);
  }
  throw InvariantError("bad TransformRule");
}

}  // namespace commroute::realization
