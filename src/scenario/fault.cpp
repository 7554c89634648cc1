#include "scenario/fault.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace commroute::scenario {

namespace {

// Undirected edges as (lo, hi) node pairs in channel-index order — the
// deterministic edge enumeration the random generator draws from.
std::vector<std::pair<NodeId, NodeId>> edge_list(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (ChannelIdx c = 0; c < g.channel_count(); ++c) {
    const ChannelId id = g.channel_id(c);
    if (id.from < id.to) {
      edges.emplace_back(id.from, id.to);
    }
  }
  return edges;
}

std::string regime_text(const sim::LinkModel& link) {
  return "dist=" + sim::to_string(link.dist) +
         " lat=" + std::to_string(link.latency_us) +
         " jit=" + std::to_string(link.jitter_us) +
         " loss=" + obs::json_number(link.loss_prob) +
         " burst=" + obs::json_number(link.burst_mean);
}

sim::LinkModel parse_regime(const std::vector<std::string>& tokens,
                            std::size_t start, const std::string& text) {
  sim::LinkModel link;
  for (std::size_t i = start; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      throw ParseError("fault: regime parameter '" + tok +
                       "' is not key=value in '" + text + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    try {
      if (key == "dist") {
        link.dist = sim::parse_latency_dist(val);
      } else if (key == "lat") {
        link.latency_us = std::stoull(val);
      } else if (key == "jit") {
        link.jitter_us = std::stoull(val);
      } else if (key == "loss") {
        link.loss_prob = std::stod(val);
      } else if (key == "burst") {
        link.burst_mean = std::stod(val);
      } else {
        throw ParseError("fault: unknown regime parameter '" + key +
                         "' in '" + text + "'");
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception&) {
      throw ParseError("fault: malformed regime value '" + tok + "' in '" +
                       text + "'");
    }
  }
  return link;
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kSessionReset:
      return "session-reset";
    case FaultKind::kNodeReboot:
      return "reboot";
    case FaultKind::kRegimeShift:
      return "regime";
  }
  return "unknown";
}

std::string FaultEvent::text(const spp::Instance& instance) const {
  const Graph& g = instance.graph();
  switch (kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kSessionReset:
      return to_string(kind) + " " + g.name(a) + " " + g.name(b);
    case FaultKind::kNodeReboot:
      return to_string(kind) + " " + g.name(a);
    case FaultKind::kRegimeShift: {
      const std::string where =
          a == kNoNode ? "* *" : g.name(a) + " " + g.name(b);
      return to_string(kind) + " " + where + " " + regime_text(regime);
    }
  }
  throw InvariantError("bad FaultKind");
}

FaultEvent parse_fault(const std::string& text,
                       const spp::Instance& instance) {
  const std::vector<std::string> tokens = split_trimmed(text, ' ');
  if (tokens.empty()) {
    throw ParseError("fault: empty fault text");
  }
  const std::string& kind = tokens[0];
  const auto need = [&](std::size_t n) {
    if (tokens.size() < n) {
      throw ParseError("fault: '" + text + "' is missing arguments");
    }
  };
  const auto node = [&](std::size_t i) {
    if (!instance.graph().has_node(tokens[i])) {
      throw ParseError("fault: unknown node '" + tokens[i] + "' in '" +
                       text + "'");
    }
    return instance.graph().node(tokens[i]);
  };
  FaultEvent ev;
  if (kind == "link-down" || kind == "link-up" || kind == "session-reset") {
    need(3);
    ev.kind = kind == "link-down"     ? FaultKind::kLinkDown
              : kind == "link-up"     ? FaultKind::kLinkUp
                                      : FaultKind::kSessionReset;
    ev.a = node(1);
    ev.b = node(2);
  } else if (kind == "reboot") {
    need(2);
    ev.kind = FaultKind::kNodeReboot;
    ev.a = node(1);
  } else if (kind == "regime") {
    need(3);
    ev.kind = FaultKind::kRegimeShift;
    if (tokens[1] == "*") {
      if (tokens[2] != "*") {
        throw ParseError("fault: global regime must name '* *' in '" +
                         text + "'");
      }
    } else {
      ev.a = node(1);
      ev.b = node(2);
    }
    ev.regime = parse_regime(tokens, 3, text);
  } else {
    throw ParseError(
        "fault: unknown kind '" + kind +
        "' (expected link-down | link-up | session-reset | reboot | "
        "regime)");
  }
  if (ev.a != kNoNode && ev.b != kNoNode) {
    if (!instance.graph().has_edge(ev.a, ev.b)) {
      throw ParseError("fault: '" + text + "' names a non-edge");
    }
  }
  return ev;
}

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at_us < y.at_us;
                   });
}

std::string FaultSchedule::format(const spp::Instance& instance) const {
  std::string out;
  for (const FaultEvent& ev : events_) {
    if (!out.empty()) {
      out += "; ";
    }
    out += std::to_string(ev.at_us) + " " + ev.text(instance);
  }
  return out;
}

FaultSchedule parse_fault_schedule(const std::string& text,
                                   const spp::Instance& instance) {
  std::vector<FaultEvent> events;
  std::stringstream ss(text);
  std::string entry;
  while (std::getline(ss, entry, ';')) {
    const std::string trimmed{trim(entry)};
    if (trimmed.empty()) {
      continue;
    }
    const auto space = trimmed.find(' ');
    if (space == std::string::npos) {
      throw ParseError("fault schedule: entry '" + trimmed +
                       "' has no fault after the timestamp");
    }
    FaultEvent ev;
    try {
      ev = parse_fault(trimmed.substr(space + 1), instance);
      ev.at_us = std::stoull(trimmed.substr(0, space));
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception&) {
      throw ParseError("fault schedule: malformed timestamp in '" + trimmed +
                       "'");
    }
    events.push_back(std::move(ev));
  }
  return FaultSchedule(std::move(events));
}

std::string FaultScheduleSpec::label() const {
  std::string out;
  const auto part = [&](const char* name, std::size_t n) {
    if (n == 0) {
      return;
    }
    if (!out.empty()) {
      out += '+';
    }
    out += name + std::to_string(n);
  };
  part("flap", link_flaps);
  part("reset", session_resets);
  part("reboot", reboots);
  part("regime", regime_shifts);
  return out.empty() ? "none" : out;
}

FaultScheduleSpec parse_fault_spec(const std::string& label) {
  FaultScheduleSpec spec;
  if (label == "none" || label.empty()) {
    return spec;
  }
  std::stringstream ss(label);
  std::string part;
  while (std::getline(ss, part, '+')) {
    std::size_t digits = part.size();
    while (digits > 0 && std::isdigit(static_cast<unsigned char>(
                             part[digits - 1])) != 0) {
      --digits;
    }
    const std::string name = part.substr(0, digits);
    std::size_t count = 1;
    if (digits < part.size()) {
      try {
        count = static_cast<std::size_t>(std::stoull(part.substr(digits)));
      } catch (const std::exception&) {
        throw ParseError("fault spec: malformed count in '" + part + "'");
      }
    }
    if (name == "flap") {
      spec.link_flaps = count;
    } else if (name == "reset") {
      spec.session_resets = count;
    } else if (name == "reboot") {
      spec.reboots = count;
    } else if (name == "regime") {
      spec.regime_shifts = count;
    } else {
      throw ParseError("fault spec: unknown part '" + part + "' in '" +
                       label + "' (expected flapN | resetN | rebootN | "
                       "regimeN joined by '+')");
    }
  }
  return spec;
}

FaultSchedule random_fault_schedule(const spp::Instance& instance,
                                    const FaultScheduleSpec& spec,
                                    std::uint64_t seed) {
  const Graph& g = instance.graph();
  const auto edges = edge_list(g);
  std::vector<NodeId> rebootable;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v != instance.destination() && !g.in_channels(v).empty()) {
      rebootable.push_back(v);
    }
  }
  Rng rng = Rng(seed).fork("fault-schedule");
  const auto at = [&]() {
    return static_cast<std::uint64_t>(rng.below(spec.window_us + 1));
  };

  std::vector<FaultEvent> events;
  for (std::size_t i = 0; i < spec.link_flaps && !edges.empty(); ++i) {
    const auto& [u, v] = rng.pick(edges);
    FaultEvent down;
    down.at_us = at();
    down.kind = FaultKind::kLinkDown;
    down.a = u;
    down.b = v;
    FaultEvent up = down;
    up.at_us = down.at_us + spec.flap_duration_us;
    up.kind = FaultKind::kLinkUp;
    events.push_back(down);
    events.push_back(up);
  }
  for (std::size_t i = 0; i < spec.session_resets && !edges.empty(); ++i) {
    const auto& [u, v] = rng.pick(edges);
    FaultEvent ev;
    ev.at_us = at();
    ev.kind = FaultKind::kSessionReset;
    ev.a = u;
    ev.b = v;
    events.push_back(ev);
  }
  for (std::size_t i = 0; i < spec.reboots && !rebootable.empty(); ++i) {
    FaultEvent ev;
    ev.at_us = at();
    ev.kind = FaultKind::kNodeReboot;
    ev.a = rng.pick(rebootable);
    events.push_back(ev);
  }
  for (std::size_t i = 0; i < spec.regime_shifts; ++i) {
    FaultEvent ev;
    ev.at_us = at();
    ev.kind = FaultKind::kRegimeShift;
    ev.regime = spec.regime;
    events.push_back(ev);
  }
  return FaultSchedule(std::move(events));
}

std::vector<ChannelIdx> fault_flushed_channels(const spp::Instance& instance,
                                               const FaultEvent& fault) {
  const Graph& g = instance.graph();
  switch (fault.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kRegimeShift:
      return {};
    case FaultKind::kSessionReset:
      CR_REQUIRE(g.has_edge(fault.a, fault.b),
                 "session-reset fault names a non-edge");
      return {g.channel(fault.a, fault.b), g.channel(fault.b, fault.a)};
    case FaultKind::kNodeReboot: {
      CR_REQUIRE(fault.a < g.node_count(), "reboot fault: node out of range");
      CR_REQUIRE(fault.a != instance.destination(),
                 "reboot fault: rebooting the destination is not supported "
                 "(its trivial path is structural)");
      std::vector<ChannelIdx> flushed;
      for (const ChannelIdx c : g.in_channels(fault.a)) {
        flushed.push_back(c);
      }
      for (const ChannelIdx c : g.out_channels(fault.a)) {
        flushed.push_back(c);
      }
      return flushed;
    }
  }
  throw InvariantError("bad FaultKind");
}

FaultStateEffect apply_fault(engine::NetworkState& state,
                             const FaultEvent& fault) {
  FaultStateEffect effect;
  const spp::Instance& inst = state.instance();
  const Graph& g = inst.graph();
  effect.flushed = fault_flushed_channels(inst, fault);
  switch (fault.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
    case FaultKind::kRegimeShift:
      // Timed-delivery faults: no NetworkState effect (the sim injector
      // realizes them through arrival times and loss marks).
      return effect;
    case FaultKind::kSessionReset:
      // A session reset loses everything in flight in both directions
      // and both ends' per-session memory: what they learned (rho) and
      // what they believe they announced (last exported) — so each end
      // re-announces its current assignment when it next activates.
      effect.touched = {fault.a, fault.b};
      break;
    case FaultKind::kNodeReboot:
      // The node loses pi and every session it participates in resets.
      // Its own rho (in-channels) is erased; neighbors keep their rho —
      // what they learned survives until the rebooted node re-announces
      // (or withdraws) after coming back up.
      state.set_assignment(fault.a, Path::epsilon());
      effect.touched.push_back(fault.a);
      for (const NodeId u : g.neighbors(fault.a)) {
        effect.touched.push_back(u);
      }
      break;
  }
  for (const ChannelIdx c : effect.flushed) {
    engine::MutableChannel ch = state.mutable_channel(c);
    ch.pop_front_n(ch.size());
    // rho resets on the reader's side of the session: both directions of
    // a session reset, and a rebooted node's in-channels (the node
    // forgot what it learned); a neighbor's memory of the rebooted
    // node's announcements survives on its own in-channels — which are
    // the rebooted node's out-channels.
    if (fault.kind == FaultKind::kSessionReset ||
        g.channel_id(c).to == fault.a) {
      state.set_known(c, Path::epsilon());
    }
    state.reset_last_exported(c);
  }
  effect.state_changed = true;
  return effect;
}

}  // namespace commroute::scenario
