#include "obs/forensics.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"

namespace commroute::obs {

FlapReport flap_timelines(const spp::Instance& instance,
                          const trace::RecordingDoc& doc,
                          const Instrumentation& obs) {
  Span span = obs.span("forensics.flaps");
  FlapReport report;
  report.steps = doc.steps.size();
  report.first_step = doc.meta.first_step;

  const std::size_t n = instance.node_count();
  std::vector<NodeFlapTimeline> nodes(n);
  std::vector<std::vector<Path>> seen(n);
  const trace::Assignment initial = doc.trace.at(0);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    nodes[v].node = v;
    nodes[v].name = instance.graph().name(v);
    seen[v].push_back(initial[v]);
  }

  for (std::size_t t = 1; t < doc.trace.size(); ++t) {
    const std::uint64_t step = doc.meta.first_step + t - 1;
    for (const trace::Change& change : doc.trace.changes(t)) {
      NodeFlapTimeline& node = nodes[change.node];
      ++node.changes;
      ++report.total_changes;
      if (change.path.empty()) {
        ++node.withdrawals;
      }
      if (node.first_change_step == 0) {
        node.first_change_step = step;
      }
      node.last_change_step = step;
      std::vector<Path>& paths = seen[change.node];
      if (std::find(paths.begin(), paths.end(), change.path) == paths.end()) {
        paths.push_back(change.path);
      }
    }
  }
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    nodes[v].distinct_paths = seen[v].size();
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const NodeFlapTimeline& a, const NodeFlapTimeline& b) {
              if (a.changes != b.changes) {
                return a.changes > b.changes;
              }
              return a.node < b.node;
            });
  report.nodes = std::move(nodes);

  if (span.enabled()) {
    span.attr("total_changes", report.total_changes);
  }
  if (obs.metrics != nullptr) {
    obs.metrics->counter("forensics.flap_reports").add();
  }
  return report;
}

namespace {

/// Smallest q dividing `period` such that states[start..start+period)
/// is q-periodic.
std::size_t minimal_period(const std::vector<trace::Assignment>& states,
                           std::size_t start, std::size_t period) {
  for (std::size_t q = 1; q <= period / 2; ++q) {
    if (period % q != 0) {
      continue;
    }
    bool periodic = true;
    for (std::size_t k = q; k < period && periodic; ++k) {
      periodic = states[start + k] == states[start + k % q];
    }
    if (periodic) {
      return q;
    }
  }
  return period;
}

}  // namespace

OscillationCycle extract_cycle(const trace::RecordingDoc& doc,
                               const Instrumentation& obs) {
  Span span = obs.span("forensics.extract_cycle");
  OscillationCycle result;

  // Collapsed sequence plus, per collapsed state, the global step index
  // at which it was entered.
  const std::vector<trace::Assignment> collapsed = doc.trace.collapsed();
  std::vector<std::uint64_t> entered{
      doc.meta.first_step == 0 ? 0 : doc.meta.first_step - 1};
  for (std::size_t t = 1; t < doc.trace.size(); ++t) {
    if (!doc.trace.changes(t).empty()) {
      entered.push_back(doc.meta.first_step + t - 1);
    }
  }
  result.collapsed_states = collapsed.size();

  // Earliest previously-seen state whose period the rest of the sequence
  // keeps: find j with collapsed[j] == collapsed[i], i < j, such that
  // collapsed[k] == collapsed[k - (j - i)] for every k >= j.
  std::map<trace::Assignment, std::size_t> first_seen;
  std::size_t cycle_at = collapsed.size();
  std::size_t raw_period = 0;
  for (std::size_t j = 0; j < collapsed.size(); ++j) {
    const auto [it, inserted] = first_seen.emplace(collapsed[j], j);
    if (inserted) {
      continue;
    }
    const std::size_t i = it->second;
    const std::size_t p = j - i;
    bool sustained = true;
    for (std::size_t k = j; k < collapsed.size() && sustained; ++k) {
      sustained = collapsed[k] == collapsed[k - p];
    }
    if (sustained) {
      cycle_at = i;
      raw_period = p;
      break;
    }
  }
  if (raw_period == 0) {
    if (span.enabled()) {
      span.attr("found", false);
    }
    return result;
  }

  result.found = true;
  result.period = minimal_period(collapsed, cycle_at, raw_period);
  for (std::size_t k = 0; k < result.period; ++k) {
    result.cycle.push_back(collapsed[cycle_at + k]);
    result.witness_steps.push_back(entered[cycle_at + k]);
  }
  result.cycle_start_step = result.witness_steps.front();

  if (span.enabled()) {
    span.attr("found", true)
        .attr("period", static_cast<std::uint64_t>(result.period));
  }
  if (obs.metrics != nullptr) {
    obs.metrics->counter("forensics.cycles_found").add();
  }
  return result;
}

std::vector<ChannelOccupancy> channel_occupancy(
    const spp::Instance& instance, const trace::RecordingDoc& doc,
    const Instrumentation& obs) {
  CR_REQUIRE(!doc.io.empty() || doc.steps.empty(),
             "recording carries no per-step I/O summaries");
  Span span = obs.span("forensics.channel_occupancy");

  const std::size_t channels = instance.graph().channel_count();
  std::vector<ChannelOccupancy> out(channels);
  std::vector<std::size_t> occupancy(channels, 0);
  for (ChannelIdx c = 0; c < static_cast<ChannelIdx>(channels); ++c) {
    out[c].channel = c;
    out[c].name = instance.graph().channel_name(c);
    out[c].series.reserve(doc.io.size());
  }
  for (const trace::StepIo& io : doc.io) {
    // Def. 2.3 order: reads drain channels first, announcements fill
    // them afterwards.
    for (const trace::StepIo::Read& read : io.reads) {
      ChannelOccupancy& ch = out[read.channel];
      ch.processed += read.processed;
      ch.dropped += read.dropped;
      std::size_t& occ = occupancy[read.channel];
      // A ring window starts at unknown occupancy; clamp at zero.
      occ -= std::min<std::size_t>(occ, read.processed);
    }
    for (const ChannelIdx c : io.sent) {
      ++out[c].sent;
      ++occupancy[c];
    }
    for (ChannelIdx c = 0; c < static_cast<ChannelIdx>(channels); ++c) {
      out[c].series.push_back(occupancy[c]);
      out[c].peak = std::max(out[c].peak, occupancy[c]);
    }
  }

  if (span.enabled()) {
    span.attr("channels", static_cast<std::uint64_t>(channels))
        .attr("steps", static_cast<std::uint64_t>(doc.io.size()));
  }
  return out;
}

}  // namespace commroute::obs
