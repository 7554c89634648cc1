#include "engine/runner.hpp"

#include <chrono>
#include <deque>
#include <unordered_map>

#include "engine/executor.hpp"
#include "support/error.hpp"

namespace commroute::engine {

namespace {

/// Bounded capture of the executed steps for the flight recorder: a ring
/// of (step, pi changes, I/O) entries whose window-initial assignment
/// takes each entry's changes as it falls off.
class FlightRecorder {
 public:
  FlightRecorder(const FlightRecorderOptions& options,
                 trace::Assignment initial)
      : options_(options), window_initial_(std::move(initial)) {}

  void capture(const model::ActivationStep& step, const StepEffect& effect,
               std::vector<trace::Change> changes,
               std::optional<std::uint64_t> t_us) {
    if (window_.empty()) {
      timed_ = t_us.has_value();
    }
    window_.push_back(Entry{step, std::move(changes), trace::step_io(effect),
                            t_us.value_or(0)});
    if (options_.mode == FlightRecorderOptions::Mode::kRing &&
        window_.size() > options_.ring_capacity) {
      for (trace::Change& change : window_.front().changes) {
        window_initial_[change.node] = std::move(change.path);
      }
      ++first_step_;
      window_.pop_front();
    }
  }

  /// `before` is the global index of the first step executed after the
  /// fault. Faults whose step fell off the ring are pruned at finish().
  void record_fault(const std::string& text, std::uint64_t t_us,
                    std::uint64_t before) {
    faults_.push_back(trace::RecordedFault{before, text, t_us});
  }

  trace::RecordingDoc finish(const RunOptions& options,
                             Outcome outcome) && {
    trace::RecordingDoc doc;
    doc.meta.instance_name = options_.instance_name;
    doc.meta.scheduler = options_.scheduler;
    doc.meta.seed = options_.seed;
    if (options.enforce_model.has_value()) {
      doc.meta.model = options.enforce_model->name();
    }
    doc.meta.outcome = to_string(outcome);
    doc.meta.first_step = first_step_;
    doc.trace = trace::Trace(std::move(window_initial_));
    doc.steps.reserve(window_.size());
    doc.io.reserve(window_.size());
    if (timed_) {
      doc.step_time_us.reserve(window_.size());
    }
    for (Entry& entry : window_) {
      doc.steps.push_back(std::move(entry.step));
      doc.trace.record_changes(std::move(entry.changes));
      doc.io.push_back(std::move(entry.io));
      if (timed_) {
        doc.step_time_us.push_back(entry.t_us);
      }
    }
    for (trace::RecordedFault& fault : faults_) {
      if (fault.before >= first_step_) {  // still inside the ring window
        doc.faults.push_back(std::move(fault));
      }
    }
    return doc;
  }

 private:
  struct Entry {
    model::ActivationStep step;
    std::vector<trace::Change> changes;  ///< nodes whose pi the step changed
    trace::StepIo io;
    std::uint64_t t_us = 0;
  };
  const FlightRecorderOptions& options_;
  trace::Assignment window_initial_;
  std::deque<Entry> window_;
  std::vector<trace::RecordedFault> faults_;
  std::uint64_t first_step_ = 1;
  bool timed_ = false;  ///< the scheduler exposed virtual timestamps
};

}  // namespace

std::string to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kConverged:
      return "converged";
    case Outcome::kOscillating:
      return "oscillating";
    case Outcome::kExhausted:
      return "exhausted";
  }
  throw InvariantError("bad Outcome");
}

std::optional<Outcome> outcome_from_string(std::string_view name) {
  if (name == "converged") {
    return Outcome::kConverged;
  }
  if (name == "oscillating") {
    return Outcome::kOscillating;
  }
  if (name == "exhausted") {
    return Outcome::kExhausted;
  }
  return std::nullopt;
}

bool strongly_quiescent(const NetworkState& state) {
  if (!state.quiescent()) {
    return false;
  }
  // No pending announcement: activating any node must not produce a send.
  const Graph& g = state.instance().graph();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const spp::PathId pi = state.assignment_id(v);
    for (const ChannelIdx out : g.out_channels(v)) {
      if (pending_export(state, out, pi) != spp::kNoPath) {
        return false;
      }
    }
  }
  return true;
}

RunResult run(const spp::Instance& instance, Scheduler& scheduler,
              const RunOptions& options) {
  const bool observed = options.obs.attached();
  const auto run_start = observed ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
  obs::Span run_span = options.obs.span("engine.run");
  NetworkState state(instance);
  model::FairnessMonitor fairness(instance.graph().channel_count());

  const bool recording =
      options.flight.mode != FlightRecorderOptions::Mode::kOff;
  std::optional<FlightRecorder> recorder;
  if (recording) {
    CR_REQUIRE(options.flight.mode != FlightRecorderOptions::Mode::kRing ||
                   options.flight.ring_capacity > 0,
               "flight recorder ring capacity must be positive");
    recorder.emplace(options.flight, state.assignments());
  }
  std::optional<obs::CausalityRecorder> causal;
  if (options.causality) {
    causal.emplace(instance);
  }
  FaultHook* const hook = options.fault_hook;
  if (hook != nullptr) {
    // A faulted step's changes are diffed against the trace's last pi.
    CR_REQUIRE(options.record_trace, "a fault hook needs record_trace");
    hook->bind(&state);
  }

  RunResult result;
  result.node_activations.assign(instance.node_count(), 0);
  if (options.record_trace) {
    result.trace = trace::Trace(state.assignments());
  }

  // For sound cycle detection: configuration = (state, signature).
  struct Seen {
    NetworkState state;
    std::uint64_t signature;
    std::uint64_t step;
    std::size_t changes_before;  ///< assignment changes before this step
  };
  std::unordered_map<std::size_t, std::vector<Seen>> seen;
  std::size_t total_changes = 0;

  const bool can_detect_cycles =
      options.detect_cycles && scheduler.signature().has_value();
  result.cycle_detection = can_detect_cycles;
  if (options.detect_cycles && !can_detect_cycles) {
    // Requested but unavailable (signature-less scheduler, e.g. the
    // RandomFairScheduler): record it so kExhausted rows can be told
    // apart from "could never have detected a cycle".
    if (options.obs.metrics != nullptr) {
      // kSum + add: per-shard occurrences accumulate across runs and
      // across Registry::merge_from, so a campaign-level registry counts
      // how many rows ran blind instead of silently max-merging to 1.
      options.obs.metrics
          ->gauge("engine.cycle_detection_disabled", obs::GaugeMerge::kSum)
          .add(1);
    }
    if (options.obs.sink != nullptr) {
      obs::Event ev("cycle_detection_disabled");
      ev.field("reason", "scheduler has no signature")
          .field("max_steps", options.max_steps);
      options.obs.sink->emit(ev);
    }
  }

  auto remember = [&](const NetworkState& s) {
    const auto sig = scheduler.signature();
    if (!sig.has_value()) {
      return;
    }
    std::size_t key = s.hash();
    hash_combine_value(key, *sig);
    seen[key].push_back(Seen{s, *sig, result.steps, total_changes});
  };

  auto find_repeat = [&](const NetworkState& s) -> const Seen* {
    const auto sig = scheduler.signature();
    if (!sig.has_value()) {
      return nullptr;
    }
    std::size_t key = s.hash();
    hash_combine_value(key, *sig);
    const auto it = seen.find(key);
    if (it == seen.end()) {
      return nullptr;
    }
    for (const Seen& candidate : it->second) {
      if (candidate.signature == *sig && candidate.state == s) {
        return &candidate;
      }
    }
    return nullptr;
  };

  if (can_detect_cycles) {
    remember(state);
  }

  // One effect for the whole run: execute_step refills it in place, and
  // every consumer below (scheduler, recorders) copies what it keeps.
  StepEffect effect;
  while (result.steps < options.max_steps) {
    // A quiescent network with faults still scheduled has not converged:
    // the next fault can wake it back up.
    if (strongly_quiescent(state) && (hook == nullptr || !hook->pending())) {
      result.outcome = Outcome::kConverged;
      break;
    }
    if (scheduler.exhausted()) {
      break;  // kExhausted
    }

    obs::Span step_span = options.obs.span("engine.step");
    const model::ActivationStep step = scheduler.next(state);
    // A fault (e.g. a reboot) can rewrite pi outside any step effect.
    bool faulted = false;
    if (hook != nullptr) {
      // Faults applied inside next() happen before the step it returned.
      for (AppliedFault& fault : hook->drain_applied()) {
        faulted = true;
        ++result.faults_applied;
        if (recording) {
          recorder->record_fault(fault.text, fault.t_us, result.steps + 1);
        }
        if (causal.has_value()) {
          for (const ChannelIdx c : fault.flushed_channels) {
            causal->flush_channel(c);
          }
          causal->record_fault(std::move(fault.text), fault.t_us);
        }
      }
    }
    if (options.enforce_model.has_value()) {
      model::require_step_allowed(*options.enforce_model, instance, step);
    }

    fairness.begin_step();
    execute_step(state, step, effect, options.obs.spans);
    scheduler.on_step(effect);
    ++result.steps;
    if (step_span.enabled()) {
      step_span.attr("step", result.steps);
    }

    for (const ReadEffect& read : effect.reads) {
      fairness.attempt(read.channel);
      if (read.dropped > 0) {
        fairness.drop(read.channel);
      }
      if (read.delivered) {
        fairness.deliver(read.channel);
      }
      result.messages_dropped += read.dropped;
    }
    result.messages_sent += effect.sent.size();
    for (const NodeEffect& node : effect.nodes) {
      ++result.node_activations[node.node];
      if (node.changed) {
        ++total_changes;
      }
    }
    // Exact high-water marks from what the step touched: reads and faults
    // only remove messages, and a channel gets at most one push per step,
    // after the step's reads.
    for (const SentMessage& sent : effect.sent) {
      result.max_channel_occupancy = std::max(
          result.max_channel_occupancy, state.channel(sent.channel).size());
    }
    result.peak_channel_bytes =
        std::max(result.peak_channel_bytes, state.in_flight_bytes());

    // The step's pi changes, built once for the trace and the recorder.
    std::vector<trace::Change> changes;
    if (options.record_trace || recording) {
      if (faulted) {
        // A fault may have rewritten pi outside the effect: diff the
        // whole assignment against pi after the previous step.
        changes = trace::diff(result.trace.back(), state.assignments());
      } else {
        for (const NodeEffect& node : effect.nodes) {
          if (node.changed) {
            changes.push_back(
                trace::Change{node.node, instance.path(node.new_assignment)});
          }
        }
      }
      if (options.record_trace) {
        // A copy when the recorder keeps the list too.
        result.trace.record_changes(recording ? changes : std::move(changes));
      }
    }
    if (recording || causal.has_value()) {
      const std::optional<std::uint64_t> t_us = scheduler.virtual_time_us();
      if (recording) {
        recorder->capture(step, effect, std::move(changes), t_us);
      }
      if (causal.has_value()) {
        causal->record(step, effect, result.steps, t_us);
      }
    }

    if (can_detect_cycles) {
      if (const Seen* repeat = find_repeat(state)) {
        result.cycle_start = repeat->step;
        result.cycle_length = result.steps - repeat->step;
        result.outcome = (total_changes > repeat->changes_before)
                             ? Outcome::kOscillating
                             : Outcome::kConverged;
        break;
      }
      remember(state);
    }
  }

  result.final_assignment = state.assignments();
  result.max_attempt_gap = fairness.max_attempt_gap();
  result.outstanding_drops = fairness.outstanding_drops();

  if (causal.has_value()) {
    result.causality = std::move(*causal).finish();
    result.critical_path_len = result.causality->critical_path_len();
  }

  if (recording) {
    result.recording = std::move(*recorder).finish(options, result.outcome);
    const bool flush = !options.flight.flush_path.empty() &&
                       (options.flight.flush_always ||
                        result.outcome != Outcome::kConverged);
    if (flush) {
      obs::Span flush_span = options.obs.span("engine.flush_recording");
      trace::save_recording(options.flight.flush_path, instance,
                            *result.recording);
      result.recording_path = options.flight.flush_path;
      flush_span.finish();
      if (options.obs.metrics != nullptr) {
        options.obs.metrics->counter("engine.recordings_flushed").add();
      }
      if (options.obs.sink != nullptr) {
        obs::Event ev("recording_flushed");
        ev.field("path", result.recording_path)
            .field("outcome", to_string(result.outcome))
            .field("first_step", result.recording->meta.first_step)
            .field("steps", static_cast<std::uint64_t>(
                                result.recording->steps.size()));
        options.obs.sink->emit(ev);
      }
    }
  }

  if (observed) {
    const std::uint64_t wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - run_start)
            .count());
    if (run_span.enabled()) {
      run_span.attr("outcome", to_string(result.outcome))
          .attr("steps", result.steps);
      run_span.finish();
    }
    if (obs::Histogram* h = options.obs.histogram(
            "engine.run_us", obs::exponential_buckets(16, 4.0, 10))) {
      h->observe(wall_us);
    }
    if (options.obs.metrics != nullptr) {
      obs::Registry& m = *options.obs.metrics;
      m.counter("engine.runs").add();
      m.counter("engine.steps").add(result.steps);
      m.counter("engine.messages_sent").add(result.messages_sent);
      m.counter("engine.messages_dropped").add(result.messages_dropped);
      m.counter("engine.wall_us").add(wall_us);
      m.gauge("engine.max_channel_occupancy")
          .record_max(result.max_channel_occupancy);
      m.gauge("engine.peak_channel_bytes")
          .record_max(result.peak_channel_bytes);
      m.histogram("engine.run_steps", obs::exponential_buckets(16, 4.0, 8))
          .observe(result.steps);
      if (options.causality) {
        m.gauge("engine.critical_path_len")
            .record_max(result.critical_path_len);
      }
    }
    if (options.obs.sink != nullptr) {
      obs::Event ev("engine_run");
      ev.field("outcome", to_string(result.outcome))
          .field("steps", result.steps)
          .field("messages_sent", result.messages_sent)
          .field("messages_dropped", result.messages_dropped)
          .field("max_channel_occupancy",
                 static_cast<std::uint64_t>(result.max_channel_occupancy))
          .field("peak_channel_bytes",
                 static_cast<std::uint64_t>(result.peak_channel_bytes))
          .field("cycle_start", result.cycle_start)
          .field("cycle_length", result.cycle_length)
          .field("cycle_detection", result.cycle_detection)
          .field("wall_us", wall_us);
      if (options.causality) {
        // Only when armed: existing consumers' engine_run bytes are
        // unchanged and the field never reads as "0 = no chain".
        ev.field("critical_path_len", result.critical_path_len);
      }
      options.obs.sink->emit(ev);
    }
  }
  return result;
}

}  // namespace commroute::engine
