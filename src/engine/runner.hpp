// The run loop: drive an instance with a scheduler until convergence, a
// provable cycle, or a step budget is exhausted.
//
// Convergence is detected as *strong quiescence*: all channels empty and
// no node holds a pending (not yet exported) announcement. From such a
// state no activation step in any model can change any assignment, so the
// network has converged in the sense of Def. 2.5.
//
// Oscillation is detected soundly only for schedulers that expose a
// signature (scripted / round-robin): if the pair (network state,
// scheduler signature) repeats and an assignment changed in between, the
// execution provably cycles forever.
#pragma once

#include <cstdint>
#include <optional>

#include "engine/fault_hook.hpp"
#include "engine/scheduler.hpp"
#include "engine/state.hpp"
#include "model/fairness.hpp"
#include "obs/causality.hpp"
#include "obs/obs.hpp"
#include "trace/recording_io.hpp"
#include "trace/trace.hpp"

namespace commroute::engine {

enum class Outcome {
  kConverged,    ///< strongly quiescent, or a provable cycle with constant pi
  kOscillating,  ///< provable cycle with changing pi
  kExhausted,    ///< step budget reached without a verdict
};

std::string to_string(Outcome outcome);

/// Inverse of to_string; nullopt for unknown names.
std::optional<Outcome> outcome_from_string(std::string_view name);

/// Flight recorder: durable capture of the executed activation sequence
/// and its pi-sequence, either in full or as a bounded ring of the last
/// N steps, auto-flushed to disk when the run fails to converge. Off by
/// default; the detached path adds one predicted branch per step.
struct FlightRecorderOptions {
  enum class Mode {
    kOff,   ///< no capture
    kRing,  ///< keep the last `ring_capacity` steps (forensics window)
    kFull,  ///< keep every step (replayable recording)
  };
  Mode mode = Mode::kOff;
  std::size_t ring_capacity = 256;
  /// When non-empty, the recording is written here (JSONL, see
  /// trace/recording_io.hpp) after the run — always with `flush_always`,
  /// otherwise only on a non-converged outcome.
  std::string flush_path;
  bool flush_always = false;
  /// Metadata stamped into the flushed header (model is taken from
  /// RunOptions::enforce_model when set).
  std::string instance_name;
  std::string scheduler;
  std::uint64_t seed = 0;
};

struct RunOptions {
  std::uint64_t max_steps = 20000;
  bool record_trace = true;
  bool detect_cycles = true;  ///< needs a scheduler with a signature
  /// Validate every step against this model (single-node rule included).
  std::optional<model::Model> enforce_model;
  /// Optional metrics registry / JSONL event sink / span collector.
  /// Detached (the default) adds nothing to the hot path; attached,
  /// run() publishes step/message/occupancy aggregates, emits an
  /// "engine_run" summary event, and traces engine.run > engine.step >
  /// engine.activate spans (export with obs::write_chrome_trace).
  obs::Instrumentation obs;
  /// Build the happens-before DAG of the run (obs/causality.hpp):
  /// RunResult::causality is populated, critical_path_len computed, and
  /// — with obs attached — an engine.critical_path_len gauge plus a
  /// critical_path_len field on the engine_run event are published.
  /// Off (the default) costs one predicted branch per step.
  bool causality = false;
  /// Flight recorder (off by default; see FlightRecorderOptions).
  FlightRecorderOptions flight;
  /// Fault injection (scenario subsystem): bound to the state before the
  /// loop; quiescence does not end the run while faults are pending, and
  /// faults the scheduler applies inside next() are drained every step
  /// into the flight recorder and causality graph. Requires
  /// record_trace. Borrowed; must outlive the call.
  FaultHook* fault_hook = nullptr;
};

struct RunResult {
  Outcome outcome = Outcome::kExhausted;
  std::uint64_t steps = 0;
  trace::Trace trace;  ///< recorded iff RunOptions::record_trace
  std::vector<Path> final_assignment;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  /// Valid when outcome == kOscillating (or a constant-pi cycle folded
  /// into kConverged): the step at which the repeated configuration was
  /// first seen and the cycle length.
  std::uint64_t cycle_start = 0;
  std::uint64_t cycle_length = 0;
  /// True when cycle detection was actually armed for this run: it was
  /// requested (RunOptions::detect_cycles) AND the scheduler exposes a
  /// signature. False with detect_cycles on means kExhausted cannot be
  /// told apart from "oscillating but undetectable" (e.g. the
  /// RandomFairScheduler has no signature); run() then also publishes a
  /// cycle_detection_disabled gauge/event when instrumentation is
  /// attached, so campaign users can see which rows ran blind.
  bool cycle_detection = false;
  /// Fairness summary of the executed prefix.
  std::uint64_t max_attempt_gap = 0;
  std::size_t outstanding_drops = 0;
  /// Activations per node (how often each appeared in U).
  std::vector<std::uint64_t> node_activations;
  /// High-water mark of any single channel's queue length.
  std::size_t max_channel_occupancy = 0;
  /// High-water mark of the total in-flight message bytes across all
  /// channels (deterministic estimate, see NetworkState::in_flight_bytes).
  std::size_t peak_channel_bytes = 0;
  /// Present when the flight recorder was on: the recorded window
  /// (complete in kFull mode, the last N steps in kRing mode).
  std::optional<trace::RecordingDoc> recording;
  /// Where the recording was flushed ("" when it was not).
  std::string recording_path;
  /// Present iff RunOptions::causality: the happens-before DAG of the
  /// executed run (self-contained — outlives the instance).
  std::optional<obs::CausalityGraph> causality;
  /// Length of the longest dependency chain ending at the last
  /// assignment-changing activation (0 when causality was off or
  /// nothing changed) — the dependency-depth lower bound on the step
  /// count to convergence.
  std::uint64_t critical_path_len = 0;
  /// Faults the bound RunOptions::fault_hook applied during the run.
  std::uint64_t faults_applied = 0;
};

/// True when `state` is strongly quiescent (see file comment).
bool strongly_quiescent(const NetworkState& state);

/// Runs `scheduler` on a fresh state of `instance`.
///
/// Thread safety: run() keeps all mutable state (NetworkState, fairness
/// monitor, cycle table, flight recorder) in locals and only reads the
/// shared `instance`, so concurrent calls are safe provided each call
/// gets its own Scheduler and its own (or thread-safe) obs handles:
/// Registry is unsynchronized — parallel drivers attach per-worker
/// registry shards and merge (Registry::merge_from); SpanCollector is
/// internally locked; a shared EventSink must be wrapped in
/// obs::SynchronizedSink. Flight-recorder flush paths must be distinct
/// per concurrent call. This is the contract the parallel campaign
/// driver (study::run_campaign) builds on.
RunResult run(const spp::Instance& instance, Scheduler& scheduler,
              const RunOptions& options = {});

}  // namespace commroute::engine
