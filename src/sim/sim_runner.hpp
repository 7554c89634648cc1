// Virtual-time simulation runner: derives activation sequences from
// timed link and node models instead of an abstract scheduler.
//
// The paper's executions are sequences of activation quadruples
// (U, X, f, g) (Def. 2.2) with no notion of *when* messages arrive.
// sim::run gives every message a sampled link latency and every node a
// processing-delay / batching model, runs a discrete-event loop over a
// deterministic virtual clock, and groups the resulting delivery events
// into steps that are legal in a chosen communication model:
//
//   * the channels a node processes (X) are those whose messages have
//     virtually arrived, shaped to the model's neighbor dimension;
//   * the per-channel message counts (f) cover exactly the arrived
//     prefix, shaped to the model's message dimension (polling models
//     wait until a channel has fully arrived before draining it);
//   * lost messages (Unreliable models only) become drop indices (g).
//
// The induced steps execute on the ordinary engine — sim::run wraps
// engine::run with RunOptions::enforce_model set, so every induced step
// is validated against Def. 2.4, and the whole runner stack (strong-
// quiescence convergence, flight recorder, obs) is reused unchanged. A
// flight-recorded sim run therefore replays byte-identically through
// trace::replay_recording / `commroute-obs replay`.
//
// Determinism contract: a SimResult is a pure function of (instance,
// SimOptions) — all randomness flows through one seeded support::Rng in
// a fixed consumption order, ties in the event queue break by sequence
// number, and no wall-clock value enters any sim field (see
// docs/SIMULATION.md).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/runner.hpp"
#include "model/model.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/link_model.hpp"
#include "spp/instance.hpp"

namespace commroute::scenario {
class FaultSchedule;
}

namespace commroute::sim {

struct SimOptions {
  /// Communication model the induced steps must be legal in. Loss may
  /// be configured only when this model is Unreliable.
  model::Model model;
  /// Link model applied to every channel, unless overridden.
  LinkModel link;
  /// Per-channel link overrides (channel index, model).
  std::vector<std::pair<ChannelIdx, LinkModel>> link_overrides;
  /// Node model applied to every node, unless overridden.
  NodeModel node;
  /// Per-node overrides (node id, model).
  std::vector<std::pair<NodeId, NodeModel>> node_overrides;
  /// Seed for all latency/loss sampling.
  std::uint64_t seed = 1;
  /// Step budget, as in engine::RunOptions.
  std::uint64_t max_steps = 20000;
  /// Virtual-time budget in microseconds; when the clock passes it the
  /// run stops with Outcome::kExhausted. 0 = unlimited.
  std::uint64_t max_virtual_us = 0;
  /// Flight recorder forwarded to engine::run — a kFull capture of a
  /// sim run is a replayable recording of the induced sequence.
  engine::FlightRecorderOptions flight;
  /// Attached, sim::run traces sim.run > engine.run > ... spans plus
  /// per-event sim.event / sim.deliver spans, observes the
  /// sim.virtual_time_us histogram, publishes sim.* counters, and emits
  /// one "sim_summary" event (virtual-time fields only — a sim_summary
  /// is byte-stable for a fixed seed).
  obs::Instrumentation obs;
  /// Build the happens-before DAG of the induced run (forwarded to
  /// engine::RunOptions::causality). Under the sim every activation is
  /// stamped with its virtual time, so SimResult::critical_path_us is
  /// the provable latency lower bound for this seed: no execution of
  /// this dependency structure can converge earlier.
  bool causality = false;
  /// Timed fault schedule (scenario/fault.hpp) injected through the DES
  /// event queue: link down/up, session resets, node reboots, regime
  /// shifts. Borrowed; must outlive the call. A quiescent network keeps
  /// running while faults are pending, and every applied fault lands in
  /// the flight recording (schema v3) and the causality DAG. Under a
  /// Reliable model every link-down must be followed by a link-up on the
  /// same edge (a permanent partition would need drops), and regime
  /// shifts must not introduce loss; both are rejected up front.
  const scenario::FaultSchedule* faults = nullptr;
};

/// Result of a timed run: the ordinary step-based RunResult plus the
/// virtual-time view of the same execution.
struct SimResult {
  engine::RunResult run;

  /// Virtual time of the last executed step — the virtual convergence
  /// time when run.outcome == kConverged (the network is quiescent from
  /// this instant on).
  std::uint64_t virtual_end_us = 0;
  /// Virtual time of the last step that changed any assignment.
  std::uint64_t last_change_us = 0;
  /// Per node: virtual time of the last step that changed pi_v
  /// (the node's last route flap; 0 = pi_v never changed).
  std::vector<std::uint64_t> last_flap_us;
  /// Virtual timestamp of each executed step, parallel to the steps of
  /// run.trace (step t executed at step_time_us[t-1]).
  std::vector<std::uint64_t> step_time_us;
  /// Virtual length of the critical dependency chain to convergence
  /// (SimOptions::causality only, else 0): the timestamp of the chain's
  /// terminal activation, whose roots are boot activations at t = 0.
  /// Equals last_change_us by construction — the convergence time IS
  /// the completion time of the longest causal chain.
  std::uint64_t critical_path_us = 0;

  std::uint64_t events_processed = 0;   ///< DES events popped
  std::uint64_t messages_delivered = 0;  ///< processed and not lost
  std::uint64_t messages_lost = 0;       ///< processed but dropped (g)
  /// Faults applied (SimOptions::faults) and the virtual time of the
  /// last one (0 when none fired).
  std::uint64_t faults_applied = 0;
  std::uint64_t last_fault_us = 0;
  /// Event-queue depth high-watermark and its byte estimate (counts ×
  /// sizeof(Event)) — deterministic like every other sim field.
  std::uint64_t queue_peak_events = 0;
  std::uint64_t queue_peak_bytes = 0;
  /// Latency aggregates over every sampled message (delivered or lost).
  std::uint64_t latency_samples = 0;
  std::uint64_t latency_sum_us = 0;
  std::uint64_t latency_min_us = 0;
  std::uint64_t latency_max_us = 0;

  double mean_latency_us() const {
    return latency_samples == 0 ? 0.0
                                : static_cast<double>(latency_sum_us) /
                                      static_cast<double>(latency_samples);
  }

  /// Virtual time from the last applied fault to the last assignment
  /// change — the reconvergence time of a faulted run. 0 when no fault
  /// fired or the network never changed after the final fault.
  std::uint64_t reconverge_us() const {
    if (faults_applied == 0) {
      return 0;
    }
    return last_change_us > last_fault_us ? last_change_us - last_fault_us
                                          : 0;
  }

  /// The sim_summary JSON object: outcome, steps, and every virtual-
  /// time/message field above (no wall-clock values, so the string is
  /// byte-identical across runs with the same options).
  std::string to_json() const;

  /// Parses a to_json() string back into the summary fields (run.outcome
  /// and run.steps are restored; the trace and other engine-side state
  /// are not serialized). Throws ParseError on malformed input.
  static SimResult from_json(const std::string& json);
};

/// Runs the timed simulation. Throws PreconditionError when a lossy
/// link is configured under a Reliable model (drops are not expressible
/// there), or when an induced step fails model validation (which would
/// indicate a sim bug — every induced step passes through
/// model::require_step_allowed).
SimResult run(const spp::Instance& instance, const SimOptions& options);

}  // namespace commroute::sim
