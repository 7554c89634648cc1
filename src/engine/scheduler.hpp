// Schedulers: generators of (fair) activation sequences for a model.
//
// A Scheduler produces the next activation step given the current state.
// Three implementations:
//   * ScriptedScheduler   — replays an explicit ActivationScript, with
//                           optional looping (used to exhibit the paper's
//                           hand-built oscillations);
//   * RoundRobinScheduler — deterministic, fair by construction: cycles
//                           through nodes (and through channels for
//                           1-neighbor models);
//   * RandomFairScheduler — randomized choices constrained to the model,
//                           with a periodic deterministic sweep to bound
//                           read-attempt gaps, and a drop discipline that
//                           never drops the newest message of a channel
//                           (which guarantees Def. 2.4's drop condition).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "model/activation.hpp"
#include "support/rng.hpp"

namespace commroute::engine {

struct StepEffect;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Produces the next step. `state` may inform the choice (e.g. message
  /// counts for f / g selection) but schedulers must not mutate it.
  virtual model::ActivationStep next(const class NetworkState& state) = 0;

  /// Called by run() right after the step next() returned has executed,
  /// with that step's effect (e.g. the sim times the messages it sent).
  virtual void on_step(const StepEffect& /*effect*/) {}

  /// A value that, together with the network state, determines all future
  /// scheduler behavior (e.g. position in a looped script). Runners use
  /// it for sound cycle detection; nullopt disables that detection.
  virtual std::optional<std::uint64_t> signature() const { return std::nullopt; }

  /// True when the scheduler cannot produce further steps (a finite,
  /// non-looping script that has been fully played).
  virtual bool exhausted() const { return false; }

  /// Virtual timestamp (microseconds) of the step most recently
  /// returned by next(), for schedulers that execute on a virtual clock
  /// (the sim's discrete-event scheduler). nullopt = untimed. The run
  /// loop stamps this into flight recordings ("t_us", schema v2) and
  /// the causal provenance graph, making the critical path a virtual-
  /// time latency bound.
  virtual std::optional<std::uint64_t> virtual_time_us() const {
    return std::nullopt;
  }
};

/// Replays a fixed script; optionally loops a suffix forever.
class ScriptedScheduler final : public Scheduler {
 public:
  /// Plays steps [0, script.size()). If loop_from has a value, after the
  /// script ends it replays steps [loop_from, script.size()) forever.
  explicit ScriptedScheduler(model::ActivationScript script,
                             std::optional<std::size_t> loop_from =
                                 std::nullopt);

  model::ActivationStep next(const NetworkState& state) override;
  std::optional<std::uint64_t> signature() const override;
  bool exhausted() const override;

  /// Steps remaining before the script is exhausted (no looping);
  /// nullopt when looping forever.
  std::optional<std::size_t> remaining() const;

 private:
  model::ActivationScript script_;
  std::optional<std::size_t> loop_from_;
  std::size_t position_ = 0;
};

/// Deterministic fair scheduler for any of the 24 models.
class RoundRobinScheduler final : public Scheduler {
 public:
  RoundRobinScheduler(model::Model m, const spp::Instance& instance);

  model::ActivationStep next(const NetworkState& state) override;
  std::optional<std::uint64_t> signature() const override;

  /// Steps per full sweep of all (node, channel-choice) pairs.
  std::size_t period() const { return order_.size(); }

 private:
  model::Model model_;
  const spp::Instance* instance_;
  // Precomputed cyclic order of (node, channel or all-channels) choices.
  struct Slot {
    NodeId node;
    ChannelIdx channel;  // kNoChannel = read per neighbor mode default
  };
  std::vector<Slot> order_;
  std::size_t position_ = 0;
};

/// Fully synchronous rounds (the NodesMode::kEvery dimension value of
/// Def. 2.6): every step activates every node. For 1-neighbor base models
/// each node cycles through its in-channels with aligned phases, which is
/// exactly the schedule of Ex. A.6 ("both poll d, then both poll each
/// other"); a node without in-channels has no 1-neighbor read and sits
/// out. For M/E base models every node processes all its channels.
class SynchronousScheduler final : public Scheduler {
 public:
  SynchronousScheduler(model::Model base, const spp::Instance& instance);

  model::ActivationStep next(const NetworkState& state) override;
  std::optional<std::uint64_t> signature() const override;

  /// Rounds until the channel-choice pattern repeats.
  std::uint64_t period() const { return period_; }

 private:
  model::Model base_;
  const spp::Instance* instance_;
  std::vector<NodeId> nodes_;  ///< the nodes a round activates
  std::uint64_t round_ = 0;
  std::uint64_t period_ = 1;
};

/// Random multi-node scheduler (the NodesMode::kUnrestricted dimension
/// value): each step activates a random non-empty node subset, each node
/// reading per the base model's rules (under a 1-neighbor base model,
/// only nodes with an in-channel). Includes a deterministic synchronous
/// sweep every `sweep_period` steps for fairness.
class MultiNodeRandomScheduler final : public Scheduler {
 public:
  MultiNodeRandomScheduler(model::Model base, const spp::Instance& instance,
                           Rng rng, double node_prob = 0.5,
                           std::uint64_t sweep_period = 32);

  model::ActivationStep next(const NetworkState& state) override;

 private:
  model::Model base_;
  const spp::Instance* instance_;
  std::vector<NodeId> nodes_;  ///< the nodes a step may activate
  Rng rng_;
  double node_prob_;
  std::uint64_t sweep_period_;
  std::uint64_t steps_ = 0;

  model::ActivationStep step_for_nodes(const std::vector<NodeId>& nodes);
};

/// Event-driven processing (Sec. 2.3.2): "nodes respond individually to
/// each incoming update". Serves non-empty channels in round-robin order
/// with one-message reads; when no message is in flight it rotates
/// through no-op node activations (of the nodes that have an in-channel)
/// so pending first announcements (the destination's) still fire and
/// fairness attempts continue. Each step is one f = 1 read of one
/// channel, which is legal in the w1O and wMO models.
class EventDrivenScheduler final : public Scheduler {
 public:
  explicit EventDrivenScheduler(const spp::Instance& instance);

  /// Whether every step of this scheduler is legal under `m`: true for
  /// the w1O and wMO models.
  static bool allows(const model::Model& m);

  model::ActivationStep next(const NetworkState& state) override;
  std::optional<std::uint64_t> signature() const override;

 private:
  const spp::Instance* instance_;
  std::vector<NodeId> idle_nodes_;  ///< the nodes the idle rotation visits
  std::uint64_t channel_cursor_ = 0;
  std::uint64_t idle_cursor_ = 0;  ///< index into idle_nodes_
};

/// Options for RandomFairScheduler.
struct RandomFairOptions {
  double drop_prob = 0.0;       ///< only used for unreliable models
  double channel_prob = 0.5;    ///< M models: inclusion probability
  std::uint32_t max_f = 3;      ///< S/F models: cap on random finite f
  std::uint64_t sweep_period = 64;  ///< deterministic sweep cadence
};

/// Randomized fair scheduler.
///
/// Note: exposes no signature(), so engine::run cannot soundly detect
/// cycles under it — a non-terminating random execution reports
/// kExhausted, never kOscillating. run() flags this via
/// RunResult::cycle_detection = false and, when instrumentation is
/// attached, a cycle_detection_disabled gauge/event.
class RandomFairScheduler final : public Scheduler {
 public:
  using Options = RandomFairOptions;

  RandomFairScheduler(model::Model m, const spp::Instance& instance,
                      Rng rng, Options options = {});

  model::ActivationStep next(const NetworkState& state) override;

 private:
  model::Model model_;
  const spp::Instance* instance_;
  std::vector<NodeId> nodes_;  ///< the nodes a random step may activate
  Rng rng_;
  Options options_;
  std::uint64_t steps_ = 0;
  std::deque<model::ActivationStep> pending_sweep_;

  model::ActivationStep random_step(const NetworkState& state);
  void enqueue_sweep();
  model::ReadSpec make_read(const NetworkState& state, ChannelIdx c);
};

}  // namespace commroute::engine
