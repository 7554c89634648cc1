#include "sim/sim_runner.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "engine/executor.hpp"
#include "engine/fault_hook.hpp"
#include "engine/scheduler.hpp"
#include "engine/state.hpp"
#include "model/activation.hpp"
#include "obs/json.hpp"
#include "scenario/fault.hpp"
#include "support/error.hpp"

namespace commroute::sim {

namespace {

/// One message traversing a channel, in step with the engine's queue.
struct InFlight {
  VirtualTime arrival = 0;
  bool lost = false;
};

void check_link(const LinkModel& link, const model::Model& m,
                const std::string& where) {
  CR_REQUIRE(link.loss_prob >= 0.0 && link.loss_prob < 1.0,
             where + ": loss_prob must be in [0, 1)");
  CR_REQUIRE(link.loss_prob == 0.0 || !m.reliable(),
             where + ": lossy links require an Unreliable model (got " +
                 m.name() + "; drops are not expressible in Reliable "
                            "models per Def. 2.4)");
}

/// engine::Scheduler that derives steps from the discrete-event loop.
///
/// The scheduler keeps every engine channel's queue as a vector of arrival
/// times. on_step() queues the channels the executed step sent on; the
/// next next() call stamps each send with the step's virtual time plus a
/// sampled link latency (clamped to preserve FIFO order). Sampling waits
/// for next() so a run that stops first never draws for its last step's
/// sends. Arrival events schedule node activations (after the
/// node's processing delay, batched by its MRAI timer); activation
/// events are shaped into a step that is legal in the configured model
/// and touches only virtually-arrived messages, deferring the
/// activation when the model's read shape would reach beyond them.
class SimScheduler final : public engine::Scheduler,
                           public engine::FaultHook {
 public:
  SimScheduler(const spp::Instance& instance, const SimOptions& options)
      : inst_(&instance),
        opts_(&options),
        rng_(options.seed) {
    const Graph& g = instance.graph();
    links_.assign(g.channel_count(), options.link);
    for (const auto& [c, link] : options.link_overrides) {
      CR_REQUIRE(c < g.channel_count(),
                 "link override: channel " + std::to_string(c) +
                     " out of range");
      links_[c] = link;
    }
    loss_.reserve(g.channel_count());
    for (ChannelIdx c = 0; c < g.channel_count(); ++c) {
      loss_.emplace_back(links_[c]);
    }
    nodes_.assign(g.node_count(), options.node);
    for (const auto& [v, node] : options.node_overrides) {
      CR_REQUIRE(v < g.node_count(),
                 "node override: node " + std::to_string(v) +
                     " out of range");
      nodes_[v] = node;
    }
    inflight_.resize(g.channel_count());
    last_arrival_.assign(g.channel_count(), 0);
    activation_scheduled_.assign(g.node_count(), 0);
    last_activation_.assign(g.node_count(), 0);
    cursor_.assign(g.node_count(), 0);
    down_.assign(g.channel_count(), 0);
    down_until_.assign(g.channel_count(), 0);
    // Boot: every connected node activates once at t = 0. This fires the
    // destination's first self-announcement (Def. 2.3 step 4) — without
    // it no message ever enters the network.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!g.in_channels(v).empty()) {
        Event boot;
        boot.time = 0;
        boot.kind = Event::Kind::kActivate;
        boot.node = v;
        queue_.push(boot);
        activation_scheduled_[v] = 1;
      }
    }
    // Fault events go in after the boots, so a fault at t = 0 fires
    // against a booted network (ties break by sequence number).
    if (options.faults != nullptr) {
      init_faults(*options.faults);
    }
  }

  // -- engine::FaultHook ----------------------------------------------------

  void bind(engine::NetworkState* state) override { state_ = state; }

  bool pending() const override { return faults_pending_ > 0; }

  std::vector<engine::AppliedFault> drain_applied() override {
    std::vector<engine::AppliedFault> out;
    out.swap(applied_);
    return out;
  }

  void on_step(const engine::StepEffect& effect) override {
    for (const engine::SentMessage& sent : effect.sent) {
      unsampled_.push_back(sent.channel);
    }
  }

  model::ActivationStep next(const engine::NetworkState& /*state*/) override {
    sample_sends();
    for (;;) {
      // The run loop only calls next() when the network is not strongly
      // quiescent: either messages are in flight (their arrival events
      // are queued) or an activation is pending. Either way the queue
      // cannot be empty.
      CR_ASSERT(!queue_.empty(), "sim event queue drained before quiescence");
      const Event ev = queue_.pop();
      clock_.advance_to(ev.time);
      ++events_processed_;
      if (ev.kind == Event::Kind::kArrival) {
        obs::Span deliver = opts_->obs.span("sim.deliver");
        if (deliver.enabled()) {
          deliver.attr("channel", inst_->graph().channel_name(ev.channel))
              .attr("t_us", ev.time);
        }
        schedule_activation(inst_->graph().channel_id(ev.channel).to);
        continue;
      }
      if (ev.kind == Event::Kind::kFault) {
        apply_fault_event(ev.node);  // `node` carries the fault index
        continue;
      }
      obs::Span act = opts_->obs.span("sim.event");
      if (act.enabled()) {
        act.attr("node", inst_->graph().name(ev.node)).attr("t_us", ev.time);
      }
      activation_scheduled_[ev.node] = 0;
      std::optional<model::ActivationStep> step = build_step(ev.node);
      if (!step.has_value()) {
        continue;  // deferred: a later kActivate event was queued
      }
      step_time_us_.push_back(clock_.now());
      last_step_time_ = clock_.now();
      return std::move(*step);
    }
  }

  bool exhausted() const override {
    return opts_->max_virtual_us > 0 &&
           clock_.now() >= opts_->max_virtual_us;
  }

  std::optional<std::uint64_t> virtual_time_us() const override {
    return last_step_time_;  // timestamp of the step next() just built
  }

  // signature() stays nullopt: the sim's configuration includes the
  // event queue and RNG stream, which a state hash cannot capture, so
  // sound cycle detection is unavailable (sim::run sets
  // RunOptions::detect_cycles = false accordingly).

  VirtualTime now() const { return clock_.now(); }
  VirtualTime last_step_time() const { return last_step_time_; }
  const std::vector<VirtualTime>& step_times() const { return step_time_us_; }
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t messages_lost() const { return messages_lost_; }
  std::uint64_t latency_samples() const { return latency_samples_; }
  std::uint64_t latency_sum_us() const { return latency_sum_us_; }
  std::uint64_t latency_min_us() const { return latency_min_us_; }
  std::uint64_t latency_max_us() const { return latency_max_us_; }
  std::size_t queue_peak_events() const { return queue_.peak_size(); }
  std::size_t queue_peak_bytes() const { return queue_.peak_bytes(); }
  std::uint64_t faults_applied() const { return faults_applied_; }
  VirtualTime last_fault_us() const { return last_fault_us_; }

 private:
  /// Samples latency and loss for the sends of the previously executed
  /// step (queued by on_step). Channels go in index order so RNG
  /// consumption is deterministic; each channel has at most one send per
  /// step.
  void sample_sends() {
    std::sort(unsampled_.begin(), unsampled_.end());
    for (const ChannelIdx c : unsampled_) {
      const std::uint64_t latency = links_[c].sample_latency(rng_);
      bool lost = loss_[c].sample(rng_);
      // FIFO clamp: a fast sample never overtakes the previous message.
      VirtualTime arrival =
          std::max(last_arrival_[c], last_step_time_ + latency);
      if (down_[c] != 0) {
        if (opts_->model.reliable()) {
          // A Reliable link cannot drop: the send waits out the outage
          // (init_faults guarantees a matching link-up exists).
          arrival = std::max(arrival, down_until_[c]);
        } else {
          lost = true;  // sent into the cut — dropped at the reader (g)
        }
      }
      last_arrival_[c] = arrival;
      inflight_[c].push_back(InFlight{arrival, lost});
      Event ev;
      ev.time = arrival;
      ev.kind = Event::Kind::kArrival;
      ev.channel = c;
      queue_.push(ev);
      ++latency_samples_;
      latency_sum_us_ += latency;
      latency_min_us_ = latency_samples_ == 1
                            ? latency
                            : std::min(latency_min_us_, latency);
      latency_max_us_ = std::max(latency_max_us_, latency);
    }
    unsampled_.clear();
  }

  /// Queues a processing activation for v unless one is already pending.
  /// The activation time respects the node's processing delay and MRAI
  /// batching timer (arrivals inside the interval coalesce).
  void schedule_activation(NodeId v) {
    if (activation_scheduled_[v] != 0) {
      return;
    }
    VirtualTime t = clock_.now() + nodes_[v].proc_delay_us;
    if (nodes_[v].mrai_us > 0) {
      t = std::max(t, last_activation_[v] + nodes_[v].mrai_us);
    }
    push_activation(v, t);
  }

  void push_activation(NodeId v, VirtualTime t) {
    Event ev;
    ev.time = t;
    ev.kind = Event::Kind::kActivate;
    ev.node = v;
    queue_.push(ev);
    activation_scheduled_[v] = 1;
  }

  /// Validates the fault schedule against the model and queues one
  /// kFault event per entry (`node` = index into fault_events_).
  void init_faults(const scenario::FaultSchedule& schedule) {
    fault_events_ = schedule.events();
    down_up_time_.assign(fault_events_.size(), 0);
    for (std::size_t i = 0; i < fault_events_.size(); ++i) {
      const scenario::FaultEvent& f = fault_events_[i];
      if (f.kind == scenario::FaultKind::kRegimeShift) {
        check_link(f.regime, opts_->model, "fault regime shift");
      }
      if (f.kind == scenario::FaultKind::kNodeReboot) {
        CR_REQUIRE(f.a != inst_->destination(),
                   "fault schedule: rebooting the destination is not "
                   "supported (its trivial path is structural)");
      }
      if (f.kind == scenario::FaultKind::kLinkDown) {
        // Schedule events are sorted by time, so the first matching
        // link-up after this entry is the end of the outage.
        for (std::size_t j = i + 1; j < fault_events_.size(); ++j) {
          const scenario::FaultEvent& u = fault_events_[j];
          if (u.kind == scenario::FaultKind::kLinkUp &&
              ((u.a == f.a && u.b == f.b) || (u.a == f.b && u.b == f.a))) {
            down_up_time_[i] = u.at_us;
            break;
          }
        }
        CR_REQUIRE(down_up_time_[i] > 0 || !opts_->model.reliable(),
                   "fault schedule: link-down without a later link-up is a "
                   "permanent partition, which only Unreliable models can "
                   "express (got " + opts_->model.name() + ")");
      }
      Event ev;
      ev.time = f.at_us;
      ev.kind = Event::Kind::kFault;
      ev.node = static_cast<NodeId>(i);
      queue_.push(ev);
    }
    faults_pending_ = fault_events_.size();
  }

  /// Fires fault #index at the current virtual instant: mutates the
  /// bound engine state (session resets / reboots), the delivery state
  /// (link outages / regimes), and wakes the affected nodes so the event
  /// queue never drains dry while the run must continue.
  void apply_fault_event(std::size_t index) {
    CR_ASSERT(state_ != nullptr, "sim fault fired before the hook was bound");
    const scenario::FaultEvent& f = fault_events_[index];
    const Graph& g = inst_->graph();
    engine::AppliedFault applied;
    applied.text = f.text(*inst_);
    applied.t_us = clock_.now();
    const auto wake = [&](NodeId v) {
      if (!g.in_channels(v).empty()) {
        schedule_activation(v);
      }
    };
    switch (f.kind) {
      case scenario::FaultKind::kLinkDown:
        for (const ChannelIdx c :
             {g.channel(f.a, f.b), g.channel(f.b, f.a)}) {
          down_[c] = 1;
          down_until_[c] = down_up_time_[index];
          if (opts_->model.reliable()) {
            // Unarrived in-flight messages wait out the outage; the
            // clamp is monotone, so FIFO order inside the queue holds.
            for (InFlight& m : inflight_[c]) {
              if (m.arrival > clock_.now() && m.arrival < down_until_[c]) {
                m.arrival = down_until_[c];
                Event ev;
                ev.time = m.arrival;
                ev.kind = Event::Kind::kArrival;
                ev.channel = c;
                queue_.push(ev);  // the stale earlier arrival is harmless
              }
            }
            if (!inflight_[c].empty()) {
              last_arrival_[c] =
                  std::max(last_arrival_[c], inflight_[c].back().arrival);
            }
          } else {
            // The cut destroys what is still on the wire: unarrived
            // messages become drops at the reader (g).
            for (InFlight& m : inflight_[c]) {
              if (m.arrival > clock_.now()) {
                m.lost = true;
              }
            }
          }
          wake(g.channel_id(c).to);
        }
        break;
      case scenario::FaultKind::kLinkUp:
        for (const ChannelIdx c :
             {g.channel(f.a, f.b), g.channel(f.b, f.a)}) {
          down_[c] = 0;
          wake(g.channel_id(c).to);
        }
        break;
      case scenario::FaultKind::kSessionReset:
      case scenario::FaultKind::kNodeReboot: {
        const scenario::FaultStateEffect eff =
            scenario::apply_fault(*state_, f);
        for (const ChannelIdx c : eff.flushed) {
          // The engine channel was emptied; drop our copy with it
          // (stale kArrival events only trigger no-op activations).
          // last_arrival_ is kept: post-fault sends stay FIFO-safe.
          inflight_[c].clear();
          applied.flushed_channels.push_back(c);
        }
        for (const NodeId v : eff.touched) {
          wake(v);
        }
        break;
      }
      case scenario::FaultKind::kRegimeShift:
        if (f.a == kNoNode) {
          for (ChannelIdx c = 0; c < g.channel_count(); ++c) {
            links_[c] = f.regime;
            loss_[c] = LossProcess(links_[c]);
          }
          // A regime shift wakes nothing by itself; arm one connected
          // node so the queue cannot drain dry while the run continues
          // (its empty-read step is legal in every model — boots are).
          for (NodeId v = 0; v < g.node_count(); ++v) {
            if (!g.in_channels(v).empty()) {
              wake(v);
              break;
            }
          }
        } else {
          for (const ChannelIdx c :
               {g.channel(f.a, f.b), g.channel(f.b, f.a)}) {
            links_[c] = f.regime;
            loss_[c] = LossProcess(links_[c]);
            wake(g.channel_id(c).to);
          }
        }
        break;
    }
    --faults_pending_;
    ++faults_applied_;
    last_fault_us_ = clock_.now();
    applied_.push_back(std::move(applied));
  }

  /// Messages of channel c that have virtually arrived by now.
  std::size_t arrived_count(ChannelIdx c) const {
    const std::vector<InFlight>& q = inflight_[c];
    std::size_t n = 0;
    while (n < q.size() && q[n].arrival <= clock_.now()) {
      ++n;
    }
    return n;
  }

  /// True when the model's induced read on c would touch only arrived
  /// messages. 1-message and forced reads (O / F) need the front to have
  /// arrived (or the channel to be empty); polling reads (A) drain
  /// everything, so they wait for the channel to have *fully* arrived;
  /// some-reads (S) take exactly the arrived prefix and are always legal.
  bool channel_ready(ChannelIdx c) const {
    const std::size_t m = inflight_[c].size();
    switch (opts_->model.messages) {
      case model::MessageMode::kSome:
        return true;
      case model::MessageMode::kAll:
        return arrived_count(c) == m;
      case model::MessageMode::kOne:
      case model::MessageMode::kForced:
        return m == 0 || arrived_count(c) > 0;
    }
    throw InvariantError("bad MessageMode");
  }

  /// Virtual instant at which a currently not-ready channel becomes
  /// ready (given its present contents): the front arrival for O / F,
  /// the back arrival for A.
  VirtualTime ready_at(ChannelIdx c) const {
    const std::vector<InFlight>& q = inflight_[c];
    CR_ASSERT(!q.empty(), "ready_at on ready channel");
    return opts_->model.messages == model::MessageMode::kAll
               ? q.back().arrival
               : q.front().arrival;
  }

  /// Shapes v's activation into a legal step of the configured model, or
  /// defers it (returning nullopt after queueing a later activation)
  /// when the model's read shape would touch unarrived messages.
  std::optional<model::ActivationStep> build_step(NodeId v) {
    const Graph& g = inst_->graph();
    const std::vector<ChannelIdx>& in = g.in_channels(v);
    CR_ASSERT(!in.empty(), "sim activated an isolated node");

    std::vector<ChannelIdx> chosen;
    switch (opts_->model.neighbors) {
      case model::NeighborMode::kEvery: {
        // E models read every in-channel in one step; if any channel is
        // not ready, wait until the last of them is.
        VirtualTime defer = 0;
        for (const ChannelIdx c : in) {
          if (!channel_ready(c)) {
            defer = std::max(defer, ready_at(c));
          }
        }
        if (defer > 0) {
          CR_ASSERT(defer > clock_.now(), "sim deferral does not progress");
          push_activation(v, defer);
          return std::nullopt;
        }
        chosen = in;
        break;
      }
      case model::NeighborMode::kMultiple: {
        // M models choose any subset: take every ready channel with an
        // arrived message. An empty choice is legal (boot steps).
        for (const ChannelIdx c : in) {
          if (channel_ready(c) && arrived_count(c) > 0) {
            chosen.push_back(c);
          }
        }
        break;
      }
      case model::NeighborMode::kOne: {
        // 1-neighbor models process a single channel. Prefer a ready
        // channel with an arrived message (rotating a per-node cursor
        // for fairness), else any empty channel (a no-op read that still
        // lets the node announce), else defer to the earliest instant
        // some channel becomes ready.
        const std::size_t n = in.size();
        std::size_t pick = n;
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t i = (cursor_[v] + k) % n;
          if (channel_ready(in[i]) && arrived_count(in[i]) > 0) {
            pick = i;
            break;
          }
        }
        if (pick == n) {
          for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (cursor_[v] + k) % n;
            if (inflight_[in[i]].empty()) {
              pick = i;
              break;
            }
          }
        }
        if (pick == n) {
          VirtualTime defer = std::numeric_limits<VirtualTime>::max();
          for (const ChannelIdx c : in) {
            defer = std::min(defer, ready_at(c));
          }
          CR_ASSERT(defer > clock_.now(), "sim deferral does not progress");
          push_activation(v, defer);
          return std::nullopt;
        }
        chosen.push_back(in[pick]);
        cursor_[v] = (pick + 1) % n;
        break;
      }
    }

    model::ActivationStep step;
    step.nodes.push_back(v);
    for (const ChannelIdx c : chosen) {
      const std::size_t m = inflight_[c].size();
      const std::size_t a = arrived_count(c);
      model::ReadSpec read;
      read.channel = c;
      std::size_t processed = 0;
      switch (opts_->model.messages) {
        case model::MessageMode::kOne:
          read.count = 1;
          processed = std::min<std::size_t>(1, m);
          break;
        case model::MessageMode::kSome:
          read.count = static_cast<std::uint32_t>(a);
          processed = a;
          break;
        case model::MessageMode::kForced:
          // f >= 1; channel_ready guarantees a > 0 whenever m > 0.
          read.count = static_cast<std::uint32_t>(std::max<std::size_t>(a, 1));
          processed = std::min<std::size_t>(std::max<std::size_t>(a, 1), m);
          break;
        case model::MessageMode::kAll:
          read.count = std::nullopt;  // f = infinity
          processed = m;              // channel_ready guarantees a == m
          break;
      }
      for (std::size_t j = 0; j < processed; ++j) {
        if (inflight_[c][j].lost) {
          read.drops.push_back(static_cast<std::uint32_t>(j + 1));
        }
      }
      step.reads.push_back(std::move(read));
      for (std::size_t j = 0; j < processed; ++j) {
        if (inflight_[c][j].lost) {
          ++messages_lost_;
        } else {
          ++messages_delivered_;
        }
      }
      inflight_[c].erase(inflight_[c].begin(),
                         inflight_[c].begin() +
                             static_cast<std::ptrdiff_t>(processed));
    }

    last_activation_[v] = clock_.now();
    // Arrived messages the step did not consume (e.g. a 1-neighbor model
    // drained only one of several ready channels) must not be stranded:
    // re-arm the node so a later activation serves them.
    for (const ChannelIdx c : in) {
      if (arrived_count(c) > 0) {
        schedule_activation(v);
        break;
      }
    }
    return step;
  }

  const spp::Instance* inst_;
  const SimOptions* opts_;
  Rng rng_;
  EventQueue queue_;
  VirtualClock clock_;
  std::vector<LinkModel> links_;
  std::vector<LossProcess> loss_;
  std::vector<NodeModel> nodes_;
  std::vector<std::vector<InFlight>> inflight_;
  std::vector<ChannelIdx> unsampled_;  ///< sends awaiting sample_sends()
  std::vector<VirtualTime> last_arrival_;
  std::vector<char> activation_scheduled_;
  std::vector<VirtualTime> last_activation_;
  std::vector<std::size_t> cursor_;
  // Fault injection (engine::FaultHook).
  engine::NetworkState* state_ = nullptr;
  std::vector<scenario::FaultEvent> fault_events_;
  std::vector<VirtualTime> down_up_time_;  ///< per link-down: its link-up
  std::vector<char> down_;                 ///< per channel: link is down
  std::vector<VirtualTime> down_until_;    ///< per channel: outage end
  std::vector<engine::AppliedFault> applied_;
  std::size_t faults_pending_ = 0;
  std::uint64_t faults_applied_ = 0;
  VirtualTime last_fault_us_ = 0;
  VirtualTime last_step_time_ = 0;
  std::vector<VirtualTime> step_time_us_;
  std::uint64_t events_processed_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t latency_samples_ = 0;
  std::uint64_t latency_sum_us_ = 0;
  std::uint64_t latency_min_us_ = 0;
  std::uint64_t latency_max_us_ = 0;
};

}  // namespace

SimResult run(const spp::Instance& instance, const SimOptions& options) {
  check_link(options.link, options.model, "SimOptions::link");
  for (const auto& [c, link] : options.link_overrides) {
    check_link(link, options.model,
               "link override for channel " + std::to_string(c));
  }

  obs::Span sim_span = options.obs.span("sim.run");

  SimScheduler scheduler(instance, options);
  engine::RunOptions ropts;
  ropts.max_steps = options.max_steps;
  // Flap timing needs the pi-sequence.
  ropts.record_trace = true;
  // The sim's configuration includes its event queue and RNG stream,
  // which no scheduler signature can capture — run without (sound)
  // cycle detection rather than advertise it.
  ropts.detect_cycles = false;
  ropts.enforce_model = options.model;
  ropts.obs = options.obs;
  ropts.causality = options.causality;
  ropts.flight = options.flight;
  const bool faulted =
      options.faults != nullptr && !options.faults->empty();
  if (faulted) {
    ropts.fault_hook = &scheduler;
  }
  if (ropts.flight.mode != engine::FlightRecorderOptions::Mode::kOff) {
    if (ropts.flight.scheduler.empty()) {
      ropts.flight.scheduler = "sim";
    }
    if (ropts.flight.seed == 0) {
      ropts.flight.seed = options.seed;
    }
  }

  SimResult result;
  result.run = engine::run(instance, scheduler, ropts);

  result.step_time_us = scheduler.step_times();
  result.virtual_end_us = scheduler.last_step_time();
  result.events_processed = scheduler.events_processed();
  result.messages_delivered = scheduler.messages_delivered();
  result.messages_lost = scheduler.messages_lost();
  result.latency_samples = scheduler.latency_samples();
  result.latency_sum_us = scheduler.latency_sum_us();
  result.latency_min_us = scheduler.latency_min_us();
  result.latency_max_us = scheduler.latency_max_us();
  result.queue_peak_events = scheduler.queue_peak_events();
  result.queue_peak_bytes = scheduler.queue_peak_bytes();
  result.faults_applied = scheduler.faults_applied();
  result.last_fault_us = scheduler.last_fault_us();
  if (result.run.causality.has_value()) {
    result.critical_path_us = result.run.causality->critical_path_us();
  }

  // Flap times from the recorded pi-sequence: step t's changes happened
  // at step_time_us[t - 1].
  const trace::Trace& tr = result.run.trace;
  result.last_flap_us.assign(instance.node_count(), 0);
  CR_ASSERT(tr.size() == result.step_time_us.size() + 1,
            "sim trace / step-time length mismatch");
  for (std::size_t t = 1; t < tr.size(); ++t) {
    const std::span<const trace::Change> changes = tr.changes(t);
    for (const trace::Change& change : changes) {
      result.last_flap_us[change.node] = result.step_time_us[t - 1];
    }
    if (!changes.empty()) {
      result.last_change_us = result.step_time_us[t - 1];
    }
  }

  if (options.obs.attached()) {
    if (sim_span.enabled()) {
      sim_span.attr("model", options.model.name())
          .attr("seed", options.seed)
          .attr("outcome", engine::to_string(result.run.outcome))
          .attr("virtual_end_us", result.virtual_end_us);
      sim_span.finish();
    }
    if (obs::Histogram* h = options.obs.histogram(
            "sim.virtual_time_us", obs::exponential_buckets(64, 4.0, 12))) {
      h->observe(result.virtual_end_us);
    }
    if (options.obs.metrics != nullptr) {
      obs::Registry& m = *options.obs.metrics;
      m.counter("sim.runs").add();
      m.counter("sim.steps").add(result.run.steps);
      m.counter("sim.events").add(result.events_processed);
      m.counter("sim.messages_delivered").add(result.messages_delivered);
      m.counter("sim.messages_lost").add(result.messages_lost);
      m.gauge("sim.virtual_end_us").record_max(result.virtual_end_us);
      m.gauge("sim.queue_peak_events").record_max(result.queue_peak_events);
      m.gauge("sim.queue_peak_bytes").record_max(result.queue_peak_bytes);
    }
    if (options.obs.sink != nullptr) {
      // Virtual-time fields only: a sim_summary is byte-stable across
      // runs with identical options (the determinism acceptance check).
      obs::Event ev("sim_summary");
      ev.field("model", options.model.name())
          .field("seed", options.seed)
          .field("outcome", engine::to_string(result.run.outcome))
          .field("steps", result.run.steps)
          .field("virtual_end_us", result.virtual_end_us)
          .field("last_change_us", result.last_change_us)
          .field("events", result.events_processed)
          .field("messages_sent", result.run.messages_sent)
          .field("messages_delivered", result.messages_delivered)
          .field("messages_lost", result.messages_lost)
          .field("queue_peak_events", result.queue_peak_events)
          .field("queue_peak_bytes", result.queue_peak_bytes)
          .field("mean_latency_us", result.mean_latency_us());
      if (options.causality) {
        ev.field("critical_path_len", result.run.critical_path_len)
            .field("critical_path_us", result.critical_path_us);
      }
      if (faulted) {
        // Gated like the causality fields: fault-free sim_summary lines
        // keep their exact pre-scenario bytes.
        ev.field("faults_applied", result.faults_applied)
            .field("last_fault_us", result.last_fault_us)
            .field("reconverge_us", result.reconverge_us());
      }
      options.obs.sink->emit(ev);
    }
  }
  return result;
}

std::string SimResult::to_json() const {
  obs::JsonWriter w;
  w.field("type", "sim_summary")
      .field("outcome", engine::to_string(run.outcome))
      .field("steps", run.steps)
      .field("virtual_end_us", virtual_end_us)
      .field("last_change_us", last_change_us)
      .field("events_processed", events_processed)
      .field("messages_sent", run.messages_sent)
      .field("messages_delivered", messages_delivered)
      .field("messages_lost", messages_lost)
      .field("latency_samples", latency_samples)
      .field("latency_sum_us", latency_sum_us)
      .field("latency_min_us", latency_min_us)
      .field("latency_max_us", latency_max_us)
      .field("queue_peak_events", queue_peak_events)
      .field("queue_peak_bytes", queue_peak_bytes)
      .field("critical_path_len", run.critical_path_len)
      .field("critical_path_us", critical_path_us);
  if (faults_applied > 0) {
    // Faulted runs only — fault-free documents keep their exact schema.
    w.field("faults_applied", faults_applied)
        .field("last_fault_us", last_fault_us);
  }
  std::string flaps = "[";
  for (std::size_t i = 0; i < last_flap_us.size(); ++i) {
    if (i > 0) {
      flaps += ',';
    }
    flaps += std::to_string(last_flap_us[i]);
  }
  flaps += ']';
  w.raw_field("last_flap_us", flaps);
  return w.str();
}

SimResult SimResult::from_json(const std::string& json) {
  const std::optional<obs::JsonValue> parsed = obs::json_parse(json);
  if (!parsed.has_value() || !parsed->is_object()) {
    throw ParseError("sim_summary: not a JSON object");
  }
  const auto checked_u64 = [](const obs::JsonValue& v,
                              const std::string& key) {
    const std::optional<std::uint64_t> n = v.as_u64();
    if (!n.has_value()) {
      throw ParseError("sim_summary: field \"" + key +
                       "\" must be an integer in [0, 2^64)");
    }
    return *n;
  };
  const auto u64 = [&](const std::string& key) {
    const obs::JsonValue* v = parsed->find(key);
    if (v == nullptr || !v->is_number()) {
      throw ParseError("sim_summary: missing numeric field \"" + key + "\"");
    }
    return checked_u64(*v, key);
  };

  SimResult r;
  const obs::JsonValue* outcome = parsed->find("outcome");
  if (outcome == nullptr || !outcome->is_string()) {
    throw ParseError("sim_summary: missing string field \"outcome\"");
  }
  const std::optional<engine::Outcome> parsed_outcome =
      engine::outcome_from_string(outcome->as_string());
  if (!parsed_outcome.has_value()) {
    throw ParseError("sim_summary: unknown outcome \"" +
                     outcome->as_string() + "\"");
  }
  r.run.outcome = *parsed_outcome;
  r.run.steps = u64("steps");
  r.virtual_end_us = u64("virtual_end_us");
  r.last_change_us = u64("last_change_us");
  r.events_processed = u64("events_processed");
  r.run.messages_sent = u64("messages_sent");
  r.messages_delivered = u64("messages_delivered");
  r.messages_lost = u64("messages_lost");
  r.latency_samples = u64("latency_samples");
  r.latency_sum_us = u64("latency_sum_us");
  r.latency_min_us = u64("latency_min_us");
  r.latency_max_us = u64("latency_max_us");
  // Queue-depth fields postdate the first sim_summary schema; default to
  // 0 when reading older documents.
  const auto u64_or_zero = [&](const std::string& key) -> std::uint64_t {
    const obs::JsonValue* v = parsed->find(key);
    return (v != nullptr && v->is_number()) ? checked_u64(*v, key) : 0;
  };
  r.queue_peak_events = u64_or_zero("queue_peak_events");
  r.queue_peak_bytes = u64_or_zero("queue_peak_bytes");
  // Causality fields postdate the queue fields; same compatibility rule.
  r.run.critical_path_len = u64_or_zero("critical_path_len");
  r.critical_path_us = u64_or_zero("critical_path_us");
  // Fault fields appear on faulted runs only (schema v3 era).
  r.faults_applied = u64_or_zero("faults_applied");
  r.last_fault_us = u64_or_zero("last_fault_us");
  const obs::JsonValue* flaps = parsed->find("last_flap_us");
  if (flaps == nullptr || !flaps->is_array()) {
    throw ParseError("sim_summary: missing array field \"last_flap_us\"");
  }
  for (const obs::JsonValue& f : flaps->as_array()) {
    if (!f.is_number()) {
      throw ParseError("sim_summary: last_flap_us entries must be numbers");
    }
    r.last_flap_us.push_back(checked_u64(f, "last_flap_us"));
  }
  return r;
}

}  // namespace commroute::sim
