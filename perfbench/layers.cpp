// Replicas of the engine run loop and the checker BFS, built from the
// layers' public calls so each phase can be timed from outside src/, and
// the traced helpers that run the real program and a replica side by
// side on the same input.
#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <deque>
#include <unordered_map>

#include "checker/state_set.hpp"
#include "checker/successors.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "obs/metrics.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"
#include "support/hash.hpp"

namespace perfbench {

Clock Clock::now() {
  timespec cpu{};
  timespec wall{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  clock_gettime(CLOCK_MONOTONIC, &wall);
  return Clock{static_cast<double>(cpu.tv_sec) + cpu.tv_nsec * 1e-9,
               static_cast<double>(wall.tv_sec) + wall.tv_nsec * 1e-9};
}

Elapsed since(const Clock& start) {
  const Clock end = Clock::now();
  return Elapsed{end.cpu_s - start.cpu_s, end.wall_s - start.wall_s};
}

namespace {

/// Phase laps of one replica call. Phases are lapped on the steady clock
/// (a vDSO read); reading the process CPU clock at every phase boundary
/// would cost more than the shortest phases. finish() converts the laps
/// to CPU time by the call's own CPU/wall ratio.
template <std::size_t N>
class Laps {
 public:
  Laps() : start_(Clock::now()), last_(std::chrono::steady_clock::now()) {}

  /// Charges the time since the previous lap to `phase`.
  void lap(std::size_t phase) {
    const auto t = std::chrono::steady_clock::now();
    ns_[phase] += std::chrono::duration<double, std::nano>(t - last_).count();
    last_ = t;
    ++count_;
  }

  /// Adds the call's phase times, in CPU microseconds, to `out_us` and its
  /// lap count to `laps`; returns the call's elapsed CPU and wall time.
  Elapsed finish(std::array<double, N>& out_us, std::uint64_t& laps) const {
    const Elapsed e = since(start_);
    const double scale = e.wall_s > 0.0 ? e.cpu_s / e.wall_s : 1.0;
    for (std::size_t i = 0; i < N; ++i) {
      out_us[i] += ns_[i] * 1e-3 * scale;
    }
    laps += count_;
    return e;
  }

 private:
  Clock start_;
  std::chrono::steady_clock::time_point last_;
  std::array<double, N> ns_{};
  std::uint64_t count_ = 0;
};

}  // namespace

double lap_cost_s() {
  constexpr int kLaps = 1 << 20;
  Laps<1> laps;
  for (int i = 0; i < kLaps; ++i) {
    laps.lap(0);
  }
  std::array<double, 1> sink{};
  std::uint64_t count = 0;
  return laps.finish(sink, count).cpu_s / kLaps;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t permitted_paths(const spp::Instance& instance) {
  std::uint64_t paths = 0;
  for (NodeId v = 0; v < instance.node_count(); ++v) {
    paths += instance.permitted(v).size();
  }
  return paths;
}

void add_generated(const spp::Instance& instance, Layers& layers) {
  layers.spp_channels += instance.graph().channel_count();
  layers.spp_permitted_paths += permitted_paths(instance);
}

// ------------------------------------------------------------- engine

LoopResult replica_run(const spp::Instance& instance,
                       engine::Scheduler& scheduler, std::uint64_t max_steps,
                       bool detect_cycles, Layers& layers) {
  Laps<kEnginePhases> laps;
  engine::NetworkState state(instance);
  LoopResult result;

  // The cycle table exactly as engine::run keeps it.
  struct Seen {
    engine::NetworkState state;
    std::uint64_t signature;
    std::uint64_t step;
    std::size_t changes_before;
  };
  std::unordered_map<std::size_t, std::vector<Seen>> seen;
  std::size_t total_changes = 0;
  const bool can_detect_cycles =
      detect_cycles && scheduler.signature().has_value();
  const auto key_of = [](const engine::NetworkState& s, std::uint64_t sig) {
    std::size_t key = s.hash();
    hash_combine_value(key, sig);
    return key;
  };
  if (can_detect_cycles) {
    laps.lap(kEngineOther);
    const std::uint64_t sig = *scheduler.signature();
    seen[key_of(state, sig)].push_back(Seen{state, sig, 0, 0});
    laps.lap(kCycle);
  }

  while (result.steps < max_steps) {
    laps.lap(kEngineOther);
    const bool quiet = engine::strongly_quiescent(state);
    laps.lap(kQuiescence);
    if (quiet) {
      result.outcome = engine::Outcome::kConverged;
      break;
    }
    if (scheduler.exhausted()) {
      break;
    }
    const model::ActivationStep step = scheduler.next(state);
    laps.lap(kSchedNext);
    const engine::StepEffect effect = engine::execute_step(state, step);
    laps.lap(kEngineExecute);
    ++result.steps;
    result.messages_sent += effect.sent.size();
    for (const engine::NodeEffect& node : effect.nodes) {
      total_changes += node.changed ? 1 : 0;
    }
    laps.lap(kEngineOther);
    state.channel_usage();
    laps.lap(kChannelUsage);

    if (can_detect_cycles) {
      const std::uint64_t sig = *scheduler.signature();
      const std::size_t key = key_of(state, sig);
      const Seen* repeat = nullptr;
      if (const auto it = seen.find(key); it != seen.end()) {
        for (const Seen& candidate : it->second) {
          if (candidate.signature == sig && candidate.state == state) {
            repeat = &candidate;
            break;
          }
        }
      }
      if (repeat != nullptr) {
        result.cycle_start = repeat->step;
        result.cycle_length = result.steps - repeat->step;
        result.outcome = total_changes > repeat->changes_before
                             ? engine::Outcome::kOscillating
                             : engine::Outcome::kConverged;
        laps.lap(kCycle);
        break;
      }
      seen[key].push_back(Seen{state, sig, result.steps, total_changes});
      laps.lap(kCycle);
    }
  }
  result.final_assignment = state.assignments();
  layers.engine_state_bytes = std::max<std::uint64_t>(
      layers.engine_state_bytes, state.estimated_bytes());
  laps.lap(kEngineOther);
  result.cpu_s = laps.finish(layers.engine_us, layers.laps).cpu_s;
  return result;
}

void add_run(const std::string& label, const engine::RunResult& real,
             double real_cpu_s, const LoopResult& replica, Layers& layers) {
  layers.engine_run_us += real_cpu_s * 1e6;
  layers.engine_steps += real.steps;
  layers.engine_messages_sent += real.messages_sent;
  layers.expect(replica.steps == real.steps &&
                    replica.outcome == real.outcome &&
                    replica.messages_sent == real.messages_sent &&
                    replica.cycle_start == real.cycle_start &&
                    replica.cycle_length == real.cycle_length &&
                    replica.final_assignment == real.final_assignment,
                label + ": replica run loop diverged from engine::run (" +
                    std::to_string(replica.steps) + " vs " +
                    std::to_string(real.steps) + " steps)");
}

// ------------------------------------------------------------- checker

BfsResult replica_bfs(const spp::Instance& instance, const model::Model& m,
                      std::size_t max_channel_length, Layers& layers) {
  Laps<kCheckerPhases> laps;
  checker::ShardedStateSet seen(1);
  std::deque<const engine::NetworkState*> frontier{
      seen.intern(engine::NetworkState(instance)).state};
  BfsResult result;
  result.states = 1;

  while (!frontier.empty()) {
    const engine::NetworkState& s = *frontier.front();
    frontier.pop_front();
    laps.lap(kCheckerOther);
    if (engine::strongly_quiescent(s)) {
      laps.lap(kEnumerate);
      continue;
    }
    const std::vector<model::ActivationStep> steps =
        checker::enumerate_steps(s, m);
    laps.lap(kEnumerate);
    for (const model::ActivationStep& step : steps) {
      laps.lap(kCheckerOther);
      engine::NetworkState next = s;
      laps.lap(kCopy);
      engine::execute_step(next, step);
      const bool beyond_bound = next.max_channel_length() > max_channel_length;
      laps.lap(kCheckerExecute);
      if (beyond_bound) {
        continue;
      }
      next.hash();
      laps.lap(kHash);
      const checker::ShardedStateSet::InternResult interned =
          seen.intern(std::move(next));
      laps.lap(kIntern);
      ++result.transitions;
      if (interned.inserted) {
        ++result.states;
        frontier.push_back(interned.state);
      } else {
        ++result.dedup_hits;
      }
    }
  }
  laps.lap(kCheckerOther);
  result.cpu_s = laps.finish(layers.checker_us, layers.laps).cpu_s;
  return result;
}

void add_explore(const std::string& label, const checker::ExploreResult& real,
                 const BfsResult& replica, Layers& layers) {
  layers.checker_states += real.states;
  layers.checker_transitions += real.transitions;
  layers.checker_dedup_hits += real.dedup_hits;
  layers.checker_tracked_bytes += real.tracked_peak_bytes;
  layers.expect(replica.states == real.states &&
                    replica.transitions == real.transitions &&
                    replica.dedup_hits == real.dedup_hits,
                label + ": replica BFS diverged from checker::explore (" +
                    std::to_string(replica.states) + " vs " +
                    std::to_string(real.states) + " states)");
}

// --------------------------------------------------------------- study

namespace {

/// Counts what an attached sink would write, without keeping it.
class CountingSink final : public obs::EventSink {
 public:
  void emit(const obs::Event& event) override {
    ++events;
    bytes += event.to_json().size() + 1;  // JSONL newline
  }
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
};

/// The instance a campaign row or matrix cell names in its spec.
const spp::Instance& instance_named(
    const std::vector<std::pair<std::string, const spp::Instance*>>& named,
    const std::string& name) {
  for (const auto& [n, instance] : named) {
    if (n == name) {
      return *instance;
    }
  }
  throw InvariantError("no spec instance named " + name);
}

/// The scheduler run_campaign builds for an engine row.
std::unique_ptr<engine::Scheduler> row_scheduler(
    const study::CampaignSpec& spec, const study::CampaignRow& row,
    const spp::Instance& instance) {
  switch (row.scheduler) {
    case study::SchedulerKind::kRoundRobin:
      return std::make_unique<engine::RoundRobinScheduler>(row.model,
                                                            instance);
    case study::SchedulerKind::kRandomFair:
      return std::make_unique<engine::RandomFairScheduler>(
          row.model, instance,
          Rng(study::derive_row_seed(row.instance, row.model.index(),
                                     row.scheduler, row.seed)),
          engine::RandomFairOptions{
              .drop_prob = row.model.reliable() ? 0.0 : spec.drop_prob,
              .sweep_period = 16});
    default:
      throw InvariantError("benchmark campaigns use round-robin and "
                           "random-fair rows only");
  }
}

}  // namespace

std::string campaign_csv(study::CampaignResult result) {
  for (study::CampaignRow& row : result.rows) {
    row.wall_ms = 0.0;
  }
  return result.to_csv();
}

study::CampaignResult run_attached_campaign(study::CampaignSpec spec,
                                            std::uint64_t& events,
                                            std::uint64_t& event_bytes) {
  obs::Registry metrics;
  CountingSink sink;
  spec.obs.metrics = &metrics;
  spec.obs.sink = &sink;
  study::CampaignResult result = study::run_campaign(spec);
  events += sink.events;
  event_bytes += sink.bytes;
  return result;
}

study::CampaignResult traced_campaign(const std::string& label,
                                      const study::CampaignSpec& spec,
                                      Layers& layers) {
  Clock start = Clock::now();
  study::CampaignResult detached = study::run_campaign(spec);
  layers.obs_detached_s += since(start).cpu_s;
  start = Clock::now();
  const study::CampaignResult attached = run_attached_campaign(
      spec, layers.obs_events, layers.obs_event_bytes);
  layers.obs_attached_s += since(start).cpu_s;
  layers.expect(campaign_csv(attached) == campaign_csv(detached),
                label + ": attaching obs changed the campaign CSV");

  for (const study::CampaignRow& row : detached.rows) {
    const spp::Instance& instance =
        instance_named(spec.instances, row.instance);
    const std::string row_label = label + " " + row.instance + " " +
                                  row.model.name() + " " +
                                  study::to_string(row.scheduler);
    engine::RunOptions options;
    options.max_steps = spec.max_steps;
    options.record_trace = false;
    options.enforce_model = row.model;
    std::unique_ptr<engine::Scheduler> scheduler =
        row_scheduler(spec, row, instance);
    start = Clock::now();
    const engine::RunResult real = engine::run(instance, *scheduler, options);
    const double real_s = since(start).cpu_s;
    layers.expect(real.steps == row.steps && real.outcome == row.outcome,
                  row_label + ": engine::run disagrees with the campaign row");

    scheduler = row_scheduler(spec, row, instance);
    const LoopResult replica =
        replica_run(instance, *scheduler, spec.max_steps, true, layers);
    add_run(row_label, real, real_s, replica, layers);
    layers.program_s += real_s;
    ++layers.study_rows;
    layers.study_steps += row.steps;
  }
  return detached;
}

study::CheckerMatrixResult traced_matrix(const std::string& label,
                                         const study::CheckerMatrixSpec& spec,
                                         Layers& layers) {
  const Clock start = Clock::now();
  study::CheckerMatrixResult matrix = study::run_checker_matrix(spec);
  const double matrix_s = since(start).cpu_s;
  layers.checker_explore_us += matrix_s * 1e6;
  layers.study_matrix_s += matrix_s;
  layers.program_s += matrix_s;
  for (const study::CheckerMatrixCell& cell : matrix.cells) {
    const BfsResult replica =
        replica_bfs(instance_named(spec.instances, cell.instance), cell.model,
                    spec.explore.max_channel_length, layers);
    add_explore(label + " " + cell.instance + " " + cell.model.name(),
                cell.result, replica, layers);
    ++layers.study_cells;
    layers.study_cell_states += cell.result.states;
  }
  return matrix;
}

// ----------------------------------------------------------------- sim

sim::SimResult traced_sim(const std::string& label,
                          const spp::Instance& instance,
                          const sim::SimOptions& options, Layers& layers) {
  Clock start = Clock::now();
  sim::SimResult result = sim::run(instance, options);
  layers.sim_run_us += since(start).cpu_s * 1e6;
  layers.sim_steps += result.run.steps;
  layers.sim_events += result.events_processed;
  layers.sim_messages_delivered += result.messages_delivered;
  layers.sim_queue_peak_events =
      std::max(layers.sim_queue_peak_events, result.queue_peak_events);

  // The step sequence the sim produced, replayed through the engine with
  // the run options sim::run gives it: what is left of sim.run_us is the
  // sim's own work (event queue, link sampling, shaping, send sync).
  sim::SimOptions recorded_options = options;
  recorded_options.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
  const sim::SimResult recorded = sim::run(instance, recorded_options);
  model::ActivationScript script = recorded.run.recording->steps;
  const std::uint64_t script_steps = script.size();
  engine::ScriptedScheduler replay_scheduler(std::move(script));
  engine::RunOptions replay_options;
  replay_options.max_steps = script_steps;
  replay_options.detect_cycles = false;
  replay_options.enforce_model = options.model;
  start = Clock::now();
  const engine::RunResult replay =
      engine::run(instance, replay_scheduler, replay_options);
  layers.sim_replay_us += since(start).cpu_s * 1e6;
  layers.expect(recorded.to_json() == result.to_json() &&
                    replay.steps == result.run.steps &&
                    replay.final_assignment == result.run.final_assignment,
                label + ": the sim's step sequence does not replay to its "
                        "final assignment");
  return result;
}

// ---------------------------------------------------------- self-tests

void self_tests(std::uint64_t seed, Layers& layers) {
  // Only the workload's own operations count toward the trace overhead.
  const double program_s = layers.program_s;
  const std::uint64_t laps = layers.laps;

  const spp::Instance disagree = spp::disagree();
  study::CheckerMatrixSpec matrix;
  matrix.instances = {{"DISAGREE", &disagree}};
  matrix.explore.max_channel_length = 3;
  traced_matrix("self-test", matrix, layers);

  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance good = spp::good_gadget();
  study::CampaignSpec campaign;
  campaign.instances = {{"BAD-GADGET", &bad}, {"GOOD-GADGET", &good}};
  campaign.models = model::Model::all();
  campaign.schedulers = {study::SchedulerKind::kRoundRobin};
  campaign.max_steps = 20000;
  campaign.threads = 1;
  traced_campaign("self-test", campaign, layers);

  const Clock start = Clock::now();
  Rng rng(seed);
  spp::RandomInstanceParams params;
  params.nodes = 40;
  params.extra_edge_prob = 0.1;
  params.max_paths_per_node = 8;
  const spp::Instance small = spp::random_shortest(rng, params);
  layers.spp_generate_s += since(start).cpu_s;
  add_generated(small, layers);
  traced_sim("self-test", small, converge_sim_options(seed), layers);

  layers.program_s = program_s;
  layers.laps = laps;
}

sim::SimOptions converge_sim_options(std::uint64_t seed) {
  sim::SimOptions options;
  options.model = model::Model::parse("REA");
  options.link.dist = sim::LatencyDist::kExponential;
  options.link.latency_us = 2000;
  options.seed = seed;
  options.max_steps = 1000000;
  return options;
}

}  // namespace perfbench
