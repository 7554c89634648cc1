// Shared declarations of the end-to-end benchmark: clocks, the per-layer
// accumulators of a traced run, the replicas that fill them, and the
// workload interface main.cpp drives.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "model/model.hpp"
#include "sim/sim_runner.hpp"
#include "spp/instance.hpp"
#include "study/campaign.hpp"
#include "study/checker_campaign.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace commroute;

// ---------------------------------------------------------------- clocks

/// Process CPU time and wall time, read together. Every timing the
/// benchmark reports is CPU time; the wall time rides along so a run can
/// tell how much of the core the host gave it.
struct Clock {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  static Clock now();
};

struct Elapsed {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  Elapsed& operator+=(const Elapsed& o) {
    cpu_s += o.cpu_s;
    wall_s += o.wall_s;
    return *this;
  }
};

Elapsed since(const Clock& start);

/// CPU seconds one lap costs on the running machine (measured).
double lap_cost_s();

// ------------------------------------------------------- layer metrics

/// Phases of the replica run loop (engine::run rebuilt from public calls).
enum EnginePhase : std::size_t {
  kSchedNext,
  kEngineExecute,
  kQuiescence,
  kChannelUsage,
  kCycle,
  kEngineOther,  ///< loop bookkeeping of the replica itself
  kEnginePhases
};

/// Phases of the replica BFS (checker::explore rebuilt from public calls).
enum CheckerPhase : std::size_t {
  kEnumerate,  ///< strong-quiescence test + enumerate_steps
  kCopy,
  kCheckerExecute,  ///< execute_step + the channel-bound check
  kHash,
  kIntern,  ///< ShardedStateSet::intern, which hashes once more itself
  kCheckerOther,
  kCheckerPhases
};

/// Everything a traced run measures, summed over every call it makes
/// into a layer: the workload's own operations and the replica
/// self-tests (so no layer reads zero on a workload that bypasses it).
struct Layers {
  // spp
  double spp_generate_s = 0.0;
  std::uint64_t spp_channels = 0;
  std::uint64_t spp_permitted_paths = 0;

  // engine: replica phases vs the real engine::run on the same runs
  std::array<double, kEnginePhases> engine_us{};
  double engine_run_us = 0.0;
  std::uint64_t engine_steps = 0;
  std::uint64_t engine_messages_sent = 0;
  std::uint64_t engine_state_bytes = 0;  ///< largest final state

  // sim
  std::uint64_t sim_steps = 0;
  double sim_run_us = 0.0;
  double sim_replay_us = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t sim_messages_delivered = 0;
  std::uint64_t sim_queue_peak_events = 0;

  // checker: replica phases vs the real checker::explore on the same input
  std::array<double, kCheckerPhases> checker_us{};
  double checker_explore_us = 0.0;
  std::uint64_t checker_states = 0;
  std::uint64_t checker_transitions = 0;
  std::uint64_t checker_dedup_hits = 0;
  std::uint64_t checker_tracked_bytes = 0;  ///< summed tracked peaks

  // study
  double study_matrix_s = 0.0;
  std::uint64_t study_rows = 0;
  std::uint64_t study_steps = 0;
  std::uint64_t study_cells = 0;
  std::uint64_t study_cell_states = 0;

  // obs: the same campaign with instrumentation attached and detached
  double obs_attached_s = 0.0;
  double obs_detached_s = 0.0;
  std::uint64_t obs_events = 0;
  std::uint64_t obs_event_bytes = 0;

  // bench: the workload's own operations (self-tests excluded): the
  // program's CPU time and the phase laps its replicas took
  double program_s = 0.0;
  std::uint64_t laps = 0;

  /// Replica and self-test checks made, and the ones that failed (each
  /// failure fails the traced run).
  std::uint64_t checks = 0;
  std::vector<std::string> mismatches;
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      mismatches.push_back(what);
    }
  }
};

// ------------------------------------------------------------ replicas

/// What the replica run loop reproduces of engine::RunResult.
struct LoopResult {
  engine::Outcome outcome = engine::Outcome::kExhausted;
  std::uint64_t steps = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t cycle_start = 0;
  std::uint64_t cycle_length = 0;
  std::vector<Path> final_assignment;
  double cpu_s = 0.0;  ///< the replica call, laps included
};

/// engine::run's loop (no fault hook, recording, fairness or obs),
/// timed per phase into `layers`.
LoopResult replica_run(const spp::Instance& instance,
                       engine::Scheduler& scheduler, std::uint64_t max_steps,
                       bool detect_cycles, Layers& layers);

/// Adds a real engine::run and its CPU time to `layers` and checks the
/// replica's result against it.
void add_run(const std::string& label, const engine::RunResult& real,
             double real_cpu_s, const LoopResult& replica, Layers& layers);

/// What the replica BFS reproduces of checker::ExploreResult.
struct BfsResult {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t dedup_hits = 0;
  double cpu_s = 0.0;
};

/// checker::explore's serial BFS (threads = 1, no state cap), timed per
/// phase into `layers`. Counts only: no edges, no SCC pruning.
BfsResult replica_bfs(const spp::Instance& instance, const model::Model& m,
                      std::size_t max_channel_length, Layers& layers);

/// Adds a real explore's counts to `layers` and checks the replica's
/// against them. The caller adds the explore's time.
void add_explore(const std::string& label, const checker::ExploreResult& real,
                 const BfsResult& replica, Layers& layers);

/// Adds a generated instance's channels and permitted paths to `layers`.
void add_generated(const spp::Instance& instance, Layers& layers);

/// The campaign CSV with the wall_ms column zeroed (the bytes that must
/// repeat for a seed).
std::string campaign_csv(study::CampaignResult result);

/// run_campaign with a metrics registry and a counting event sink
/// attached; adds the events and their JSONL bytes to the counters.
study::CampaignResult run_attached_campaign(study::CampaignSpec spec,
                                            std::uint64_t& events,
                                            std::uint64_t& event_bytes);

/// The campaign detached and attached (obs layer), then every row again
/// through engine::run and the replica run loop. Returns the detached
/// result.
study::CampaignResult traced_campaign(const std::string& label,
                                      const study::CampaignSpec& spec,
                                      Layers& layers);

/// The checker matrix, then every cell again through the replica BFS.
study::CheckerMatrixResult traced_matrix(const std::string& label,
                                         const study::CheckerMatrixSpec& spec,
                                         Layers& layers);

/// sim::run, then the step sequence it produced replayed through
/// engine::run with a ScriptedScheduler.
sim::SimResult traced_sim(const std::string& label,
                          const spp::Instance& instance,
                          const sim::SimOptions& options, Layers& layers);

/// The sim of converge-400 (REA, exponential 2 ms links).
sim::SimOptions converge_sim_options(std::uint64_t seed);

/// Self-tests of the replicas: DISAGREE x 24 models through the checker
/// matrix, BAD- and GOOD-GADGET x 24 models round-robin through a
/// campaign, and a small seeded sim replay. Part of every traced run.
void self_tests(std::uint64_t seed, Layers& layers);

// ----------------------------------------------------------- workloads

/// Outcome of one pass of a workload's timed operations.
struct PassResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The pass's timed parts, in the same order every pass (checks are
  /// not timed). Empty from traced().
  std::vector<Elapsed> parts;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds the inputs from the seed (plus any warm-up). Called several
  /// times per run; each call replaces the previous inputs.
  virtual void setup() = 0;
  /// Runs and checks the timed operations once.
  virtual PassResult pass() = 0;
  /// The workload's operations through the real program and through the
  /// replicas, filling `layers` and checking outputs as pass() does.
  virtual PassResult traced(Layers& layers) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// 64-bit FNV-1a, for pinning output bytes.
std::uint64_t fnv1a(const std::string& bytes);

}  // namespace perfbench
