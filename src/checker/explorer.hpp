// Bounded exhaustive exploration of all executions of an instance under a
// communication model, with sound fair-oscillation detection.
//
// The explorer builds the reachable configuration graph (configurations
// are full NetworkStates; edges are canonical activation steps; a step
// that changes nothing is a self-loop, kept as its state's read attempts
// rather than as an edge) up to a channel-length bound, then decides
// whether a *fair* non-convergent execution exists:
//
//   A fair oscillation exists iff, after iteratively deleting from every
//   SCC the drop-edges whose channel has no delivery-edge in the same SCC
//   (to a fixpoint), some SCC retains (a) an edge changing the path
//   assignment and (b) read attempts covering every channel of the graph.
//
// Soundness both ways (within the explored subgraph): any SCC passing the
// test yields a fair infinite execution by touring its edges; conversely
// the infinitely-often-used edges of any fair oscillation form a strongly
// connected sub-multigraph that survives the pruning and passes the test.
//
// When the channel bound or the state cap is hit the result is marked
// non-exhaustive: a "no oscillation" verdict then only covers executions
// whose channels stay within the bound. For the paper's gadgets the
// default bound is never hit, so verdicts are complete.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checker/searcher.hpp"
#include "engine/state.hpp"
#include "model/activation.hpp"
#include "model/model.hpp"
#include "obs/obs.hpp"
#include "trace/trace.hpp"

namespace commroute::checker {

struct ExploreOptions {
  std::size_t max_channel_length = 4;
  std::size_t max_states = 500000;
  std::size_t max_steps_per_state = 20000;
  /// Truncate exploration once the tracked-bytes estimate of the
  /// explorer's own structures (interned states, transitions, frontier,
  /// hash index) exceeds this many bytes; 0 means unbounded. The
  /// estimate is deterministic (see NetworkState::estimated_bytes), so a
  /// limited run truncates at the same state on every machine — unlike
  /// an RSS-based limit would. It charges the unit costs of an older
  /// layout, which stored every transition as an edge and, under
  /// extract_witness, its step too; those charges stay, so limits and
  /// tracked_peak_bytes mean what they did.
  std::size_t memory_limit_bytes = 0;
  /// Also construct a replayable witness for a found oscillation: a
  /// prefix script from the initial state to the witness SCC plus a cycle
  /// script touring every transition of the SCC (hence covering all
  /// channel attempts and at least one assignment change). The steps are
  /// re-derived after the verdict from the states the witness visits,
  /// so exploration keeps no step per transition; the tour's time grows
  /// with the SCC's size times its edges.
  bool extract_witness = false;
  /// Optional metrics registry / JSONL event sink / span collector.
  /// Detached (the default) adds nothing measurable; attached,
  /// explore() publishes expansion/dedup/frontier aggregates, emits a
  /// periodic "checker_heartbeat" plus a final "checker_summary" event,
  /// and traces checker.explore > checker.frontier_batch >
  /// checker.expand plus per-pass checker.scc_prune_pass spans.
  obs::Instrumentation obs;
  /// With a sink attached, emit a heartbeat every this many expanded
  /// states (0 disables heartbeats). Every heartbeat carries
  /// `elapsed_ms`.
  std::size_t heartbeat_every = 10000;
  /// Worker threads for frontier expansion: 1 (default) explores on the
  /// calling thread; 0 means hardware_concurrency(). Exploration is
  /// wave-based — a batch of frontier states expands in parallel against
  /// a sharded concurrent seen-set, then the results merge on the
  /// calling thread in deterministic enumeration order with canonical
  /// StateId re-numbering — so under the default BFS searcher the
  /// verdict, `states`, `transitions`, `dedup_hits`, witness scripts,
  /// and the `checker_summary` event (minus `wall_us`) are
  /// byte-identical at any thread count, truncated or not.
  std::size_t threads = 1;
  /// Frontier order (see checker/searcher.hpp). Non-BFS searchers
  /// reach the same verdict on exhaustive explorations but number
  /// states differently (and explore a different prefix under a cap).
  SearcherKind searcher = SearcherKind::kBFS;
  /// Seed for SearcherKind::kRandomPath.
  std::uint64_t searcher_seed = 0;
};

struct ExploreResult {
  bool oscillation_found = false;
  /// True when the full reachable graph was explored (no bound hit); a
  /// negative oscillation verdict is then a proof for this instance+model.
  bool exhaustive = false;
  bool channel_bound_hit = false;
  bool state_cap_hit = false;
  bool memory_limit_hit = false;

  std::size_t states = 0;
  std::size_t transitions = 0;
  /// Transitions that leave their configuration as it is: the step
  /// processes no message at a node whose activation changes nothing
  /// (engine::idle). Counted in `transitions` and `dedup_hits`; the
  /// configuration graph keeps only their read attempts, not an edge.
  std::size_t self_loops = 0;

  /// Which configured bound truncated exploration, at what value (0 when
  /// the corresponding bound was not hit) — so a non-exhaustive verdict
  /// tells the caller exactly which limit fired.
  std::size_t state_cap_limit = 0;       ///< ExploreOptions::max_states
  std::size_t channel_length_limit = 0;  ///< ExploreOptions::max_channel_length
  std::size_t memory_limit = 0;          ///< ExploreOptions::memory_limit_bytes
  /// Successor expansions discarded because they exceeded the channel
  /// bound (each is a reachable configuration the verdict does not cover).
  std::size_t bound_skipped_expansions = 0;

  /// Exploration statistics: successors that deduplicated into an
  /// already-interned state, the frontier's high-water mark, and how
  /// many passes the drop-fairness SCC pruning fixpoint took.
  std::size_t dedup_hits = 0;
  std::size_t frontier_peak = 0;
  std::size_t scc_prune_passes = 0;

  /// High-watermark of the deterministic tracked-bytes estimate over the
  /// explorer's structures (states + transitions + frontier + index, and
  /// a step per transition under extract_witness; see
  /// ExploreOptions::memory_limit_bytes). Always populated — the
  /// accounting is a handful of integer adds per expansion, cheap enough
  /// to keep on unconditionally.
  std::uint64_t tracked_peak_bytes = 0;

  /// Peak tracked bytes per explored state — the scaling number the
  /// bench_perf_scale roadmap item wants (0 when nothing was explored).
  double bytes_per_state() const {
    return states == 0 ? 0.0
                       : static_cast<double>(tracked_peak_bytes) /
                             static_cast<double>(states);
  }

  /// Distinct assignments of strongly quiescent (converged) states.
  std::vector<trace::Assignment> quiescent_assignments;

  /// Size of one SCC witnessing the oscillation (0 if none).
  std::size_t witness_scc_size = 0;

  /// With ExploreOptions::extract_witness and a found oscillation:
  /// playing witness_prefix then witness_cycle forever is a fair
  /// activation sequence of the checked model that never converges
  /// (verify with ScriptedScheduler{prefix+cycle, loop_from=prefix
  /// size} and engine::run).
  model::ActivationScript witness_prefix;
  model::ActivationScript witness_cycle;

  /// True when exhaustive and no fair oscillation was found.
  bool proves_no_oscillation() const {
    return exhaustive && !oscillation_found;
  }

  std::string summary() const;
};

/// Explores `instance` under model `m`.
ExploreResult explore(const spp::Instance& instance, const model::Model& m,
                      const ExploreOptions& options = {});

}  // namespace commroute::checker
