#include "checker/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <ranges>
#include <span>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "checker/state_set.hpp"
#include "checker/successors.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "runtime/thread_pool.hpp"
#include "support/error.hpp"

namespace commroute::checker {

namespace {

/// What the fairness test reads off an edge. One exploration sees few
/// distinct labels (30 on BAD-GADGET R1O), so edges share them through
/// a LabelTable.
struct EdgeLabel {
  std::uint64_t attempts = 0;    ///< bitmask of channels in X
  std::uint64_t drops = 0;       ///< channels with >= 1 dropped message
  std::uint64_t deliveries = 0;  ///< channels with a delivered message
  bool pi_changed = false;
  bool operator==(const EdgeLabel&) const = default;
};

/// One transition: its target and its label's id in the LabelTable.
struct Edge {
  StateId to = 0;
  std::uint32_t label = 0;
};
static_assert(sizeof(Edge) == 8, "an edge is two words");

/// The distinct labels of one exploration, each stored once. Filled on
/// the merge thread. intern() looks a label up before it inserts, so a
/// label already present costs a probe and no allocation.
class LabelTable {
 public:
  std::uint32_t intern(const EdgeLabel& label) {
    if ((labels_.size() + 1) * 2 > slots_.size()) {
      grow();
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t at = hash(label) & mask;; at = (at + 1) & mask) {
      const std::uint32_t id = slots_[at];
      if (id == kEmptySlot) {
        slots_[at] = static_cast<std::uint32_t>(labels_.size());
        labels_.push_back(label);
        return slots_[at];
      }
      if (labels_[id] == label) {
        return id;
      }
    }
  }

  const EdgeLabel& operator[](std::uint32_t id) const { return labels_[id]; }

 private:
  static constexpr std::uint32_t kEmptySlot = static_cast<std::uint32_t>(-1);

  static std::size_t hash(const EdgeLabel& label) {
    std::uint64_t h = (label.attempts * 0x9e3779b97f4a7c15ULL) ^
                      (label.drops * 0xbf58476d1ce4e5b9ULL) ^
                      (label.deliveries * 0x94d049bb133111ebULL) ^
                      static_cast<std::uint64_t>(label.pi_changed);
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  /// Doubles the slots (at least 16) and re-probes every label.
  void grow() {
    slots_.assign(std::max<std::size_t>(16, slots_.size() * 2), kEmptySlot);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < labels_.size(); ++id) {
      std::size_t at = hash(labels_[id]) & mask;
      while (slots_[at] != kEmptySlot) {
        at = (at + 1) & mask;
      }
      slots_[at] = id;
    }
  }

  std::vector<EdgeLabel> labels_;
  std::vector<std::uint32_t> slots_;  ///< label ids; power of two
};

/// "No edge" (the initial state has no discovery edge); edge indices
/// stay below it.
constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

/// "No label": a state without self-loops (see ConfigGraph::Row).
constexpr std::uint32_t kNoLabel = static_cast<std::uint32_t>(-1);

/// The tracked-bytes model charges the unit costs of the graph layout
/// this one replaced, so `tracked_peak_bytes`, `checker_summary`, matrix
/// CSVs and memory-limit truncation points did not move with it: a
/// 40-byte label per edge (target, three channel masks, two flags and a
/// witness index) and a 24-byte vector per state's edge row.
constexpr std::size_t kLegacyEdgeBytes = 40;
constexpr std::size_t kLegacyRowBytes = 24;

/// final_of sentinels for provisional ids (see ShardedStateSet): not yet
/// renumbered, and refused at the state cap (so every later edge to the
/// same configuration is skipped too, exactly as if it was never seen).
constexpr StateId kUnmapped = static_cast<StateId>(-1);
constexpr StateId kDroppedAtCap = static_cast<StateId>(-2);

/// Tracked-bytes estimate for one activation step (object plus the heap
/// its vectors hold; counts, never capacity). Under extract_witness the
/// byte model charges it per transition: the layout it models stored
/// every transition's step for the witness.
std::size_t step_bytes(const model::ActivationStep& step) {
  std::size_t bytes = sizeof(model::ActivationStep) +
                      step.nodes.size() * sizeof(NodeId);
  for (const model::ReadSpec& read : step.reads) {
    bytes += sizeof(model::ReadSpec) +
             read.drops.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

/// The self-loop rule for the steps of one state (a checker step
/// activates one node): a step whose reads all process zero messages, at
/// a node whose activation changes nothing (engine::idle), leaves the
/// state as it is. The idle half is worked out once per node, since the
/// enumerator visits the nodes in ascending order.
class SelfLoopRule {
 public:
  explicit SelfLoopRule(const engine::NetworkState& state) : state_(state) {}

  bool operator()(const model::ActivationStep& step) {
    for (const model::ReadSpec& read : step.reads) {
      if (engine::processed_count(state_, read) != 0) {
        return false;
      }
    }
    const NodeId v = step.nodes.front();
    if (v != node_) {
      node_ = v;
      idle_ = engine::idle(state_, v);
    }
    return idle_;
  }

 private:
  const engine::NetworkState& state_;
  NodeId node_ = kNoNode;
  bool idle_ = false;
};

/// The merged configuration graph. State payloads are owned by the
/// ShardedStateSet's shard arenas (stable addresses); `states` maps the
/// canonical, enumeration-ordered StateId to its payload. A state's
/// out-edges are one slice of the flat `edges` array, named by its row:
/// the merge appends all of a state's edges when it merges that state's
/// expansion, whatever order the searcher expands states in. Self-loops
/// are not edges: a row keeps the union of its state's self-loop
/// attempts, which is all the fairness test reads off them (they drop,
/// deliver and change nothing, and never move a Tarjan lowlink).
struct ConfigGraph {
  struct Row {
    std::uint32_t first = 0;  ///< index of the first out-edge
    std::uint32_t count = 0;  ///< 0 until expanded, and for terminal states
    /// Label of the union of the self-loops' attempts (kNoLabel: none).
    std::uint32_t self_loops = kNoLabel;
  };

  std::vector<const engine::NetworkState*> states;
  std::vector<Row> rows;
  std::vector<Edge> edges;
  LabelTable labels;

  const engine::NetworkState& state(StateId id) const {
    return *states[id];
  }
  /// Indices into `edges` of v's out-edges.
  auto out(StateId v) const {
    return std::views::iota(rows[v].first, rows[v].first + rows[v].count);
  }
};

/// Successor::to of a self-loop (provisional ids stay below it).
constexpr std::uint32_t kSelfLoop = static_cast<std::uint32_t>(-1);

/// A successor as expansion found it: its provisional id (kSelfLoop for
/// a self-loop) and its label, which the merge renumbers and interns,
/// and the step's step_bytes under extract_witness (else 0).
struct Successor {
  std::uint32_t to = 0;
  std::uint32_t step_bytes = 0;
  EdgeLabel label;
};

/// Expansion output for one batch slot. Caller-indexed storage: the
/// merge reads slots in batch order, so nothing downstream depends on
/// which worker ran which slot. Slots are reused across waves (reset(),
/// not destruction) so the per-successor buffers keep their capacity
/// instead of churning the allocator once per expansion.
struct ExpandResult {
  bool quiescent = false;
  trace::Assignment assignment;    ///< when quiescent
  std::size_t raw_successors = 0;  ///< steps enumerated, pre-filter
  std::size_t bound_skipped = 0;   ///< successors beyond the channel bound
  std::vector<Successor> successors;

  void reset() {
    quiescent = false;
    raw_successors = 0;
    bound_skipped = 0;
    successors.clear();
  }
};

/// Strongly connected components in one flat array: SCC s is
/// members[begin[s], begin[s + 1]), its states in Tarjan pop order.
struct Sccs {
  std::vector<StateId> members;
  std::vector<std::uint32_t> begin{0};
  std::vector<std::uint32_t> scc_of;  ///< state -> its SCC

  std::uint32_t count() const {
    return static_cast<std::uint32_t>(begin.size() - 1);
  }
  std::span<const StateId> operator[](std::uint32_t s) const {
    return std::span<const StateId>(members).subspan(
        begin[s], begin[s + 1] - begin[s]);
  }
};

/// Tarjan SCC over the configuration graph, skipping pruned edges.
Sccs tarjan_sccs(const ConfigGraph& graph, const std::vector<bool>& pruned) {
  const std::size_t n = graph.states.size();
  std::vector<std::uint32_t> indices(n, 0), lowlink(n, 0);
  std::vector<bool> on_stack(n, false), visited(n, false);
  std::vector<StateId> stack;
  Sccs sccs;
  sccs.members.reserve(n);
  sccs.scc_of.resize(n);
  std::uint32_t counter = 1;

  struct Frame {
    StateId v;
    std::uint32_t next_edge;
    std::uint32_t end_edge;
  };
  std::vector<Frame> frames;
  const auto visit = [&](StateId w) {
    visited[w] = true;
    indices[w] = lowlink[w] = counter++;
    stack.push_back(w);
    on_stack[w] = true;
    const ConfigGraph::Row& row = graph.rows[w];
    frames.push_back(Frame{w, row.first, row.first + row.count});
  };

  for (StateId root = 0; root < n; ++root) {
    if (visited[root]) {
      continue;
    }
    visit(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const StateId v = frame.v;
      bool descended = false;
      while (frame.next_edge < frame.end_edge) {
        const std::uint32_t e = frame.next_edge++;
        if (pruned[e]) {
          continue;
        }
        const StateId w = graph.edges[e].to;
        if (!visited[w]) {
          visit(w);  // invalidates `frame`
          descended = true;
          break;
        }
        if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], indices[w]);
        }
      }
      if (descended) {
        continue;
      }
      // v finished.
      if (lowlink[v] == indices[v]) {
        for (;;) {
          const StateId w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          sccs.scc_of[w] = sccs.count();
          sccs.members.push_back(w);
          if (w == v) {
            break;
          }
        }
        sccs.begin.push_back(static_cast<std::uint32_t>(sccs.members.size()));
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().v] =
            std::min(lowlink[frames.back().v], lowlink[v]);
      }
    }
  }
  return sccs;
}

}  // namespace

std::string ExploreResult::summary() const {
  std::ostringstream os;
  os << (oscillation_found ? "oscillation possible" : "no fair oscillation")
     << " (" << states << " states, " << transitions << " transitions, "
     << (exhaustive ? "exhaustive" : "bounded") << ")";
  if (state_cap_hit) {
    os << ", state cap " << state_cap_limit << " hit";
  }
  if (channel_bound_hit) {
    os << ", channel bound " << channel_length_limit << " hit ("
       << bound_skipped_expansions << " expansions skipped)";
  }
  if (memory_limit_hit) {
    os << ", memory limit " << memory_limit << " bytes hit";
  }
  if (!quiescent_assignments.empty()) {
    os << ", " << quiescent_assignments.size()
       << " distinct converged outcome(s)";
  }
  return os.str();
}

ExploreResult explore(const spp::Instance& instance, const model::Model& m,
                      const ExploreOptions& options) {
  CR_REQUIRE(instance.graph().channel_count() <= 64,
             "explorer supports at most 64 channels");

  const std::size_t threads = runtime::resolve_threads(options.threads);
  const bool observed = options.obs.attached();
  const auto explore_start =
      observed ? std::chrono::steady_clock::now()
               : std::chrono::steady_clock::time_point{};
  obs::Span explore_span = options.obs.span("checker.explore");
  if (explore_span.enabled()) {
    explore_span.attr("model", m.name());
    explore_span.attr("threads", static_cast<std::uint64_t>(threads));
    explore_span.attr("searcher", to_string(options.searcher));
  }

  ExploreResult result;
  ConfigGraph graph;
  ShardedStateSet seen(threads == 1
                           ? 1
                           : std::min<std::size_t>(64, threads * 8));

  // Tracked-bytes accounting over the explorer's own structures (interned
  // states, transitions, frontier, hash index and, under extract_witness,
  // the steps of the layout that stored one per transition; see
  // kLegacyEdgeBytes and step_bytes). Always on — it is a handful of
  // integer adds per expansion. All accounting happens on the merge path,
  // in enumeration order, so the peak is identical at any thread count.
  // Only a pop releases bytes, and it comes before the merged state's
  // adds, so the peak is taken after each merge.
  std::uint64_t tracked_bytes = 0;
  // Per interned state: the payload's own footprint plus its seen-set
  // slot, its pointer in the id table, and its edge row.
  const auto interned_state_bytes = [&](StateId id) {
    return graph.state(id).estimated_bytes() +
           ShardedStateSet::slot_bytes() +
           sizeof(const engine::NetworkState*) + kLegacyRowBytes;
  };

  SuccessorOptions successor_options;
  successor_options.max_steps_per_state = options.max_steps_per_state;
  std::uint64_t expanded = 0;
  /// Expansions grouped under one checker.frontier_batch span, so a
  /// Perfetto view shows exploration progress at a glance without
  /// per-state slices drowning the track.
  constexpr std::uint64_t kExpansionsPerBatchSpan = 256;
  obs::Span batch_span;

  // Renumbering table: provisional id (seen-set order, racing under
  // threads > 1) -> canonical StateId (enumeration order).
  std::vector<StateId> final_of;
  // Provisional id -> payload, filled from the seen-set's fresh list
  // after every wave.
  std::vector<const engine::NetworkState*> payload_of;

  Frontier frontier(options.searcher, options.searcher_seed);

  {
    const auto interned = seen.intern(engine::NetworkState(instance));
    graph.states.push_back(interned.state);
    graph.rows.emplace_back();
    final_of.push_back(0);
    payload_of.push_back(interned.state);
    frontier.push(0, false);
    tracked_bytes += interned_state_bytes(0) + sizeof(StateId);
    result.tracked_peak_bytes = tracked_bytes;
  }
  result.frontier_peak = 1;

  std::vector<trace::Assignment> quiescent;

  // Witness bookkeeping (only populated when requested): each state's
  // discovery edge. The witness's steps are re-derived after the verdict.
  struct Parent {
    StateId from = 0;
    std::uint32_t edge = kNoEdge;  ///< the discovery edge
  };
  std::vector<Parent> parents(1);  // parents[initial] unused

  // Per-worker expansion scratch, indexed by parallel_for_each's dense
  // worker id (0 when serial): a step enumerator, the successor being
  // built and its effect. Each successor is copy-assigned from its
  // parent into `next` (reusing its capacity) and copied into the
  // seen-set only when new, so an expansion allocates nothing per
  // transition once the scratch is warm.
  struct Scratch {
    StepEnumerator steps;
    engine::NetworkState next;
    engine::StepEffect effect;
  };
  std::vector<Scratch> scratch;
  scratch.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    scratch.push_back(Scratch{StepEnumerator(m, successor_options),
                              engine::NetworkState(instance), {}});
  }

  // What one enumerated step from `s` is: a self-loop (by the rule, so
  // nothing is copied or executed), a successor beyond the channel bound,
  // or a move to `work.next`. Expansion and the witness's re-derivation
  // both classify steps here, so they agree on every transition.
  enum class Taken { kSelfLoop, kBeyondBound, kMoved };
  const auto take_step = [&](SelfLoopRule& self_loop,
                             const engine::NetworkState& s,
                             const model::ActivationStep& step,
                             Scratch& work) {
    if (self_loop(step)) {
      return Taken::kSelfLoop;
    }
    work.next = s;
    engine::execute_step(work.next, step, work.effect);
    // Only the channels this step sent on can exceed the bound: `s` is
    // within it (the initial state is empty and every interned successor
    // passed this check), reads only shrink queues, and a step pushes at
    // most once per channel, after its reads.
    for (const engine::SentMessage& sent : work.effect.sent) {
      if (work.next.channel(sent.channel).size() >
          options.max_channel_length) {
        return Taken::kBeyondBound;
      }
    }
    return Taken::kMoved;
  };

  // Parallel machinery: a pool (threads > 1 only) and per-worker obs
  // shards — each worker owns a registry and span collector, merged
  // commutatively below, so the expansion hot path never contends on
  // the caller's handles (the PR 4 campaign pattern).
  std::optional<runtime::ThreadPool> pool;
  struct WorkerCtx {
    obs::Registry metrics;
    obs::SpanCollector spans;
    obs::Instrumentation obs;
    obs::Histogram* expand_hist = nullptr;
  };
  std::deque<WorkerCtx> workers;  // deque: SpanCollector is not movable
  if (threads > 1) {
    pool.emplace(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      workers.emplace_back();
    }
    for (WorkerCtx& w : workers) {
      if (options.obs.metrics != nullptr) {
        w.obs.metrics = &w.metrics;
      }
      if (options.obs.spans != nullptr) {
        w.obs.spans = &w.spans;
        w.expand_hist = w.obs.histogram(
            "checker.expand_us", obs::exponential_buckets(1, 4.0, 10));
      }
    }
  }
  obs::Histogram* serial_expand_hist =
      options.obs.spans != nullptr
          ? options.obs.histogram("checker.expand_us",
                                  obs::exponential_buckets(1, 4.0, 10))
          : nullptr;

  // One wave: pop a batch in frontier order, expand it (in parallel
  // when threads > 1), then merge the caller-indexed results in batch
  // order. Any batch partitioning of a FIFO frontier yields the same
  // merge order, which is why the BFS searcher is byte-deterministic
  // across thread counts.
  const std::size_t batch_target = threads == 1 ? 1 : threads * 32;
  std::vector<StateId> batch;
  std::vector<ExpandResult> results;
  std::vector<std::pair<std::uint32_t, const engine::NetworkState*>> fresh;

  const auto expand_one = [&](const obs::Instrumentation& wobs,
                              obs::Histogram* whist, Scratch& work,
                              std::size_t i) {
    ExpandResult& out = results[i];
    const engine::NetworkState& s = graph.state(batch[i]);
    obs::Span expand_span = wobs.span("checker.expand");

    // Strongly quiescent states are terminal: no step changes anything.
    if (engine::strongly_quiescent(s)) {
      out.quiescent = true;
      out.assignment = s.assignments();
      return;
    }

    SelfLoopRule self_loop(s);
    out.raw_successors = work.steps.for_each(
        s, [&](const model::ActivationStep& step) {
          Successor succ;
          if (options.extract_witness) {
            succ.step_bytes = static_cast<std::uint32_t>(step_bytes(step));
          }
          // Every step attempts its read channels; a self-loop drops,
          // delivers and changes nothing.
          for (const model::ReadSpec& read : step.reads) {
            succ.label.attempts |= (1ULL << read.channel);
          }
          switch (take_step(self_loop, s, step, work)) {
            case Taken::kSelfLoop:
              succ.to = kSelfLoop;
              break;
            case Taken::kBeyondBound:  // not expanded
              ++out.bound_skipped;
              return;
            case Taken::kMoved:
              for (const engine::ReadEffect& read : work.effect.reads) {
                if (read.dropped > 0) {
                  succ.label.drops |= (1ULL << read.channel);
                }
                if (read.delivered) {
                  succ.label.deliveries |= (1ULL << read.channel);
                }
              }
              for (const engine::NodeEffect& node : work.effect.nodes) {
                succ.label.pi_changed |= node.changed;
              }
              succ.to = seen.intern(work.next).id;  // provisional
              break;
          }
          out.successors.push_back(succ);
        });
    if (expand_span.enabled()) {
      expand_span.attr("successors",
                       static_cast<std::uint64_t>(out.raw_successors));
      if (whist != nullptr) {
        whist->observe(expand_span.elapsed_us());
      }
    }
  };

  bool truncated = false;
  std::uint64_t batch_span_epoch = static_cast<std::uint64_t>(-1);
  while (!frontier.empty() && !truncated) {
    // Rotate the batch span before expanding so expand spans nest under
    // it: serial ones as the innermost span open on this thread, worker
    // ones through their collectors' root parent.
    if (options.obs.spans != nullptr &&
        expanded / kExpansionsPerBatchSpan != batch_span_epoch) {
      batch_span_epoch = expanded / kExpansionsPerBatchSpan;
      batch_span.finish();  // before begin(), so batches are siblings
      batch_span = options.obs.span("checker.frontier_batch");
      const std::uint32_t open = options.obs.spans->open_span();
      for (WorkerCtx& w : workers) {
        w.spans.set_root_parent(open);
      }
    }
    batch.clear();
    while (batch.size() < batch_target && !frontier.empty()) {
      batch.push_back(frontier.pop());
    }
    if (results.size() < batch.size()) {
      results.resize(batch.size());
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      results[i].reset();
    }

    if (threads == 1) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        expand_one(options.obs, serial_expand_hist, scratch[0], i);
      }
    } else {
      runtime::parallel_for_each(
          *pool, batch.size(),
          [&](std::size_t worker, std::size_t i) {
            expand_one(workers[worker].obs, workers[worker].expand_hist,
                       scratch[worker], i);
          });
    }

    // Index this wave's discoveries by provisional id.
    fresh.clear();
    seen.drain_fresh(fresh);
    final_of.resize(seen.size(), kUnmapped);
    payload_of.resize(seen.size(), nullptr);
    for (const auto& [prov, payload] : fresh) {
      payload_of[prov] = payload;
    }

    // Merge in batch (enumeration) order on the calling thread.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (options.memory_limit_bytes > 0 &&
          tracked_bytes > options.memory_limit_bytes) {
        result.memory_limit_hit = true;
        result.memory_limit = options.memory_limit_bytes;
        truncated = true;
        break;
      }
      const StateId id = batch[i];
      tracked_bytes -= sizeof(StateId);
      ++expanded;
      // States popped into this batch but not yet merged still count as
      // frontier: the pending total is partition-independent.
      const auto pending = [&] {
        return frontier.size() + (batch.size() - 1 - i);
      };
      if (options.obs.sink != nullptr && options.heartbeat_every > 0 &&
          expanded % options.heartbeat_every == 0) {
        const auto elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - explore_start);
        obs::Event ev("checker_heartbeat");
        ev.field("expanded", expanded)
            .field("states", static_cast<std::uint64_t>(graph.states.size()))
            .field("frontier", static_cast<std::uint64_t>(pending()))
            .field("transitions",
                   static_cast<std::uint64_t>(result.transitions))
            .field("dedup_hits", static_cast<std::uint64_t>(result.dedup_hits))
            .field("elapsed_ms",
                   static_cast<std::uint64_t>(elapsed_ms.count()));
        options.obs.sink->emit(ev);
      }

      ExpandResult& out = results[i];
      if (out.quiescent) {
        if (std::find(quiescent.begin(), quiescent.end(),
                      out.assignment) == quiescent.end()) {
          quiescent.push_back(std::move(out.assignment));
        }
        continue;
      }
      if (out.bound_skipped > 0) {
        result.channel_bound_hit = true;
        result.channel_length_limit = options.max_channel_length;
        result.bound_skipped_expansions += out.bound_skipped;
      }

      CR_REQUIRE(graph.edges.size() + out.successors.size() < kNoEdge,
                 "explorer supports fewer than 2^32 - 1 transitions");
      graph.rows[id].first = static_cast<std::uint32_t>(graph.edges.size());
      std::uint64_t self_attempts = 0;
      for (const Successor& succ : out.successors) {
        if (succ.to == kSelfLoop) {
          // The state itself: a transition and a dedup hit, charged as
          // an edge, kept only as its attempts.
          self_attempts |= succ.label.attempts;
          tracked_bytes += kLegacyEdgeBytes + succ.step_bytes;
          ++result.transitions;
          ++result.dedup_hits;
          ++result.self_loops;
          continue;
        }
        const std::uint32_t prov = succ.to;
        if (final_of[prov] == kDroppedAtCap) {
          continue;
        }
        bool is_new = false;
        StateId to;
        if (final_of[prov] == kUnmapped) {
          // Enforce the cap at intern time: a cap of N admits exactly
          // N states, whatever the expansion order or batch size.
          if (graph.states.size() >= options.max_states) {
            result.state_cap_hit = true;
            result.state_cap_limit = options.max_states;
            final_of[prov] = kDroppedAtCap;
            continue;
          }
          to = static_cast<StateId>(graph.states.size());
          final_of[prov] = to;
          is_new = true;
        } else {
          to = final_of[prov];
        }
        const auto edge = static_cast<std::uint32_t>(graph.edges.size());
        graph.edges.push_back(Edge{to, graph.labels.intern(succ.label)});
        tracked_bytes += kLegacyEdgeBytes + succ.step_bytes;
        ++result.transitions;
        if (is_new) {
          graph.states.push_back(payload_of[prov]);
          graph.rows.emplace_back();
          frontier.push(to, succ.label.pi_changed);
          tracked_bytes += interned_state_bytes(to) + sizeof(StateId);
          if (pending() > result.frontier_peak) {
            result.frontier_peak = pending();
          }
          if (options.extract_witness) {
            parents.push_back(Parent{id, edge});
            tracked_bytes += sizeof(Parent);
          }
        } else {
          ++result.dedup_hits;
        }
      }
      result.tracked_peak_bytes =
          std::max(result.tracked_peak_bytes, tracked_bytes);
      graph.rows[id].count = static_cast<std::uint32_t>(graph.edges.size()) -
                             graph.rows[id].first;
      if (self_attempts != 0) {
        graph.rows[id].self_loops =
            graph.labels.intern(EdgeLabel{.attempts = self_attempts});
      }
      if (result.state_cap_hit) {
        // Stop after the slot that filled the cap (its remaining
        // successors above already resolved against the full graph);
        // later slots in this wave are discarded exactly as if they
        // were never expanded, matching the serial stop point.
        truncated = true;
        break;
      }
    }
  }
  batch_span.finish();

  // Merge the per-worker instrumentation shards (counters add, gauges
  // per policy, histograms bucket-wise, span ids re-based).
  for (WorkerCtx& w : workers) {
    if (options.obs.metrics != nullptr) {
      options.obs.metrics->merge_from(w.metrics);
    }
    if (options.obs.spans != nullptr) {
      options.obs.spans->merge_from(w.spans);
    }
  }

  result.states = graph.states.size();
  result.quiescent_assignments = std::move(quiescent);
  result.exhaustive = !result.state_cap_hit && !result.channel_bound_hit &&
                      !result.memory_limit_hit;

  // Drop-fairness fixpoint: within each SCC, prune drop-edges whose
  // channel has no delivery-edge inside the same SCC; repeat until stable
  // (pruning can split SCCs).
  const std::uint64_t all_channels =
      (instance.graph().channel_count() == 64)
          ? ~0ULL
          : ((1ULL << instance.graph().channel_count()) - 1);

  std::vector<bool> pruned(graph.edges.size(), false);
  for (;;) {
    ++result.scc_prune_passes;
    obs::Span pass_span = options.obs.span("checker.scc_prune_pass");
    const Sccs sccs = tarjan_sccs(graph, pruned);
    const std::vector<std::uint32_t>& scc_of = sccs.scc_of;
    // Calls visit(v, edge index, label) for every unpruned edge that
    // stays inside its SCC.
    const auto for_each_internal = [&](const auto& visit) {
      for (StateId v = 0; v < graph.states.size(); ++v) {
        for (const std::uint32_t e : graph.out(v)) {
          if (!pruned[e] && scc_of[v] == scc_of[graph.edges[e].to]) {
            visit(v, e, graph.labels[graph.edges[e].label]);
          }
        }
      }
    };

    // Delivery-channel mask per SCC (internal edges only).
    std::vector<std::uint64_t> scc_deliveries(sccs.count(), 0);
    for_each_internal(
        [&](StateId v, std::uint32_t, const EdgeLabel& label) {
          scc_deliveries[scc_of[v]] |= label.deliveries;
        });

    bool pruned_any = false;
    for_each_internal(
        [&](StateId v, std::uint32_t e, const EdgeLabel& label) {
          if ((label.drops & ~scc_deliveries[scc_of[v]]) != 0) {
            pruned[e] = true;
            pruned_any = true;
          }
        });

    if (!pruned_any) {
      // Final verdict on this SCC decomposition.
      std::vector<std::uint64_t> scc_attempts(sccs.count(), 0);
      std::vector<bool> scc_pi_change(sccs.count(), false);
      for_each_internal(
          [&](StateId v, std::uint32_t, const EdgeLabel& label) {
            scc_attempts[scc_of[v]] |= label.attempts;
            scc_pi_change[scc_of[v]] =
                scc_pi_change[scc_of[v]] || label.pi_changed;
          });
      for (StateId v = 0; v < graph.states.size(); ++v) {
        if (graph.rows[v].self_loops != kNoLabel) {
          scc_attempts[scc_of[v]] |=
              graph.labels[graph.rows[v].self_loops].attempts;
        }
      }
      std::optional<std::uint32_t> witness_scc;
      for (std::uint32_t s = 0; s < sccs.count(); ++s) {
        if (scc_pi_change[s] && scc_attempts[s] == all_channels) {
          result.oscillation_found = true;
          if (sccs[s].size() > result.witness_scc_size) {
            result.witness_scc_size = sccs[s].size();
            witness_scc = s;
          }
        }
      }

      if (options.extract_witness && witness_scc.has_value()) {
        // Build a closed tour through *every* internal transition of the
        // witness SCC, self-loops included (so the loop attempts every
        // channel, performs a delivery for every dropping channel, and
        // changes assignments), plus the BFS prefix from the initial
        // state to the tour start.
        const std::span<const StateId> members = sccs[*witness_scc];
        const auto internal = [&](StateId v, std::uint32_t e) {
          return !pruned[e] && scc_of[v] == *witness_scc &&
                 scc_of[graph.edges[e].to] == *witness_scc;
        };

        // The graph keeps no steps: re-enumerate each state the witness
        // visits with the same enumerator and rule, once. In enumeration
        // order a step is a self-loop, beyond the bound, or the state's
        // next stored edge; under the state cap, a successor that is no
        // stored edge's target was dropped at the cap.
        struct Transitions {
          std::vector<model::ActivationStep> steps;  ///< self-loops and edges
          std::vector<std::uint32_t> edge_at;  ///< stored edge k's step index
        };
        std::unordered_map<StateId, Transitions> derived;
        Scratch& work = scratch.front();
        const auto transitions = [&](StateId v) -> const Transitions& {
          const auto [it, inserted] = derived.try_emplace(v);
          Transitions& t = it->second;
          if (!inserted) {
            return t;
          }
          const engine::NetworkState& s = graph.state(v);
          const ConfigGraph::Row& row = graph.rows[v];
          SelfLoopRule self_loop(s);
          work.steps.for_each(s, [&](const model::ActivationStep& step) {
            switch (take_step(self_loop, s, step, work)) {
              case Taken::kSelfLoop:
                break;
              case Taken::kBeyondBound:
                return;
              case Taken::kMoved: {
                const std::uint32_t e =
                    row.first + static_cast<std::uint32_t>(t.edge_at.size());
                if (t.edge_at.size() == row.count ||
                    !(work.next == graph.state(graph.edges[e].to))) {
                  CR_ASSERT(result.state_cap_hit,
                            "re-enumerated step matches no stored edge");
                  return;
                }
                t.edge_at.push_back(
                    static_cast<std::uint32_t>(t.steps.size()));
                break;
              }
            }
            t.steps.push_back(step);
          });
          CR_ASSERT(t.edge_at.size() == row.count,
                    "re-enumeration missed a stored edge");
          return t;
        };
        const auto step_of = [&](StateId v, std::uint32_t e)
            -> const model::ActivationStep& {
          const Transitions& t = transitions(v);
          return t.steps[t.edge_at[e - graph.rows[v].first]];
        };

        // BFS path between two SCC states, as its stored edges' steps.
        const auto append_scc_path = [&](StateId from, StateId to) {
          if (from == to) {
            return;
          }
          std::unordered_map<StateId, std::pair<StateId, std::uint32_t>>
              via;  // state -> (predecessor, edge)
          std::deque<StateId> bfs{from};
          via.emplace(from, std::make_pair(from, kNoEdge));
          while (!bfs.empty()) {
            const StateId at = bfs.front();
            bfs.pop_front();
            for (const std::uint32_t e : graph.out(at)) {
              const StateId next = graph.edges[e].to;
              if (!internal(at, e) || via.count(next) != 0) {
                continue;
              }
              via.emplace(next, std::make_pair(at, e));
              if (next == to) {
                std::vector<std::pair<StateId, std::uint32_t>> rev;
                for (StateId w = to; w != from; w = via.at(w).first) {
                  rev.push_back(via.at(w));
                }
                for (auto hop = rev.rbegin(); hop != rev.rend(); ++hop) {
                  result.witness_cycle.push_back(
                      step_of(hop->first, hop->second));
                }
                return;
              }
              bfs.push_back(next);
            }
          }
          throw InvariantError("SCC is not strongly connected");
        };

        const StateId start = members.front();
        StateId cursor = start;
        for (const StateId v : members) {
          const Transitions& t = transitions(v);
          std::uint32_t k = 0;  // stored edges passed
          for (std::size_t i = 0; i < t.steps.size(); ++i) {
            StateId to = v;  // a self-loop
            if (k < t.edge_at.size() && t.edge_at[k] == i) {
              const std::uint32_t e = graph.rows[v].first + k++;
              if (!internal(v, e)) {
                continue;
              }
              to = graph.edges[e].to;
            }
            append_scc_path(cursor, v);
            result.witness_cycle.push_back(t.steps[i]);
            cursor = to;
          }
        }
        append_scc_path(cursor, start);

        for (StateId at = start; at != 0; at = parents[at].from) {
          result.witness_prefix.push_back(
              step_of(parents[at].from, parents[at].edge));
        }
        std::reverse(result.witness_prefix.begin(),
                     result.witness_prefix.end());
      }
      break;
    }
  }

  if (observed) {
    const std::uint64_t wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - explore_start)
            .count());
    if (explore_span.enabled()) {
      explore_span
          .attr("states", static_cast<std::uint64_t>(result.states))
          .attr("transitions",
                static_cast<std::uint64_t>(result.transitions))
          .attr("oscillation_found", result.oscillation_found);
      explore_span.finish();
    }
    if (obs::Histogram* h = options.obs.histogram(
            "checker.explore_us", obs::exponential_buckets(16, 4.0, 10))) {
      h->observe(wall_us);
    }
    if (options.obs.metrics != nullptr) {
      obs::Registry& reg = *options.obs.metrics;
      reg.counter("checker.explorations").add();
      reg.counter("checker.states").add(result.states);
      reg.counter("checker.transitions").add(result.transitions);
      reg.counter("checker.dedup_hits").add(result.dedup_hits);
      reg.counter("checker.scc_prune_passes").add(result.scc_prune_passes);
      reg.counter("checker.bound_skipped_expansions")
          .add(result.bound_skipped_expansions);
      reg.counter("checker.wall_us").add(wall_us);
      reg.gauge("checker.frontier_peak").record_max(result.frontier_peak);
      reg.gauge("checker.tracked_peak_bytes")
          .record_max(result.tracked_peak_bytes);
      reg.gauge("checker.threads").record_max(threads);
      if (result.memory_limit_hit) {
        reg.gauge("checker.memory_limit_hit").record_max(1);
      }
    }
    if (options.obs.sink != nullptr) {
      obs::Event ev("checker_summary");
      ev.field("oscillation_found", result.oscillation_found)
          .field("exhaustive", result.exhaustive)
          .field("searcher", to_string(options.searcher))
          .field("state_cap_hit", result.state_cap_hit)
          .field("state_cap_limit",
                 static_cast<std::uint64_t>(result.state_cap_limit))
          .field("channel_bound_hit", result.channel_bound_hit)
          .field("channel_length_limit",
                 static_cast<std::uint64_t>(result.channel_length_limit))
          .field("bound_skipped_expansions",
                 static_cast<std::uint64_t>(result.bound_skipped_expansions))
          .field("memory_limit_hit", result.memory_limit_hit)
          .field("memory_limit_bytes",
                 static_cast<std::uint64_t>(result.memory_limit))
          .field("tracked_peak_bytes", result.tracked_peak_bytes)
          .field("bytes_per_state", result.bytes_per_state())
          .field("states", static_cast<std::uint64_t>(result.states))
          .field("transitions",
                 static_cast<std::uint64_t>(result.transitions))
          .field("dedup_hits",
                 static_cast<std::uint64_t>(result.dedup_hits))
          .field("frontier_peak",
                 static_cast<std::uint64_t>(result.frontier_peak))
          .field("scc_prune_passes",
                 static_cast<std::uint64_t>(result.scc_prune_passes))
          .field("witness_scc_size",
                 static_cast<std::uint64_t>(result.witness_scc_size))
          .field("quiescent_outcomes",
                 static_cast<std::uint64_t>(
                     result.quiescent_assignments.size()))
          .field("wall_us", wall_us);
      options.obs.sink->emit(ev);
    }
  }

  return result;
}

}  // namespace commroute::checker
