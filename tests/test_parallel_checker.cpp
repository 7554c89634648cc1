// Determinism and truncation contracts of the parallel explorer:
//
//  * threads ∈ {1, 2, 8} produce byte-identical results under the BFS
//    searcher — verdict fields, graph counts, witness scripts, and the
//    checker_summary event (minus the quarantined wall_us field) — for
//    all 24 models on BAD-GADGET and GOOD-GADGET;
//  * alternative searchers (DFS / random / priority) reach the same
//    verdict on exhaustive explorations, though they number states
//    differently, and their witnesses replay to an oscillation;
//  * the state cap admits exactly <= N states at intern time (the
//    historical per-pop check admitted N+branching);
//  * capped runs pin each searcher's order (EXPERIMENTS.md's E-SEARCH
//    table and digests of the non-BFS searchers' output);
//  * heartbeat events are identical across thread widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "model/script_io.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "spp/gadgets.hpp"
#include "test_util.hpp"

namespace commroute::checker {
namespace {

using model::Model;

/// Everything a determinism comparison cares about, flattened to a
/// string so a mismatch prints both sides wholesale.
std::string result_fingerprint(const spp::Instance& inst,
                               const ExploreResult& r) {
  std::ostringstream os;
  os << "oscillation=" << r.oscillation_found
     << " exhaustive=" << r.exhaustive
     << " channel_bound_hit=" << r.channel_bound_hit
     << " state_cap_hit=" << r.state_cap_hit
     << " memory_limit_hit=" << r.memory_limit_hit
     << " states=" << r.states << " transitions=" << r.transitions
     << " caps=" << r.state_cap_limit << "/" << r.channel_length_limit
     << "/" << r.memory_limit
     << " bound_skipped=" << r.bound_skipped_expansions
     << " dedup=" << r.dedup_hits << " frontier_peak=" << r.frontier_peak
     << " scc_passes=" << r.scc_prune_passes
     << " tracked_peak=" << r.tracked_peak_bytes
     << " quiescent=" << r.quiescent_assignments.size()
     << " witness_scc=" << r.witness_scc_size << "\nprefix:";
  for (const auto& step : r.witness_prefix) {
    os << "\n  " << step.to_string(inst);
  }
  os << "\ncycle:";
  for (const auto& step : r.witness_cycle) {
    os << "\n  " << step.to_string(inst);
  }
  return os.str();
}

/// checker_summary with the quarantined wall-clock field removed.
std::string strip_wall_us(const std::string& line) {
  static const std::regex wall(R"re(,"wall_us":[0-9]+)re");
  return std::regex_replace(line, wall, "");
}

struct ObservedRun {
  ExploreResult result;
  std::string summary_line;  ///< checker_summary bytes, wall_us stripped
};

ObservedRun run_explore(const spp::Instance& inst, const Model& m,
                        ExploreOptions options) {
  obs::MemorySink sink;
  options.obs.sink = &sink;
  ObservedRun run;
  run.result = explore(inst, m, options);
  EXPECT_FALSE(sink.lines().empty());
  const std::string& last = sink.lines().back();
  EXPECT_NE(last.find("checker_summary"), std::string::npos) << last;
  run.summary_line = strip_wall_us(last);
  return run;
}

// --- Tentpole: byte-identical results at any thread width (BFS) -------

TEST(ParallelChecker, AllModelsByteIdenticalAcrossThreadWidths) {
  for (const spp::Instance& inst :
       {spp::bad_gadget(), spp::good_gadget()}) {
    for (const Model& m : Model::all()) {
      ExploreOptions base;
      base.max_channel_length = 2;
      // Both bounds together keep every cell fast: the cap bounds the
      // graph, the memory limit bounds the high-branching cells whose
      // transition count explodes before the cap bites. Truncated runs
      // are deliberately in scope — truncation points are enumeration-
      // ordered, so they must be width-deterministic too.
      base.max_states = 4000;
      base.memory_limit_bytes = 16u << 20;
      base.extract_witness = true;
      const ObservedRun serial = run_explore(inst, m, base);
      for (const std::size_t threads : {2u, 8u}) {
        ExploreOptions options = base;
        options.threads = threads;
        const ObservedRun parallel = run_explore(inst, m, options);
        EXPECT_EQ(result_fingerprint(inst, serial.result),
                  result_fingerprint(inst, parallel.result))
            << m.name() << " threads=" << threads;
        EXPECT_EQ(serial.summary_line, parallel.summary_line)
            << m.name() << " threads=" << threads;
      }
    }
  }
}

// The BFS searcher's whole output for every model: ExploreResult::
// summary(), checker_summary (minus wall_us) and the witness scripts,
// one FNV-1a digest per instance over its 24 models. BAD-GADGET and
// GOOD-GADGET run truncated, as above (cap-dropped successors and a
// memory-limited merge are in scope); DISAGREE and Example A.4 run to
// completion at bound 3.
TEST(ParallelChecker, BfsOutputsOfEveryModelArePinned) {
  struct Pin {
    const char* name;
    spp::Instance inst;
    ExploreOptions options;
    std::uint64_t digest;
  };
  ExploreOptions truncated;
  truncated.max_channel_length = 2;
  truncated.max_states = 4000;
  truncated.memory_limit_bytes = 16u << 20;
  truncated.extract_witness = true;
  ExploreOptions complete;
  complete.max_channel_length = 3;
  complete.extract_witness = true;
  const Pin pins[] = {
      {"BAD-GADGET", spp::bad_gadget(), truncated, 11884707107602200377ULL},
      {"GOOD-GADGET", spp::good_gadget(), truncated, 15436636884406629803ULL},
      {"DISAGREE", spp::disagree(), complete, 12561577316274977051ULL},
      {"A.4", spp::example_a4(), complete, 12245199452934341073ULL},
  };
  for (const Pin& pin : pins) {
    std::string output;
    for (const Model& m : Model::all()) {
      const ObservedRun run = run_explore(pin.inst, m, pin.options);
      output += m.name() + "\n" + run.result.summary() + "\n" +
                run.summary_line + "\n" +
                model::format_script(pin.inst, run.result.witness_prefix) +
                "cycle\n" +
                model::format_script(pin.inst, run.result.witness_cycle);
    }
    EXPECT_EQ(testutil::fnv1a(output), pin.digest)
        << pin.name << ": " << output.size() << " bytes of output";
  }
}

/// Plays `r`'s witness (the prefix, then the cycle forever) through
/// ScriptedScheduler and engine::run, with every step checked against
/// `m`, and returns the run's outcome.
engine::Outcome replay_witness(const spp::Instance& inst, const Model& m,
                               const ExploreResult& r) {
  model::ActivationScript script = r.witness_prefix;
  const std::size_t loop_from = script.size();
  script.insert(script.end(), r.witness_cycle.begin(),
                r.witness_cycle.end());
  for (const auto& step : script) {
    model::require_step_allowed(m, inst, step);
  }
  engine::ScriptedScheduler sched(script, loop_from);
  return engine::run(
             inst, sched,
             {.max_steps = 10 * script.size() + 100, .enforce_model = m})
      .outcome;
}

TEST(ParallelChecker, WitnessFromEightThreadsReplays) {
  const spp::Instance inst = spp::bad_gadget();
  // REO finds the oscillation within a small graph at this bound (the
  // weak models need far more states before their witness SCC closes,
  // and witness-tour construction is quadratic in SCC edges).
  const Model m = Model::parse("REO");
  ExploreOptions options;
  options.max_channel_length = 2;
  options.max_states = 4000;
  options.extract_witness = true;
  options.threads = 8;
  const ExploreResult r = explore(inst, m, options);
  ASSERT_TRUE(r.oscillation_found);
  ASSERT_FALSE(r.witness_cycle.empty());
  EXPECT_EQ(replay_witness(inst, m, r), engine::Outcome::kOscillating);
}

TEST(ParallelChecker, ZeroThreadsMeansHardwareConcurrency) {
  // threads = 0 must resolve, run, and agree with the serial result.
  const spp::Instance inst = spp::disagree();
  const Model m = Model::parse("RMS");
  const ExploreResult serial =
      explore(inst, m, {.max_channel_length = 3});
  const ExploreResult wide =
      explore(inst, m, {.max_channel_length = 3, .threads = 0});
  EXPECT_EQ(serial.states, wide.states);
  EXPECT_EQ(serial.transitions, wide.transitions);
  EXPECT_EQ(serial.oscillation_found, wide.oscillation_found);
}

TEST(ParallelChecker, MetricsShardsMergeToSerialTotals) {
  const spp::Instance inst = spp::disagree();
  const Model m = Model::parse("RMS");
  for (const std::size_t threads : {1u, 8u}) {
    obs::Registry registry;
    ExploreOptions options;
    options.max_channel_length = 3;
    options.threads = threads;
    options.obs.metrics = &registry;
    const ExploreResult r = explore(inst, m, options);
    const auto samples = registry.snapshot();
    const auto counter = [&](const std::string& name) -> double {
      const auto it = std::find_if(
          samples.begin(), samples.end(),
          [&](const obs::MetricSample& s) { return s.name == name; });
      return it == samples.end() ? -1.0 : it->value;
    };
    EXPECT_EQ(counter("checker.states"), static_cast<double>(r.states))
        << threads;
    EXPECT_EQ(counter("checker.transitions"),
              static_cast<double>(r.transitions))
        << threads;
  }
}

// --- Searcher strategies ----------------------------------------------

TEST(ParallelChecker, AllSearchersAgreeOnExhaustiveVerdicts) {
  const spp::Instance inst = spp::disagree();
  std::size_t replayed = 0;
  for (const char* name : {"R1O", "REA", "RMS"}) {
    const Model m = Model::parse(name);
    const ExploreResult bfs =
        explore(inst, m, {.max_channel_length = 3});
    // No cap/memory truncation: the explored set is then exactly "all
    // states reachable through in-bound configurations", which is
    // order-independent even when the channel bound trims the space.
    ASSERT_FALSE(bfs.state_cap_hit) << name;
    ASSERT_FALSE(bfs.memory_limit_hit) << name;
    for (const SearcherKind kind :
         {SearcherKind::kDFS, SearcherKind::kRandomPath,
          SearcherKind::kPriorityFlap}) {
      for (const std::size_t threads : {1u, 4u}) {
        ExploreOptions options;
        options.max_channel_length = 3;
        options.threads = threads;
        options.searcher = kind;
        options.searcher_seed = 42;
        options.extract_witness = true;
        const ExploreResult r = explore(inst, m, options);
        // The explored *set* is order-independent when exhaustive, so
        // every strategy proves the same theorem with the same counts —
        // only the state numbering differs.
        EXPECT_EQ(r.oscillation_found, bfs.oscillation_found)
            << name << " " << to_string(kind) << " t=" << threads;
        EXPECT_EQ(r.exhaustive, bfs.exhaustive)
            << name << " " << to_string(kind) << " t=" << threads;
        EXPECT_EQ(r.states, bfs.states)
            << name << " " << to_string(kind) << " t=" << threads;
        EXPECT_EQ(r.transitions, bfs.transitions)
            << name << " " << to_string(kind) << " t=" << threads;
        // These searchers expand states out of id order, so each
        // state's out-edges land in the graph out of id order too: the
        // witness must still name real steps that replay.
        if (r.oscillation_found) {
          ++replayed;
          EXPECT_EQ(replay_witness(inst, m, r),
                    engine::Outcome::kOscillating)
              << name << " " << to_string(kind) << " t=" << threads;
        }
      }
    }
  }
  // R1O and RMS oscillate on DISAGREE: 2 models x 3 searchers x 2 widths.
  EXPECT_EQ(replayed, 12u);
}

TEST(ParallelChecker, RandomSearcherIsDeterministicPerSeed) {
  const spp::Instance inst = spp::disagree();
  const Model m = Model::parse("RMS");
  ExploreOptions options;
  options.max_channel_length = 3;
  options.searcher = SearcherKind::kRandomPath;
  options.searcher_seed = 7;
  const ExploreResult a = explore(inst, m, options);
  const ExploreResult b = explore(inst, m, options);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.frontier_peak, b.frontier_peak);
}

TEST(ParallelChecker, SearcherKindParsesAndRoundTrips) {
  for (const SearcherKind kind :
       {SearcherKind::kBFS, SearcherKind::kDFS, SearcherKind::kRandomPath,
        SearcherKind::kPriorityFlap}) {
    EXPECT_EQ(parse_searcher_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_searcher_kind("best-first"), PreconditionError);
}

// EXPERIMENTS.md's E-SEARCH table: BAD-GADGET R1O at bound 3 under a
// state cap. A capped run's verdict and counts depend only on the order
// the frontier hands out states, so these rows pin each searcher's pop
// order and the random searcher's draws.
TEST(ParallelChecker, ESearchTableIsPinned) {
  struct Row {
    SearcherKind kind;
    std::uint64_t seed;
    std::size_t cap;
    bool found;
    std::size_t transitions;
    std::size_t frontier_peak;
  };
  const Row rows[] = {
      {SearcherKind::kDFS, 0, 250, true, 769, 183},
      {SearcherKind::kPriorityFlap, 0, 250, false, 447, 212},
      {SearcherKind::kPriorityFlap, 0, 500, true, 1141, 402},
      {SearcherKind::kBFS, 0, 32000, false, 299345, 6771},
      {SearcherKind::kBFS, 0, 64000, true, 631320, 10146},
      {SearcherKind::kRandomPath, 1, 4000, false, 12879, 2927},
      {SearcherKind::kRandomPath, 2, 4000, false, 12407, 2963},
      {SearcherKind::kRandomPath, 3, 4000, false, 12566, 2951},
      {SearcherKind::kRandomPath, 7, 4000, false, 10495, 3120},
      {SearcherKind::kRandomPath, 42, 4000, false, 12760, 2936},
  };
  const spp::Instance inst = spp::bad_gadget();
  for (const Row& row : rows) {
    ExploreOptions options;
    options.max_channel_length = 3;
    options.max_states = row.cap;
    options.searcher = row.kind;
    options.searcher_seed = row.seed;
    const ExploreResult r = explore(inst, Model::parse("R1O"), options);
    const std::string label = to_string(row.kind) + " seed " +
                              std::to_string(row.seed) + " cap " +
                              std::to_string(row.cap);
    EXPECT_EQ(r.oscillation_found, row.found) << label;
    EXPECT_TRUE(r.state_cap_hit) << label;
    EXPECT_EQ(r.states, row.cap) << label;
    EXPECT_EQ(r.transitions, row.transitions) << label;
    EXPECT_EQ(r.frontier_peak, row.frontier_peak) << label;
  }
}

// The non-BFS searchers' whole output on DISAGREE at bound 3: an FNV-1a
// digest of checker_summary (minus wall_us) and the witness scripts.
// These searchers number states in their own order, and the batch a
// wave takes depends on the width, so each (model, searcher, width) has
// its own digest.
TEST(ParallelChecker, NonBfsSearcherOutputsArePinned) {
  struct Pin {
    const char* model;
    SearcherKind kind;
    std::size_t threads;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"R1O", SearcherKind::kDFS, 1, 18337780632631633610ULL},
      {"R1O", SearcherKind::kDFS, 4, 3588927259324179997ULL},
      {"R1O", SearcherKind::kRandomPath, 1, 4952301583143288620ULL},
      {"R1O", SearcherKind::kRandomPath, 4, 1801958326025433306ULL},
      {"R1O", SearcherKind::kPriorityFlap, 1, 3313662859717316451ULL},
      {"R1O", SearcherKind::kPriorityFlap, 4, 16206397186383965945ULL},
      {"RMS", SearcherKind::kDFS, 1, 13480778669573399126ULL},
      {"RMS", SearcherKind::kDFS, 4, 8364470560644196124ULL},
      {"RMS", SearcherKind::kRandomPath, 1, 7255032948600578968ULL},
      {"RMS", SearcherKind::kRandomPath, 4, 14250991619480590755ULL},
      {"RMS", SearcherKind::kPriorityFlap, 1, 4313198880045740900ULL},
      {"RMS", SearcherKind::kPriorityFlap, 4, 3290727428318592119ULL},
  };
  const spp::Instance inst = spp::disagree();
  for (const Pin& pin : pins) {
    ExploreOptions options;
    options.max_channel_length = 3;
    options.threads = pin.threads;
    options.searcher = pin.kind;
    options.searcher_seed = 42;
    options.extract_witness = true;
    const ObservedRun run = run_explore(inst, Model::parse(pin.model), options);
    ASSERT_TRUE(run.result.oscillation_found) << pin.model;
    const std::string output =
        run.summary_line + "\n" +
        model::format_script(inst, run.result.witness_prefix) + "cycle\n" +
        model::format_script(inst, run.result.witness_cycle);
    EXPECT_EQ(testutil::fnv1a(output), pin.digest)
        << pin.model << " " << to_string(pin.kind) << " t=" << pin.threads
        << "\n"
        << output;
  }
}

// DFS fills a cap of 164 states on BAD-GADGET R1O at bound 2 while
// expanding a state of the witness SCC, so some of that state's
// successors were dropped at the cap. Re-deriving the witness must skip
// them, as the graph did, and still produce the parent's bytes.
TEST(ParallelChecker, CappedWitnessSkipsSuccessorsDroppedAtTheCap) {
  const spp::Instance inst = spp::bad_gadget();
  const Model m = Model::parse("R1O");
  ExploreOptions options;
  options.max_channel_length = 2;
  options.max_states = 164;
  options.searcher = SearcherKind::kDFS;
  options.extract_witness = true;
  const ObservedRun run = run_explore(inst, m, options);
  ASSERT_TRUE(run.result.state_cap_hit);
  ASSERT_TRUE(run.result.oscillation_found);
  EXPECT_EQ(replay_witness(inst, m, run.result),
            engine::Outcome::kOscillating);
  const std::string output =
      run.summary_line + "\n" +
      model::format_script(inst, run.result.witness_prefix) + "cycle\n" +
      model::format_script(inst, run.result.witness_cycle);
  EXPECT_EQ(testutil::fnv1a(output), 17403980799584331452ULL) << output;
}

// --- Satellite 1: exact state cap -------------------------------------

TEST(ParallelChecker, StateCapAdmitsExactlyTheConfiguredMaximum) {
  const spp::Instance inst = spp::bad_gadget();
  for (const std::size_t threads : {1u, 8u}) {
    ExploreOptions options;
    options.max_channel_length = 2;
    options.max_states = 5;
    options.threads = threads;
    const ExploreResult r =
        explore(inst, Model::parse("R1O"), options);
    EXPECT_TRUE(r.state_cap_hit) << threads;
    EXPECT_EQ(r.state_cap_limit, 5u) << threads;
    // The historical per-pop check admitted up to N+branching states;
    // the intern-time cap admits exactly N.
    EXPECT_LE(r.states, 5u) << threads;
    EXPECT_EQ(r.states, 5u) << threads;  // BAD-GADGET has >> 5 states
    EXPECT_FALSE(r.exhaustive) << threads;
  }
}

// --- Satellite 2: heartbeats -----------------------------------------

TEST(ParallelChecker, HeartbeatEventsMatchAcrossThreadWidths) {
  const spp::Instance inst = spp::bad_gadget();
  std::vector<std::string> per_width;
  for (const std::size_t threads : {1u, 8u}) {
    obs::MemorySink sink;
    ExploreOptions options;
    options.max_channel_length = 2;
    options.max_states = 4000;
    options.heartbeat_every = 500;
    options.threads = threads;
    options.obs.sink = &sink;
    explore(inst, Model::parse("R1O"), options);
    std::ostringstream all;
    for (const std::string& line : sink.lines()) {
      if (line.find("checker_heartbeat") == std::string::npos) {
        continue;
      }
      // elapsed_ms is wall-clock (quarantined, like wall_us).
      static const std::regex elapsed(R"re(,"elapsed_ms":[0-9]+)re");
      all << std::regex_replace(line, elapsed, "") << "\n";
    }
    per_width.push_back(all.str());
  }
  EXPECT_FALSE(per_width[0].empty());
  EXPECT_EQ(per_width[0], per_width[1]);
}

// Truncation points are enumeration-ordered, so a capped exploration is
// also byte-identical across widths.
TEST(ParallelChecker, TruncatedRunsStayDeterministicAcrossWidths) {
  const spp::Instance inst = spp::bad_gadget();
  const Model m = Model::parse("R1O");
  ExploreOptions base;
  base.max_channel_length = 2;
  base.memory_limit_bytes = 256 * 1024;
  const ObservedRun serial = run_explore(inst, m, base);
  ASSERT_TRUE(serial.result.memory_limit_hit);
  for (const std::size_t threads : {2u, 8u}) {
    ExploreOptions options = base;
    options.threads = threads;
    const ObservedRun parallel = run_explore(inst, m, options);
    EXPECT_EQ(result_fingerprint(inst, serial.result),
              result_fingerprint(inst, parallel.result))
        << threads;
    EXPECT_EQ(serial.summary_line, parallel.summary_line) << threads;
  }
}

}  // namespace
}  // namespace commroute::checker
