#include <gtest/gtest.h>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "spp/gadgets.hpp"
#include "spp/solver.hpp"

namespace commroute::checker {
namespace {

using model::Model;

// Ex. A.1 / Thm. 3.8 empirically: DISAGREE can oscillate in R1O, RMO,
// R1S, RMS, R1F (and more) but provably cannot in REO, REF, R1A, RMA, REA.
TEST(Explorer, DisagreeOscillatesInWeakModels) {
  const spp::Instance inst = spp::disagree();
  for (const char* name : {"R1O", "RMO", "R1S", "RMS", "RES", "R1F",
                           "RMF"}) {
    const ExploreResult r =
        explore(inst, Model::parse(name), {.max_channel_length = 3});
    EXPECT_TRUE(r.oscillation_found) << name << ": " << r.summary();
  }
}

TEST(Explorer, DisagreeCannotOscillateInStrongModels) {
  const spp::Instance inst = spp::disagree();
  for (const char* name : {"REO", "REF", "R1A", "RMA", "REA"}) {
    const ExploreResult r =
        explore(inst, Model::parse(name), {.max_channel_length = 3});
    EXPECT_TRUE(r.proves_no_oscillation()) << name << ": " << r.summary();
    EXPECT_TRUE(r.exhaustive) << name;
  }
}

TEST(Explorer, DisagreeOscillatesUnderUnreliableChannels) {
  const spp::Instance inst = spp::disagree();
  const ExploreResult r = explore(inst, Model::parse("U1O"),
                                  {.max_channel_length = 3});
  EXPECT_TRUE(r.oscillation_found) << r.summary();
}

TEST(Explorer, DisagreeConvergedOutcomesAreTheStableSolutions) {
  const spp::Instance inst = spp::disagree();
  const auto solutions = spp::stable_assignments(inst);
  const ExploreResult r =
      explore(inst, Model::parse("REA"), {.max_channel_length = 3});
  ASSERT_EQ(r.quiescent_assignments.size(), solutions.size());
  for (const auto& q : r.quiescent_assignments) {
    EXPECT_TRUE(spp::is_solution(inst, q));
  }
}

TEST(Explorer, GoodGadgetSafeInEveryModelBlock) {
  const spp::Instance inst = spp::good_gadget();
  // Exhaustive proofs for a representative reliable set; the polling
  // models drain channels so their spaces are tiny.
  for (const char* name : {"REO", "REF", "REA", "R1A", "RMA"}) {
    const ExploreResult r =
        explore(inst, Model::parse(name), {.max_channel_length = 3});
    EXPECT_TRUE(r.proves_no_oscillation()) << name << ": " << r.summary();
  }
}

TEST(Explorer, GoodGadgetSafeUnderQueueingModel) {
  const spp::Instance inst = spp::good_gadget();
  const ExploreResult r = explore(inst, Model::parse("RMS"),
                                  {.max_channel_length = 3});
  EXPECT_TRUE(r.proves_no_oscillation()) << r.summary();
  ASSERT_EQ(r.quiescent_assignments.size(), 1u);
  EXPECT_TRUE(spp::is_solution(inst, r.quiescent_assignments[0]));
}

TEST(Explorer, BadGadgetOscillatesEvenWhenPolling) {
  // BAD GADGET has no stable assignment, so it oscillates in every model
  // including the strongest ones.
  const spp::Instance inst = spp::bad_gadget();
  for (const char* name : {"REA", "REO", "REF"}) {
    const ExploreResult r = explore(inst, Model::parse(name),
                                    {.max_channel_length = 2,
                                     .max_states = 20000});
    EXPECT_TRUE(r.oscillation_found) << name << ": " << r.summary();
  }
}

TEST(Explorer, BadGadgetHasNoQuiescentStateInPollingModels) {
  const spp::Instance inst = spp::bad_gadget();
  const ExploreResult r = explore(inst, Model::parse("REA"),
                                  {.max_channel_length = 2,
                                   .max_states = 20000});
  EXPECT_TRUE(r.quiescent_assignments.empty());
}

TEST(Explorer, BoundedVerdictIsFlagged) {
  const spp::Instance inst = spp::bad_gadget();
  const ExploreResult r = explore(inst, Model::parse("R1O"),
                                  {.max_channel_length = 1,
                                   .max_states = 500});
  EXPECT_FALSE(r.exhaustive);
  EXPECT_TRUE(r.channel_bound_hit || r.state_cap_hit);
  EXPECT_FALSE(r.proves_no_oscillation());
}

// The checker-discovered oscillation can be replayed: the extracted
// prefix+cycle script, looped forever, is a provably cycling fair
// execution of the same model.
TEST(Explorer, ExtractedWitnessReplaysAsProvableOscillation) {
  const spp::Instance inst = spp::disagree();
  for (const char* name : {"R1O", "RMS", "U1O"}) {
    const Model m = Model::parse(name);
    const ExploreResult r = explore(
        inst, m, {.max_channel_length = 3, .extract_witness = true});
    ASSERT_TRUE(r.oscillation_found) << name;
    ASSERT_FALSE(r.witness_cycle.empty()) << name;

    model::ActivationScript script = r.witness_prefix;
    const std::size_t loop_from = script.size();
    script.insert(script.end(), r.witness_cycle.begin(),
                  r.witness_cycle.end());
    for (const auto& step : script) {
      model::require_step_allowed(m, inst, step);
    }
    engine::ScriptedScheduler sched(script, loop_from);
    const auto run = engine::run(
        inst, sched,
        {.max_steps = 10 * script.size() + 100, .enforce_model = m});
    EXPECT_EQ(run.outcome, engine::Outcome::kOscillating) << name;
    // The replay is fair: every channel is read within the loop.
    EXPECT_LE(run.max_attempt_gap, script.size() + r.witness_cycle.size())
        << name;
  }
}

// The witness loop covers every channel (the fairness requirement).
TEST(Explorer, WitnessCycleAttemptsEveryChannel) {
  const spp::Instance inst = spp::disagree();
  const ExploreResult r = explore(
      inst, Model::parse("R1O"),
      {.max_channel_length = 3, .extract_witness = true});
  ASSERT_TRUE(r.oscillation_found);
  std::vector<bool> attempted(inst.graph().channel_count(), false);
  for (const auto& step : r.witness_cycle) {
    for (const auto& read : step.reads) {
      attempted[read.channel] = true;
    }
  }
  for (ChannelIdx c = 0; c < inst.graph().channel_count(); ++c) {
    EXPECT_TRUE(attempted[c]) << inst.graph().channel_name(c);
  }
}

TEST(Explorer, NoWitnessWithoutRequest) {
  const spp::Instance inst = spp::disagree();
  const ExploreResult r =
      explore(inst, Model::parse("R1O"), {.max_channel_length = 3});
  EXPECT_TRUE(r.oscillation_found);
  EXPECT_TRUE(r.witness_cycle.empty());
  EXPECT_TRUE(r.witness_prefix.empty());
}

TEST(Explorer, SummaryMentionsVerdict) {
  const spp::Instance inst = spp::good_gadget();
  const ExploreResult r = explore(inst, Model::parse("REA"),
                                  {.max_channel_length = 3});
  EXPECT_NE(r.summary().find("no fair oscillation"), std::string::npos);
  EXPECT_NE(r.summary().find("exhaustive"), std::string::npos);
}

TEST(Explorer, StateAndTransitionCountsAreConsistent) {
  const spp::Instance inst = spp::disagree();
  const ExploreResult r = explore(inst, Model::parse("REO"),
                                  {.max_channel_length = 3});
  EXPECT_GT(r.states, 1u);
  EXPECT_GE(r.transitions, r.states - 1);  // reached via some edge
}

// A truncated verdict names the bound that fired and its value.
TEST(Explorer, TruncationReportsTheLimitingBound) {
  const spp::Instance inst = spp::disagree();

  ExploreOptions capped;
  capped.max_channel_length = 3;
  capped.max_states = 4;
  const ExploreResult by_states = explore(inst, Model::parse("RMS"), capped);
  EXPECT_TRUE(by_states.state_cap_hit);
  EXPECT_EQ(by_states.state_cap_limit, 4u);
  EXPECT_EQ(by_states.channel_length_limit, 0u);
  EXPECT_NE(by_states.summary().find("state cap 4 hit"),
            std::string::npos);

  ExploreOptions narrow;
  narrow.max_channel_length = 0;
  const ExploreResult by_channel =
      explore(inst, Model::parse("RMS"), narrow);
  EXPECT_TRUE(by_channel.channel_bound_hit);
  EXPECT_EQ(by_channel.channel_length_limit, 0u);
  EXPECT_GE(by_channel.bound_skipped_expansions, 1u);
  EXPECT_NE(by_channel.summary().find("channel bound 0 hit"),
            std::string::npos);

  // An untruncated exploration reports no limits.
  const ExploreResult full = explore(inst, Model::parse("REA"),
                                     {.max_channel_length = 3});
  EXPECT_TRUE(full.exhaustive);
  EXPECT_EQ(full.state_cap_limit, 0u);
  EXPECT_EQ(full.channel_length_limit, 0u);
  EXPECT_EQ(full.bound_skipped_expansions, 0u);
}

TEST(Explorer, TrackedBytesGrowWithTheSeenSet) {
  const spp::Instance inst = spp::disagree();
  const ExploreResult r = explore(inst, Model::parse("RMS"),
                                  {.max_channel_length = 3});
  // Every interned state costs at least its struct; the estimate can
  // never undercut that floor.
  EXPECT_GT(r.tracked_peak_bytes, 0u);
  EXPECT_GE(r.bytes_per_state(), 1.0);
  EXPECT_GE(r.tracked_peak_bytes,
            r.states * sizeof(engine::NetworkState));
  EXPECT_FALSE(r.memory_limit_hit);
  EXPECT_EQ(r.memory_limit, 0u);
}

TEST(Explorer, MemoryLimitTruncatesDeterministically) {
  const spp::Instance inst = spp::disagree();
  ExploreOptions opts;
  opts.max_channel_length = 3;
  opts.memory_limit_bytes = 4096;  // far below the full exploration
  const ExploreResult r = explore(inst, Model::parse("RMS"), opts);
  EXPECT_TRUE(r.memory_limit_hit);
  EXPECT_EQ(r.memory_limit, 4096u);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_NE(r.summary().find("memory limit 4096 bytes hit"),
            std::string::npos);
  // Byte estimates come from element counts, so the truncation point is
  // machine-independent: a rerun stops at exactly the same state count.
  const ExploreResult again = explore(inst, Model::parse("RMS"), opts);
  EXPECT_EQ(again.states, r.states);
  EXPECT_EQ(again.tracked_peak_bytes, r.tracked_peak_bytes);

  // A generous limit never fires, and the exploration goes deeper.
  opts.memory_limit_bytes = 1u << 30;
  const ExploreResult roomy = explore(inst, Model::parse("RMS"), opts);
  EXPECT_FALSE(roomy.memory_limit_hit);
  EXPECT_GT(roomy.states, r.states);
}

TEST(Explorer, ExplorationStatisticsArePopulated) {
  const spp::Instance inst = spp::disagree();
  const ExploreResult r = explore(inst, Model::parse("RMS"),
                                  {.max_channel_length = 3});
  EXPECT_GE(r.frontier_peak, 1u);
  EXPECT_GE(r.scc_prune_passes, 1u);
  // The disagree configuration graph has reconverging paths, so some
  // successors must deduplicate.
  EXPECT_GT(r.dedup_hits, 0u);
}

// Over half of BAD-GADGET R1O's transitions at bound 3 change nothing.
// They still count as transitions and dedup hits, and the byte model
// still charges them, but the graph stores only the other 1,209,318.
TEST(Explorer, SelfLoopsAreTransitionsButNotEdges) {
  const ExploreResult r =
      explore(spp::bad_gadget(), Model::parse("R1O"),
              {.max_channel_length = 3});
  EXPECT_TRUE(r.oscillation_found);
  EXPECT_EQ(r.states, 226790u);
  EXPECT_EQ(r.transitions, 2583720u);
  EXPECT_EQ(r.dedup_hits, 2356931u);
  EXPECT_EQ(r.tracked_peak_bytes, 709274440u);
  EXPECT_EQ(r.self_loops, 1374402u);
  EXPECT_EQ(r.transitions - r.self_loops, 1209318u);
}

}  // namespace
}  // namespace commroute::checker
