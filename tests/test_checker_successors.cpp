#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "checker/explorer.hpp"
#include "checker/state_set.hpp"
#include "checker/successors.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "engine/scheduler.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"
#include "support/rng.hpp"

namespace commroute::checker {
namespace {

using model::Model;

class SuccessorsTest : public ::testing::Test {
 protected:
  spp::Instance inst = spp::disagree();
  engine::NetworkState init{inst};

  /// Two messages queued on y->x: yd, then a withdrawal.
  engine::NetworkState two_messages() const {
    engine::NetworkState st(inst);
    const ChannelIdx c = inst.graph().channel(inst.graph().node("y"),
                                              inst.graph().node("x"));
    st.mutable_channel(c).push({inst.parse_path("yd"), 0});
    st.mutable_channel(c).push({Path::epsilon(), 0});
    return st;
  }

  /// One message on every channel: five R1O round-robin steps load the
  /// four channels between x, y and d, and d's two out-channels (drained
  /// by the first reads and never refilled, since d's export never
  /// changes) get a (d) each.
  engine::NetworkState loaded() const {
    engine::NetworkState st(inst);
    engine::RoundRobinScheduler rr(Model::parse("R1O"), inst);
    for (int k = 0; k < 5; ++k) {
      engine::execute_step(st, rr.next(st));
    }
    const NodeId d = inst.destination();
    for (const ChannelIdx c : inst.graph().out_channels(d)) {
      st.mutable_channel(c).push({Path{d}, 0});
    }
    return st;
  }
};

TEST_F(SuccessorsTest, CountsOnInitialState) {
  // DISAGREE: 3 nodes, each with 2 in-channels, all empty.
  // R1O: one step per (node, channel) pair.
  EXPECT_EQ(enumerate_steps(init, Model::parse("R1O")).size(), 6u);
  // REO/REA: one canonical step per node.
  EXPECT_EQ(enumerate_steps(init, Model::parse("REO")).size(), 3u);
  EXPECT_EQ(enumerate_steps(init, Model::parse("REA")).size(), 3u);
  // RMS: per node, 2^2 channel subsets, one f-option each (m = 0).
  EXPECT_EQ(enumerate_steps(init, Model::parse("RMS")).size(), 12u);
}

TEST_F(SuccessorsTest, UnreliableAddsDropSubsets) {
  const engine::NetworkState st = two_messages();
  // U1O: the 2-message channel read gains a drop variant: 6 + 1 = 7.
  EXPECT_EQ(enumerate_steps(st, Model::parse("U1O")).size(), 7u);
  // R1S: f in {0, 1, 2} for that channel: 6 + 2 = 8.
  EXPECT_EQ(enumerate_steps(st, Model::parse("R1S")).size(), 8u);
  // U1S: f in {0,1,2}; f=1 has 2 drop subsets, f=2 has 4: 1+2+4 = 7
  // options on the loaded channel, 1 on each of the 5 empty ones.
  EXPECT_EQ(enumerate_steps(st, Model::parse("U1S")).size(), 12u);
  // U1A: f = all (2 messages): 4 drop subsets; 6 - 1 + 4 = 9.
  EXPECT_EQ(enumerate_steps(st, Model::parse("U1A")).size(), 9u);
  // U1F: f in {1, 2}: 2 + 4 = 6 options; 6 - 1 + 6 = 11.
  EXPECT_EQ(enumerate_steps(st, Model::parse("U1F")).size(), 11u);
}

TEST_F(SuccessorsTest, EveryStepIsLegalAndValid) {
  engine::NetworkState st(inst);
  const ChannelIdx c = inst.graph().channel(inst.graph().node("d"),
                                            inst.graph().node("x"));
  st.mutable_channel(c).push({Path{inst.destination()}, 0});
  for (const Model& m : Model::all()) {
    for (const auto& step : enumerate_steps(st, m)) {
      std::string why;
      EXPECT_TRUE(model::step_allowed(m, inst, step, &why))
          << m.name() << ": " << why;
    }
  }
}

TEST_F(SuccessorsTest, StepsAreCanonicallyDistinct) {
  // Executing all successors from the same state never produces two
  // identical (step-spec) entries.
  for (const Model& m : Model::all()) {
    const auto steps = enumerate_steps(init, m);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      for (std::size_t j = i + 1; j < steps.size(); ++j) {
        EXPECT_NE(steps[i].to_string(inst), steps[j].to_string(inst))
            << m.name();
      }
    }
  }
}

TEST_F(SuccessorsTest, CapThrowsWhenExceeded) {
  SuccessorOptions options;
  options.max_steps_per_state = 3;
  EXPECT_THROW(enumerate_steps(init, Model::parse("RMS"), options),
               PreconditionError);
}

TEST_F(SuccessorsTest, ForcedOnEmptyChannelStillAttempts) {
  // F requires f >= 1 even when the channel is empty; the canonical step
  // must exist (reading nothing).
  const auto steps = enumerate_steps(init, Model::parse("R1F"));
  EXPECT_EQ(steps.size(), 6u);
  for (const auto& step : steps) {
    ASSERT_EQ(step.reads.size(), 1u);
    ASSERT_TRUE(step.reads[0].count.has_value());
    EXPECT_GE(*step.reads[0].count, 1u);
  }
}

TEST_F(SuccessorsTest, StepOrderIsPinned) {
  // State numbering, frontier_peak, witnesses and tracked_peak_bytes all
  // follow the enumeration order, so it is pinned: FNV-1a over every
  // step's to_string under all 24 models, on states that exercise
  // counts, drop masks and M-subsets over loaded channels. The digest
  // was computed with the materializing enumerator that StepEnumerator
  // replaced.
  const engine::NetworkState loaded_state = loaded();
  for (ChannelIdx c = 0; c < inst.graph().channel_count(); ++c) {
    ASSERT_FALSE(loaded_state.channel(c).empty())
        << inst.graph().channel_name(c);
  }
  // One enumerator per model, reused across the states as an explorer
  // worker reuses its own.
  std::vector<StepEnumerator> enumerators;
  for (const Model& m : Model::all()) {
    enumerators.emplace_back(m);
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t total = 0;
  for (const engine::NetworkState& st :
       {init, two_messages(), loaded_state}) {
    for (std::size_t k = 0; k < Model::all().size(); ++k) {
      const Model& m = Model::all()[k];
      const auto steps = enumerate_steps(st, m);
      for (const model::ActivationStep& step : steps) {
        for (const char ch : step.to_string(inst) + "\n") {
          digest = (digest ^ static_cast<unsigned char>(ch)) *
                   0x100000001b3ULL;
        }
      }
      total += steps.size();

      // The streaming form visits exactly those steps, in that order.
      std::size_t at = 0;
      const std::size_t visited = enumerators[k].for_each(
          st, [&](const model::ActivationStep& step) {
            ASSERT_LT(at, steps.size());
            EXPECT_EQ(step.to_string(inst), steps[at].to_string(inst))
                << m.name() << " step " << at;
            ++at;
          });
      EXPECT_EQ(visited, steps.size()) << m.name();
    }
  }
  EXPECT_EQ(total, 768u);
  EXPECT_EQ(digest, 10401395587186229419ULL);
}

TEST_F(SuccessorsTest, EnumeratorCapMatchesEnumerateSteps) {
  SuccessorOptions options;
  options.max_steps_per_state = 3;
  StepEnumerator enumerator(Model::parse("RMS"), options);
  std::size_t visited = 0;
  try {
    enumerator.for_each(init,
                        [&](const model::ActivationStep&) { ++visited; });
    FAIL() << "cap not enforced";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("max_steps_per_state"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(visited, 3u);  // the cap admits exactly max_steps_per_state
}

// The checker's self-loop rule, on every step the enumerator visits from
// every state reachable within channel bound 2 (up to 4,000 states per
// cell): a step whose reads all process zero messages
// (engine::processed_count) at an idle node (engine::idle) is exactly a
// step that leaves the state equal. Where the search finishes under the
// cap, explore() counts the same steps as self_loops.
TEST(SelfLoopRule, AcceptsExactlyTheStepsThatChangeNothing) {
  std::vector<std::pair<std::string, spp::Instance>> instances = {
      {"DISAGREE", spp::disagree()},
      {"A.4", spp::example_a4()},
      {"BAD-GADGET", spp::bad_gadget()},
      {"GOOD-GADGET", spp::good_gadget()}};
  Rng rng(25);
  for (int k = 0; k < 3; ++k) {
    instances.emplace_back("random_policy " + std::to_string(k),
                           spp::random_policy(rng, {.nodes = 5}));
  }
  constexpr std::size_t kBound = 2;
  constexpr std::size_t kCap = 4000;
  std::size_t accepted_total = 0;
  std::size_t compared_cells = 0;
  for (const auto& [name, inst] : instances) {
    for (const Model& m : Model::all()) {
      ShardedStateSet seen(1);
      std::deque<const engine::NetworkState*> frontier{
          seen.intern(engine::NetworkState(inst)).state};
      StepEnumerator steps(m);
      engine::NetworkState next(inst);
      engine::StepEffect effect;
      std::size_t accepted = 0;  // by the rule, at expandable states
      std::size_t mismatches = 0;
      std::string first_mismatch;
      while (!frontier.empty()) {
        const engine::NetworkState& s = *frontier.front();
        frontier.pop_front();
        const bool expandable = !engine::strongly_quiescent(s);
        steps.for_each(s, [&](const model::ActivationStep& step) {
          bool rule = engine::idle(s, step.nodes.front());
          for (const model::ReadSpec& read : step.reads) {
            rule = rule && engine::processed_count(s, read) == 0;
          }
          next = s;
          engine::execute_step(next, step, effect);
          const bool unchanged = next == s;
          if (rule != unchanged && mismatches++ == 0) {
            first_mismatch = step.to_string(inst) + " from\n" + s.to_string();
          }
          if (rule && expandable) {
            ++accepted;
          }
          if (unchanged || next.max_channel_length() > kBound) {
            return;
          }
          const ShardedStateSet::InternResult interned = seen.intern(next);
          if (interned.inserted && seen.size() <= kCap) {
            frontier.push_back(interned.state);
          }
        });
      }
      EXPECT_EQ(mismatches, 0u) << name << " " << m.name() << ": "
                                << first_mismatch;
      accepted_total += accepted;
      if (seen.size() <= kCap) {
        ++compared_cells;
        const ExploreResult r =
            explore(inst, m, {.max_channel_length = kBound});
        EXPECT_EQ(r.states, seen.size()) << name << " " << m.name();
        EXPECT_EQ(r.self_loops, accepted) << name << " " << m.name();
      }
    }
  }
  EXPECT_GT(accepted_total, 0u);
  EXPECT_GT(compared_cells, 0u);
}

}  // namespace
}  // namespace commroute::checker
