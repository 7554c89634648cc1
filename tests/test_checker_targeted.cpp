#include <gtest/gtest.h>

#include "support/error.hpp"
#include "checker/targeted.hpp"
#include "model/script_io.hpp"
#include "spp/gadgets.hpp"
#include "test_util.hpp"
#include "trace/recording.hpp"

namespace commroute::checker {
namespace {

using model::Model;
using trace::MatchKind;

// Prop. 3.10 via Ex. A.3: the REO execution on Fig. 7 cannot be exactly
// realized in R1O...
TEST(Targeted, ExampleA3NotExactlyRealizableInR1O) {
  const spp::Instance inst = spp::example_a3();
  const auto rec = testutil::record_example_a3_reo(inst);
  const auto r = find_realization(inst, Model::parse("R1O"), rec.trace,
                                  MatchKind::kExact);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exhaustive) << "non-realizability must be a proof";
}

// ... but it can be realized with repetition (consistent with the REO row
// R1O column entry "3" in Fig. 3).
TEST(Targeted, ExampleA3RealizableWithRepetitionInR1O) {
  const spp::Instance inst = spp::example_a3();
  const auto rec = testutil::record_example_a3_reo(inst);
  const auto r = find_realization(inst, Model::parse("R1O"), rec.trace,
                                  MatchKind::kRepetition);
  EXPECT_TRUE(r.found) << r.summary();
  EXPECT_FALSE(r.witness.empty());
}

// The obstruction is specific to processing one message at a time: R1F
// can skip over the stale vbd by reading two messages at once, so this
// particular trace is exactly realizable there.
TEST(Targeted, ExampleA3ExactlyRealizableInR1F) {
  const spp::Instance inst = spp::example_a3();
  const auto rec = testutil::record_example_a3_reo(inst);
  const auto r = find_realization(inst, Model::parse("R1F"), rec.trace,
                                  MatchKind::kExact);
  EXPECT_TRUE(r.found) << r.summary();
}

// Without the convergent-tail requirement the finite prefix *is*
// realizable in R1O (the leftover messages are simply postponed) — the
// paper's argument hinges on fairness forcing them to be processed.
TEST(Targeted, ExampleA3FinitePrefixRealizableWithoutTail) {
  const spp::Instance inst = spp::example_a3();
  const auto rec = testutil::record_example_a3_reo(inst);
  RealizationSearchOptions options;
  options.require_convergent_tail = false;
  const auto r = find_realization(inst, Model::parse("R1O"), rec.trace,
                                  MatchKind::kExact, options);
  EXPECT_TRUE(r.found);
}

// Prop. 3.11 via Ex. A.4: the REA execution on Fig. 8 cannot be realized
// with repetition in R1O, but can as a subsequence.
TEST(Targeted, ExampleA4NotRealizableWithRepetitionInR1O) {
  const spp::Instance inst = spp::example_a4();
  const auto rec = testutil::record_example_a4_rea(inst);
  const auto r = find_realization(inst, Model::parse("R1O"), rec.trace,
                                  MatchKind::kRepetition);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exhaustive);
}

TEST(Targeted, ExampleA4RealizableAsSubsequenceInR1O) {
  const spp::Instance inst = spp::example_a4();
  const auto rec = testutil::record_example_a4_rea(inst);
  const auto r = find_realization(inst, Model::parse("R1O"), rec.trace,
                                  MatchKind::kSubsequence);
  EXPECT_TRUE(r.found) << r.summary();
}

// Prop. 3.12 via Ex. A.5: the REA execution on Fig. 9 cannot be exactly
// realized in R1S, but can with repetition (REA row R1S column = "3").
TEST(Targeted, ExampleA5NotExactlyRealizableInR1S) {
  const spp::Instance inst = spp::example_a5();
  const auto rec = testutil::record_example_a5_rea(inst);
  const auto r = find_realization(inst, Model::parse("R1S"), rec.trace,
                                  MatchKind::kExact);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exhaustive);
}

TEST(Targeted, ExampleA5RealizableWithRepetitionInR1S) {
  const spp::Instance inst = spp::example_a5();
  const auto rec = testutil::record_example_a5_rea(inst);
  const auto r = find_realization(inst, Model::parse("R1S"), rec.trace,
                                  MatchKind::kRepetition);
  EXPECT_TRUE(r.found) << r.summary();
}

// Every model realizes its own executions exactly (reflexivity).
TEST(Targeted, SelfRealizationSucceeds) {
  const spp::Instance inst = spp::example_a4();
  const auto rec = testutil::record_example_a4_rea(inst);
  const auto r = find_realization(inst, Model::parse("REA"), rec.trace,
                                  MatchKind::kExact);
  EXPECT_TRUE(r.found);
}

// Witnesses replay to traces that actually realize the target.
TEST(Targeted, WitnessReplayMatchesClaimedSense) {
  const spp::Instance inst = spp::example_a4();
  const auto rec = testutil::record_example_a4_rea(inst);
  const auto r = find_realization(inst, Model::parse("R1O"), rec.trace,
                                  MatchKind::kSubsequence);
  ASSERT_TRUE(r.found);
  const auto replay =
      trace::record_script(inst, r.witness, Model::parse("R1O"));
  EXPECT_TRUE(trace::matches_as_subsequence(rec.trace, replay.trace));
}

// The Appendix A searches above, pinned: verdict, configurations
// explored, witness length and an FNV-1a digest of the witness script.
// The search stops at the first accepted successor in BFS order, so the
// configuration counts and witnesses pin that order too.
TEST(Targeted, AppendixSearchesArePinned) {
  const spp::Instance a3 = spp::example_a3();
  const spp::Instance a4 = spp::example_a4();
  const spp::Instance a5 = spp::example_a5();
  const trace::Trace a3_reo = testutil::record_example_a3_reo(a3).trace;
  const trace::Trace a4_rea = testutil::record_example_a4_rea(a4).trace;
  const trace::Trace a5_rea = testutil::record_example_a5_rea(a5).trace;
  struct Pin {
    const char* label;
    const spp::Instance& inst;
    const trace::Trace& target;
    const char* model;
    MatchKind sense;
    bool convergent_tail;
    bool found;
    std::size_t configs;
    std::size_t witness_steps;
    std::uint64_t witness_digest;
  };
  const Pin pins[] = {
      {"A.3 R1O exact", a3, a3_reo, "R1O", MatchKind::kExact, true, false,
       2927, 0, 14695981039346656037ULL},
      {"A.3 R1O repetition", a3, a3_reo, "R1O", MatchKind::kRepetition, true,
       true, 12888, 25, 738520573828704978ULL},
      {"A.3 R1F exact", a3, a3_reo, "R1F", MatchKind::kExact, true, true,
       5842, 18, 14789780036237965084ULL},
      {"A.3 R1O exact, no tail", a3, a3_reo, "R1O", MatchKind::kExact, false,
       true, 11, 10, 3109516860755783483ULL},
      {"A.4 R1O repetition", a4, a4_rea, "R1O", MatchKind::kRepetition, true,
       false, 65, 0, 14695981039346656037ULL},
      {"A.4 R1O subsequence", a4, a4_rea, "R1O", MatchKind::kSubsequence,
       true, true, 1428, 15, 16368576072511187279ULL},
      {"A.5 R1S exact", a5, a5_rea, "R1S", MatchKind::kExact, true, false, 9,
       0, 14695981039346656037ULL},
      {"A.5 R1S repetition", a5, a5_rea, "R1S", MatchKind::kRepetition, true,
       true, 1636, 16, 1498615508648395243ULL},
      {"A.4 REA exact", a4, a4_rea, "REA", MatchKind::kExact, true, true, 22,
       10, 7637653343685895652ULL},
  };
  for (const Pin& pin : pins) {
    RealizationSearchOptions options;
    options.require_convergent_tail = pin.convergent_tail;
    const auto r = find_realization(pin.inst, Model::parse(pin.model),
                                    pin.target, pin.sense, options);
    const std::string script = model::format_script(pin.inst, r.witness);
    EXPECT_EQ(r.found, pin.found) << pin.label;
    EXPECT_TRUE(r.exhaustive) << pin.label;
    EXPECT_EQ(r.configs_explored, pin.configs) << pin.label;
    EXPECT_EQ(r.witness.size(), pin.witness_steps) << pin.label;
    EXPECT_EQ(testutil::fnv1a(script), pin.witness_digest)
        << pin.label << "\n"
        << script;
  }
}

TEST(Targeted, RejectsForeignInitialAssignment) {
  const spp::Instance inst = spp::example_a4();
  trace::Trace bogus(trace::Assignment(inst.node_count(),
                                       inst.parse_path("ad")));
  EXPECT_THROW(find_realization(inst, Model::parse("R1O"), bogus,
                                MatchKind::kExact),
               PreconditionError);
}

TEST(Targeted, SenseNoneIsRejected) {
  const spp::Instance inst = spp::example_a4();
  const auto rec = testutil::record_example_a4_rea(inst);
  EXPECT_THROW(find_realization(inst, Model::parse("R1O"), rec.trace,
                                MatchKind::kNone),
               PreconditionError);
}

}  // namespace
}  // namespace commroute::checker
