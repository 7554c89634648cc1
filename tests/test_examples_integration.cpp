// End-to-end reproduction of the paper's Appendix A examples.
#include <gtest/gtest.h>

#include "engine/runner.hpp"
#include "spp/gadgets.hpp"
#include "test_util.hpp"
#include "trace/recording.hpp"

namespace commroute {
namespace {

using model::Model;

// ---- Example A.1 (DISAGREE, Fig. 5) ----------------------------------------

TEST(ExampleA1, R1OOscillationMatchesThePaperNarrative) {
  const spp::Instance inst = spp::disagree();
  const auto [script, loop_from] =
      testutil::disagree_r1o_oscillation(inst);
  engine::ScriptedScheduler sched(script, loop_from);
  const engine::RunResult result = engine::run(
      inst, sched, {.max_steps = 400, .enforce_model = Model::parse("R1O")});
  ASSERT_EQ(result.outcome, engine::Outcome::kOscillating);

  // Within the cycle, x alternates between xd and xyd, y between yd and
  // yxd — the "choice of more preferred route causes a withdrawal" loop.
  const NodeId x = inst.graph().node("x");
  const NodeId y = inst.graph().node("y");
  std::set<std::string> x_paths, y_paths;
  for (std::size_t t = result.cycle_start; t < result.trace.size(); ++t) {
    x_paths.insert(inst.path_name(result.trace.at(t)[x]));
    y_paths.insert(inst.path_name(result.trace.at(t)[y]));
  }
  EXPECT_EQ(x_paths, (std::set<std::string>{"xd", "xyd"}));
  EXPECT_EQ(y_paths, (std::set<std::string>{"yd", "yxd"}));
}

// ---- Example A.2 (Fig. 6) ---------------------------------------------------

TEST(ExampleA2, REOTraceMatchesThePaperTable) {
  const spp::Instance inst = spp::example_a2();
  const trace::Recording rec = testutil::record_example_a2_reo(inst);

  // The paper's table: t, updating node, path chosen at that step.
  const std::vector<std::pair<std::string, std::string>> expected{
      {"d", "d"},    {"x", "xd"},     {"a", "axd"},  {"u", "uaxd"},
      {"v", "vuaxd"}, {"y", "yd"},    {"a", "ayd"},  {"u", "(eps)"},
      {"v", "vayd"}, {"z", "zd"},     {"a", "azd"},  {"v", "vazd"},
      {"u", "uazd"}};
  ASSERT_EQ(rec.steps.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    const NodeId v = rec.steps[t].step.node();
    EXPECT_EQ(inst.graph().name(v), expected[t].first) << "t=" << t + 1;
    EXPECT_EQ(inst.path_name(rec.trace.at(t + 1)[v]), expected[t].second)
        << "t=" << t + 1;
  }
}

TEST(ExampleA2, TwoMessagesQueueInTheChannelFromV) {
  // "although u does not have a path, there are two messages in the
  //  channel from v" after step 12.
  const spp::Instance inst = spp::example_a2();
  trace::Recording rec = testutil::record_example_a2_reo(inst);
  const ChannelIdx vu = inst.graph().channel(inst.graph().node("v"),
                                             inst.graph().node("u"));
  // The recording's final state is after t = 13 where u consumed one; the
  // check at t=12 is visible in the step-13 read effect instead.
  const auto& read_effects = rec.steps[12].effect.reads;
  bool saw_vu = false;
  for (const auto& re : read_effects) {
    if (re.channel == vu) {
      saw_vu = true;
      EXPECT_EQ(re.processed, 1u);  // REO takes one of the two
    }
  }
  EXPECT_TRUE(saw_vu);
  EXPECT_EQ(rec.final_state.channel(vu).size(), 1u);  // vazd still queued
}

TEST(ExampleA2, ContinuationOscillatesForever) {
  const spp::Instance inst = spp::example_a2();
  model::ActivationScript script = testutil::named_script(
      inst, {"d", "x", "a", "u", "v", "y", "a", "u", "v", "z", "a", "v",
             "u"},
      false);
  const std::size_t loop_from = script.size();
  for (const char* n : {"v", "u", "a", "d", "x", "y", "z"}) {
    script.push_back(model::read_every_one_step(inst, inst.graph().node(n)));
  }
  engine::ScriptedScheduler sched(script, loop_from);
  const engine::RunResult result = engine::run(
      inst, sched,
      {.max_steps = 2000, .enforce_model = Model::parse("REO")});
  EXPECT_EQ(result.outcome, engine::Outcome::kOscillating);

  // u and v oscillate between their direct and indirect routes.
  const NodeId u = inst.graph().node("u");
  std::set<std::string> u_paths;
  for (std::size_t t = result.cycle_start; t < result.trace.size(); ++t) {
    u_paths.insert(inst.path_name(result.trace.at(t)[u]));
  }
  EXPECT_TRUE(u_paths.count("uazd"));
  EXPECT_TRUE(u_paths.count("uvazd"));
}

// ---- Example A.3 (Fig. 7) ---------------------------------------------------

TEST(ExampleA3, REOTraceMatchesThePaperTable) {
  const spp::Instance inst = spp::example_a3();
  const trace::Recording rec = testutil::record_example_a3_reo(inst);
  const std::vector<std::pair<std::string, std::string>> expected{
      {"d", "d"},   {"b", "bd"},   {"u", "ubd"},  {"v", "vbd"},
      {"a", "ad"},  {"u", "uad"},  {"v", "vad"},  {"s", "subd"},
      {"s", "suad"}, {"s", "suad"}};
  ASSERT_EQ(rec.steps.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    const NodeId v = rec.steps[t].step.node();
    EXPECT_EQ(inst.graph().name(v), expected[t].first) << "t=" << t + 1;
    EXPECT_EQ(inst.path_name(rec.trace.at(t + 1)[v]), expected[t].second)
        << "t=" << t + 1;
  }
}

TEST(ExampleA3, REOExecutionConverges) {
  const spp::Instance inst = spp::example_a3();
  model::ActivationScript script = testutil::named_script(
      inst, {"d", "b", "u", "v", "a", "u", "v", "s", "s", "s"}, false);
  const std::size_t loop_from = script.size();
  for (const char* n : {"d", "a", "b", "u", "v", "s"}) {
    script.push_back(model::read_every_one_step(inst, inst.graph().node(n)));
  }
  engine::ScriptedScheduler sched(script, loop_from);
  const engine::RunResult result = engine::run(inst, sched,
                                               {.max_steps = 500});
  EXPECT_EQ(result.outcome, engine::Outcome::kConverged);
  EXPECT_EQ(inst.path_name(
                result.final_assignment[inst.graph().node("s")]),
            "suad");
}

// ---- Example A.4 (Fig. 8) ---------------------------------------------------

TEST(ExampleA4, REATraceMatchesThePaperTable) {
  const spp::Instance inst = spp::example_a4();
  const trace::Recording rec = testutil::record_example_a4_rea(inst);
  const std::vector<std::pair<std::string, std::string>> expected{
      {"d", "d"}, {"a", "ad"}, {"u", "uad"},
      {"b", "bd"}, {"u", "ubd"}, {"s", "subd"}};
  ASSERT_EQ(rec.steps.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    const NodeId v = rec.steps[t].step.node();
    EXPECT_EQ(inst.graph().name(v), expected[t].first) << "t=" << t + 1;
    EXPECT_EQ(inst.path_name(rec.trace.at(t + 1)[v]), expected[t].second)
        << "t=" << t + 1;
  }
}

TEST(ExampleA4, ChannelUToSHoldsUadThenUbdBeforeStep6) {
  // "Before the last step, the first message in the channel (u, s) is uad
  //  and the second message is ubd."
  const spp::Instance inst = spp::example_a4();
  model::ActivationScript prefix = testutil::named_script(
      inst, {"d", "a", "u", "b", "u"}, true);
  const trace::Recording rec = trace::record_script(inst, prefix);
  const ChannelIdx us = inst.graph().channel(inst.graph().node("u"),
                                             inst.graph().node("s"));
  const engine::Channel channel = rec.final_state.channel(us);
  ASSERT_EQ(channel.size(), 2u);
  EXPECT_EQ(inst.path_name(channel.path(0)), "uad");
  EXPECT_EQ(inst.path_name(channel.path(1)), "ubd");
}

// ---- Example A.5 (Fig. 9) ---------------------------------------------------

TEST(ExampleA5, REATraceMatchesThePaperTable) {
  const spp::Instance inst = spp::example_a5();
  const trace::Recording rec = testutil::record_example_a5_rea(inst);
  const std::vector<std::pair<std::string, std::string>> expected{
      {"d", "d"},  {"b", "bd"},  {"c", "cbd"}, {"x", "xd"},
      {"s", "scbd"}, {"a", "ad"}, {"c", "cad"}, {"s", "sxd"}};
  ASSERT_EQ(rec.steps.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    const NodeId v = rec.steps[t].step.node();
    EXPECT_EQ(inst.graph().name(v), expected[t].first) << "t=" << t + 1;
    EXPECT_EQ(inst.path_name(rec.trace.at(t + 1)[v]), expected[t].second)
        << "t=" << t + 1;
  }
}

// ---- Example A.6 (multi-node polling) ---------------------------------------

TEST(ExampleA6, MultiNodePollingOscillatesOnDisagree) {
  const spp::Instance inst = spp::disagree();
  const NodeId d = inst.graph().node("d");
  const NodeId x = inst.graph().node("x");
  const NodeId y = inst.graph().node("y");
  const Graph& g = inst.graph();

  // X(1) = {(d,d)} is modeled as d's self-activation (poll any channel);
  // then alternate "both poll d" / "both poll each other".
  model::ActivationScript script;
  script.push_back(model::poll_one_step(inst, d, x));
  const std::size_t loop_from = script.size();
  script.push_back(model::make_multi_step(
      {x, y}, {model::ReadSpec{g.channel(d, x), std::nullopt, {}},
               model::ReadSpec{g.channel(d, y), std::nullopt, {}}}));
  script.push_back(model::make_multi_step(
      {x, y}, {model::ReadSpec{g.channel(y, x), std::nullopt, {}},
               model::ReadSpec{g.channel(x, y), std::nullopt, {}}}));
  // Keep d fair.
  script.push_back(model::make_multi_step(
      {d}, {model::ReadSpec{g.channel(x, d), std::nullopt, {}},
            model::ReadSpec{g.channel(y, d), std::nullopt, {}}}));

  engine::ScriptedScheduler sched(script, loop_from);
  const engine::RunResult result = engine::run(inst, sched,
                                               {.max_steps = 500});
  EXPECT_EQ(result.outcome, engine::Outcome::kOscillating);

  // Simultaneous polling flips both nodes together: xd/yd then xyd/yxd.
  std::set<std::string> pairs;
  for (std::size_t t = result.cycle_start; t < result.trace.size(); ++t) {
    pairs.insert(inst.path_name(result.trace.at(t)[x]) + "/" +
                 inst.path_name(result.trace.at(t)[y]));
  }
  EXPECT_TRUE(pairs.count("xd/yd"));
  EXPECT_TRUE(pairs.count("xyd/yxd"));
}

TEST(ExampleA6, SingleNodePollingCannotReproduceIt) {
  // In single-node R1A the same instance provably converges (Ex. A.1),
  // so the multi-node oscillation is strictly beyond |U| = 1 polling.
  const spp::Instance inst = spp::disagree();
  engine::RoundRobinScheduler sched(Model::parse("R1A"), inst);
  const engine::RunResult result = engine::run(inst, sched);
  EXPECT_EQ(result.outcome, engine::Outcome::kConverged);
}

}  // namespace
}  // namespace commroute
