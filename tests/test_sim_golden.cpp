// Pinned sim outputs. Three sim runs pin SimResult::to_json() (by FNV-1a
// digest) and the engine-side values around it: the channel high-water
// marks and the trace's change count. The values were taken from the
// full-network implementation (a channel scan per step for occupancy and
// for the sim's sends, a full assignment copy per trace entry); the
// step-local code must reproduce them byte for byte.
#include <gtest/gtest.h>

#include <string>

#include "scenario/fault.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"

namespace commroute::sim {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

struct Pinned {
  std::uint64_t json_fnv1a;
  std::size_t max_channel_occupancy;
  std::size_t peak_channel_bytes;
  std::size_t trace_changes;
};

void expect_pinned(const SimResult& result, const Pinned& pinned) {
  EXPECT_EQ(fnv1a(result.to_json()), pinned.json_fnv1a) << result.to_json();
  EXPECT_EQ(result.run.max_channel_occupancy, pinned.max_channel_occupancy);
  EXPECT_EQ(result.run.peak_channel_bytes, pinned.peak_channel_bytes);
  EXPECT_EQ(result.run.trace.change_count(), pinned.trace_changes);
}

// (a) REA to convergence on a seeded 100-node shortest-path instance.
TEST(SimGolden, ReaRandomShortest100) {
  Rng rng(11);
  spp::RandomInstanceParams params;
  params.nodes = 100;
  params.extra_edge_prob = 0.02;
  params.max_paths_per_node = 8;
  const spp::Instance inst = spp::random_shortest(rng, params);
  SimOptions opts;
  opts.model = model::Model::parse("REA");
  opts.link.dist = LatencyDist::kExponential;
  opts.link.latency_us = 2000;
  opts.seed = 3;
  opts.max_steps = 1000000;
  const SimResult result = run(inst, opts);
  EXPECT_EQ(result.run.outcome, engine::Outcome::kConverged);
  EXPECT_EQ(result.run.steps, 367u);
  expect_pinned(result, {8857109960670948798ULL, 2, 6208, 112});
}

// (b) Lossy U1O on BAD-GADGET, cut by max_steps right after a step that
// sent three messages. Those sends are never sampled (sampling happens
// when the next step is requested), so latency_samples trails
// messages_sent; drawing for them at execution time would change the
// latency fields and the digest.
TEST(SimGolden, LossyU1oBadGadgetStopsWithUnsampledSends) {
  const spp::Instance inst = spp::bad_gadget();
  SimOptions opts;
  opts.model = model::Model::parse("U1O");
  opts.link.dist = LatencyDist::kUniform;
  opts.link.latency_us = 1000;
  opts.link.jitter_us = 500;
  opts.link.loss_prob = 0.05;
  opts.seed = 1;
  opts.max_steps = 201;
  const SimResult result = run(inst, opts);
  EXPECT_EQ(result.run.outcome, engine::Outcome::kExhausted);
  EXPECT_EQ(result.run.steps, 201u);
  EXPECT_EQ(result.run.messages_sent, 201u);
  EXPECT_EQ(result.latency_samples, 198u);
  expect_pinned(result, {1582125025435469983ULL, 2, 516, 66});
}

// (c) R1O on GOOD-GADGET with a link flap, a session reset and two node
// reboots. A reboot rewrites pi outside any step effect, so the trace,
// its change count and last_flap_us must still show it: node 2 drops to
// epsilon at its reboot and later re-learns 2d, its last flap.
TEST(SimGolden, ReliableGoodGadgetWithReboots) {
  const spp::Instance inst = spp::good_gadget();
  const scenario::FaultSchedule faults = scenario::parse_fault_schedule(
      "1200 link-down 1 2; 2600 link-up 1 2; 4000 reboot 3; "
      "6000 session-reset 1 2; 8000 reboot 2",
      inst);
  SimOptions opts;
  opts.model = model::Model::parse("R1O");
  opts.seed = 5;
  opts.faults = &faults;
  const SimResult result = run(inst, opts);
  EXPECT_EQ(result.run.outcome, engine::Outcome::kConverged);
  EXPECT_EQ(result.faults_applied, 5u);
  EXPECT_EQ(result.last_flap_us[inst.graph().node("2")],
            result.last_change_us);
  expect_pinned(result, {14964413008418797059ULL, 2, 360, 8});
}

}  // namespace
}  // namespace commroute::sim
