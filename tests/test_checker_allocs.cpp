// Heap allocations made by checker::explore, per interned state, by
// checker::find_realization, per configuration, and by engine::run and
// trace::replay_recording, per step.
//
// An expansion reuses one step enumerator, one successor state and one
// step effect per worker and copies a successor into the seen-set only
// when it is new. Edges go into one flat array and SCCs into one flat
// member array, so the allocations that remain scale with the states
// found (their payload copy and amortized array growth), not with the
// transitions tried or the SCCs formed; a witness is re-derived after
// the verdict, so asking for one stores nothing per transition. An
// engine step with the trace or the flight recorder on, and a replayed
// step, keep only what the step changed, so their allocations do not
// grow with the network. This suite replaces the global operator
// new/delete to count them, which is why it is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "checker/explorer.hpp"
#include "checker/targeted.hpp"
#include "engine/runner.hpp"
#include "engine/scheduler.hpp"
#include "spp/gadgets.hpp"
#include "sized_instance.hpp"
#include "test_util.hpp"
#include "trace/recording_io.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void* allocate(std::size_t n) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace commroute::checker {
namespace {

using model::Model;

struct Counted {
  ExploreResult result;
  std::uint64_t allocations = 0;

  double per_state() const {
    return static_cast<double>(allocations) /
           static_cast<double>(result.states);
  }
};

/// Explores on the calling thread, counting allocations only inside the
/// explore() call.
Counted explore_counted(const spp::Instance& inst, const Model& m,
                        ExploreOptions options) {
  options.threads = 1;
  Counted counted;
  allocations.store(0);
  counting.store(true);
  counted.result = explore(inst, m, options);
  counting.store(false);
  counted.allocations = allocations.load();
  return counted;
}

TEST(CheckerAllocs, CountingSeesAllocations) {
  allocations.store(0);
  counting.store(true);
  auto* probe = new std::uint64_t[4];
  counting.store(false);
  delete[] probe;
  EXPECT_EQ(allocations.load(), 1u);
}

TEST(CheckerAllocs, SmallGadgetsAllModelsAtBound3) {
  for (const spp::Instance& inst : {spp::disagree(), spp::example_a4()}) {
    for (const Model& m : Model::all()) {
      const Counted counted =
          explore_counted(inst, m, {.max_channel_length = 3});
      ASSERT_GT(counted.result.states, 0u);
      EXPECT_LE(counted.per_state(), 16.0)
          << m.name() << ": " << counted.allocations << " allocations for "
          << counted.result.states << " states";
    }
  }
}

TEST(CheckerAllocs, BadGadgetR1OAtBound2) {
  const spp::Instance inst = spp::bad_gadget();
  const Counted counted =
      explore_counted(inst, Model::parse("R1O"), {.max_channel_length = 2});
  EXPECT_EQ(counted.result.states, 38720u);
  // About 1.2: one payload copy per state plus amortized growth. A
  // heap row per state (edges or SCC members) would take it past 2.
  EXPECT_LE(counted.per_state(), 2.0)
      << counted.allocations << " allocations for "
      << counted.result.states << " states";
}

TEST(CheckerAllocs, WitnessRequestStoresNoStepPerTransition) {
  // A.4 has no fair oscillation under UMS, so no witness is built: a
  // step copied per transition for it cost 73.3 allocations per state,
  // against 1.5 without the request.
  const spp::Instance inst = spp::example_a4();
  const Counted counted =
      explore_counted(inst, Model::parse("UMS"),
                      {.max_channel_length = 3, .extract_witness = true});
  ASSERT_FALSE(counted.result.oscillation_found);
  EXPECT_LE(counted.per_state(), 4.0)
      << counted.allocations << " allocations for "
      << counted.result.states << " states";
}

TEST(CheckerAllocs, TargetedSearchComparesPathIds) {
  // A.3's REO trace, realized with repetition in R1O: 12,888
  // configurations. Comparing a successor's path ids with the target's
  // allocates nothing; building its assignment to compare would cost
  // about 114 allocations per configuration.
  const spp::Instance a3 = spp::example_a3();
  const trace::Trace target = testutil::record_example_a3_reo(a3).trace;
  allocations.store(0);
  counting.store(true);
  const RealizationSearchResult r =
      find_realization(a3, Model::parse("R1O"), target,
                       trace::MatchKind::kRepetition);
  counting.store(false);
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.configs_explored, 12888u);
  const double per_config = static_cast<double>(allocations.load()) /
                            static_cast<double>(r.configs_explored);
  EXPECT_LT(per_config, 10.0)
      << allocations.load() << " allocations for " << r.configs_explored
      << " configurations";
}

/// Allocations per step of an R1O round-robin run to convergence with
/// cycle detection off, counted only inside engine::run.
double run_allocations_per_step(const spp::Instance& inst,
                                engine::RunOptions options) {
  options.max_steps = 10'000'000;
  options.detect_cycles = false;
  engine::RoundRobinScheduler scheduler(Model::parse("R1O"), inst);
  allocations.store(0);
  counting.store(true);
  const engine::RunResult result = engine::run(inst, scheduler, options);
  counting.store(false);
  EXPECT_EQ(result.outcome, engine::Outcome::kConverged);
  return static_cast<double>(allocations.load()) /
         static_cast<double>(result.steps);
}

TEST(EngineAllocs, FlightRecorderStepsDoNotCopyPi) {
  // A ring of 256 steps keeps each step, its I/O summary and the nodes
  // whose pi changed. A copy of pi per step would cost 92 / 277 / 654
  // allocations per step at these sizes.
  for (const std::size_t nodes : {100, 400, 1600}) {
    engine::RunOptions options;
    options.record_trace = false;
    options.flight.mode = engine::FlightRecorderOptions::Mode::kRing;
    options.flight.ring_capacity = 256;
    EXPECT_LE(
        run_allocations_per_step(bench::sized_instance(nodes), options),
        16.0)
        << nodes << " nodes";
  }
}

TEST(EngineAllocs, TraceStepsStoreOnlyTheirChanges) {
  // The ceilings are the allocations per step measured before the trace
  // and the flight recorder shared one change list (2.286 / 2.210 /
  // 2.098): sharing it must cost a trace-only run nothing.
  const struct {
    std::size_t nodes;
    double ceiling;
  } pins[] = {{100, 2.287}, {400, 2.211}, {1600, 2.099}};
  for (const auto& pin : pins) {
    engine::RunOptions options;
    options.record_trace = true;
    EXPECT_LE(
        run_allocations_per_step(bench::sized_instance(pin.nodes), options),
        pin.ceiling)
        << pin.nodes << " nodes";
  }
}

TEST(ReplayAllocs, ReplayStepsCompareOnlyTheirChanges) {
  // Replaying a full recording of an R1O round-robin run. Building and
  // comparing the whole assignment cost 273 allocations per step at 400
  // nodes; recording and comparing a step's own changes costs about 0.2
  // at every size.
  for (const std::size_t nodes : {100, 400, 1600}) {
    const spp::Instance& inst = bench::sized_instance(nodes);
    engine::RoundRobinScheduler scheduler(Model::parse("R1O"), inst);
    engine::RunOptions options;
    options.max_steps = 10'000'000;
    options.detect_cycles = false;
    options.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
    const engine::RunResult run = engine::run(inst, scheduler, options);
    ASSERT_EQ(run.outcome, engine::Outcome::kConverged);
    trace::LoadedRecording loaded(inst);
    loaded.doc = *run.recording;

    allocations.store(0);
    counting.store(true);
    const trace::ReplayResult replay = trace::replay_recording(loaded);
    counting.store(false);
    ASSERT_TRUE(replay.identical) << nodes << " nodes";
    const double per_step = static_cast<double>(allocations.load()) /
                            static_cast<double>(replay.steps_replayed);
    EXPECT_LE(per_step, 0.5) << nodes << " nodes";
  }
}

}  // namespace
}  // namespace commroute::checker
