// Engine microbenchmarks (google-benchmark): step execution throughput
// per model, state hashing/copying, queue push/pop and per-step cost by
// network size, and scheduler overhead. Run with --json to write
// BENCH_perf_engine.json instead of the console table.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_gbench.hpp"
#include "sized_instance.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "engine/scheduler.hpp"
#include "engine/state.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"

namespace {

using namespace commroute;
using model::Model;

const spp::Instance& medium_instance() {
  static const spp::Instance inst = [] {
    Rng rng(42);
    spp::RandomInstanceParams params;
    params.nodes = 12;
    params.extra_edge_prob = 0.3;
    params.max_paths_per_node = 8;
    return spp::random_shortest(rng, params);
  }();
  return inst;
}

void BM_ExecuteStep(benchmark::State& state) {
  const Model m = Model::from_index(static_cast<int>(state.range(0)));
  const spp::Instance& inst = medium_instance();
  engine::RandomFairScheduler sched(m, inst, Rng(1),
                                    {.drop_prob = 0.1, .sweep_period = 32});
  engine::NetworkState net(inst);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto step = sched.next(net);
    benchmark::DoNotOptimize(engine::execute_step(net, step));
    if (++steps % 4096 == 0) {
      net = engine::NetworkState(inst);  // reset periodically
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(m.name());
}
BENCHMARK(BM_ExecuteStep)->DenseRange(0, 23, 6);

void BM_StateHash(benchmark::State& state) {
  const spp::Instance& inst = medium_instance();
  engine::RoundRobinScheduler sched(Model::parse("RMS"), inst);
  engine::NetworkState net(inst);
  for (int i = 0; i < 30; ++i) {
    engine::execute_step(net, sched.next(net));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.hash());
  }
}
BENCHMARK(BM_StateHash);

void BM_StateCopy(benchmark::State& state) {
  const spp::Instance& inst = medium_instance();
  engine::RoundRobinScheduler sched(Model::parse("RMS"), inst);
  engine::NetworkState net(inst);
  for (int i = 0; i < 30; ++i) {
    engine::execute_step(net, sched.next(net));
  }
  for (auto _ : state) {
    engine::NetworkState copy = net;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_StateCopy);

void BM_FullConvergenceRun(benchmark::State& state) {
  const Model m = Model::from_index(static_cast<int>(state.range(0)));
  const spp::Instance& inst = medium_instance();
  for (auto _ : state) {
    engine::RoundRobinScheduler sched(m, inst);
    const auto result = engine::run(
        inst, sched, {.max_steps = 100000, .record_trace = false});
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(m.name());
}
BENCHMARK(BM_FullConvergenceRun)->DenseRange(0, 23, 6);

// Per-step cost as the network grows: R1O round-robin to convergence
// (no trace, no cycle table), items = executed steps.
void BM_EngineRunBySize(benchmark::State& state) {
  const spp::Instance& inst =
      bench::sized_instance(static_cast<std::size_t>(state.range(0)));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    engine::RoundRobinScheduler sched(Model::parse("R1O"), inst);
    const auto result = engine::run(inst, sched,
                                    {.max_steps = 10'000'000,
                                     .record_trace = false,
                                     .detect_cycles = false});
    steps += result.steps;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_EngineRunBySize)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

// Queue-offset upkeep as the network grows: a push then a pop on each
// channel of a fixed seeded sequence, on the sized instance's initial
// state, so the arena holds only the pushed message (items = pairs).
void BM_ChannelPushPop(benchmark::State& state) {
  const spp::Instance& inst =
      bench::sized_instance(static_cast<std::size_t>(state.range(0)));
  Rng rng(9);
  std::vector<ChannelIdx> sequence(4096);
  for (ChannelIdx& c : sequence) {
    c = static_cast<ChannelIdx>(rng.below(inst.graph().channel_count()));
  }
  engine::NetworkState net(inst);
  std::size_t i = 0;
  for (auto _ : state) {
    engine::MutableChannel queue = net.mutable_channel(sequence[i]);
    queue.push(spp::kEpsilonPath);
    queue.pop_front();
    benchmark::ClobberMemory();
    i = (i + 1) % sequence.size();
  }
  benchmark::DoNotOptimize(net);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChannelPushPop)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400);

void BM_SchedulerNext(benchmark::State& state) {
  const spp::Instance& inst = medium_instance();
  engine::RandomFairScheduler sched(Model::parse("UMS"), inst, Rng(3),
                                    {.drop_prob = 0.2});
  engine::NetworkState net(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.next(net));
  }
}
BENCHMARK(BM_SchedulerNext);

}  // namespace

int main(int argc, char** argv) {
  return commroute::bench::gbench_main("perf_engine", "steps_per_sec",
                                       argc, argv);
}
