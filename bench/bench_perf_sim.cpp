// Simulation microbenchmarks (google-benchmark): DES event-queue
// throughput, latency sampling cost, and full timed runs across link
// models. Run with --json to write BENCH_perf_sim.json instead of the
// console table.
#include <benchmark/benchmark.h>

#include "bench_gbench.hpp"
#include "sized_instance.hpp"
#include "sim/event_queue.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"

namespace {

using namespace commroute;

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

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng(7);
  std::uint64_t t = 0;
  for (auto _ : state) {
    sim::Event ev;
    ev.time = t + rng.below(1000);
    ev.kind = sim::Event::Kind::kArrival;
    ev.channel = 0;
    queue.push(ev);
    if (queue.size() > 256) {
      t = queue.pop().time;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueuePushPop);

void BM_SampleLatency(benchmark::State& state) {
  sim::LinkModel link;
  link.dist = static_cast<sim::LatencyDist>(state.range(0));
  link.latency_us = 1000;
  link.jitter_us = 200;
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.sample_latency(rng));
  }
  state.SetLabel(sim::to_string(link.dist));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SampleLatency)->DenseRange(0, 2);

void BM_SimRunBadGadget(benchmark::State& state) {
  const spp::Instance inst = spp::bad_gadget();
  std::uint64_t seed = 1;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    sim::SimOptions opts;
    opts.model = model::Model::parse("U1O");
    opts.link.latency_us = 1000;
    opts.link.jitter_us = 500;
    opts.link.dist = sim::LatencyDist::kUniform;
    opts.link.loss_prob = 0.1;
    opts.seed = seed++;
    opts.max_steps = 5000;
    const sim::SimResult result = sim::run(inst, opts);
    steps += result.run.steps;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SimRunBadGadget);

void BM_SimRunMedium(benchmark::State& state) {
  const spp::Instance& inst = medium_instance();
  std::uint64_t seed = 1;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    sim::SimOptions opts;
    opts.model = model::Model::parse("RMS");
    opts.link.dist = sim::LatencyDist::kExponential;
    opts.link.latency_us = 2000;
    opts.seed = seed++;
    opts.max_steps = 20000;
    const sim::SimResult result = sim::run(inst, opts);
    steps += result.run.steps;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SimRunMedium);

// Per-step cost as the network grows: REA with exponential 2 ms links
// to convergence, items = executed steps.
void BM_SimRunBySize(benchmark::State& state) {
  const spp::Instance& inst =
      bench::sized_instance(static_cast<std::size_t>(state.range(0)));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    sim::SimOptions opts;
    opts.model = model::Model::parse("REA");
    opts.link.dist = sim::LatencyDist::kExponential;
    opts.link.latency_us = 2000;
    opts.seed = 1;
    opts.max_steps = 10'000'000;
    const sim::SimResult result = sim::run(inst, opts);
    steps += result.run.steps;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SimRunBySize)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Arg(6400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return commroute::bench::gbench_main("perf_sim", "steps_per_sec", argc,
                                       argv);
}
