// Checker microbenchmarks (google-benchmark): exhaustive exploration and
// targeted realization-search cost on the paper's gadgets. Run with
// --json to write BENCH_perf_checker.json instead of the console table.
#include <benchmark/benchmark.h>

#include "bench_gbench.hpp"
#include "checker/explorer.hpp"
#include "checker/successors.hpp"
#include "checker/targeted.hpp"
#include "spp/gadgets.hpp"
#include "trace/recording.hpp"

namespace {

using namespace commroute;
using model::Model;

void BM_ExploreDisagree(benchmark::State& state) {
  const Model m = Model::from_index(static_cast<int>(state.range(0)));
  const spp::Instance inst = spp::disagree();
  std::size_t states_explored = 0;
  for (auto _ : state) {
    const auto r = checker::explore(inst, m, {.max_channel_length = 3});
    states_explored = r.states;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * states_explored));  // states/sec
  state.SetLabel(m.name() + " (" + std::to_string(states_explored) +
                 " states)");
}
BENCHMARK(BM_ExploreDisagree)->DenseRange(0, 23, 3)
    ->Unit(benchmark::kMillisecond);

void BM_ExploreBadGadget(benchmark::State& state) {
  const Model m = Model::parse("R1O");
  const spp::Instance inst = spp::bad_gadget();
  std::size_t states_explored = 0;
  std::uint64_t tracked_peak = 0;
  for (auto _ : state) {
    const auto r = checker::explore(inst, m, {.max_channel_length = 3});
    states_explored = r.states;
    tracked_peak = r.tracked_peak_bytes;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * states_explored));  // states/sec
  state.SetLabel("BAD-GADGET R1O (" + std::to_string(states_explored) +
                 " states, peak " + std::to_string(tracked_peak) +
                 " tracked bytes)");
}
BENCHMARK(BM_ExploreBadGadget)->Unit(benchmark::kMillisecond);

// Thread-scaling on the BAD-GADGET frontier: the same bounded
// exploration at widths 1/2/4/8. Besides the wall-clock curve (only
// meaningful on a machine with that many physical cores — on a 1-core
// runner every width costs serial time plus coordination overhead),
// each width re-asserts the explorer's determinism contract: verdict,
// state count, transition count, and dedup count must reproduce the
// width-1 result exactly, or the benchmark aborts with an error.
void BM_ExploreBadGadgetThreads(benchmark::State& state) {
  const Model m = Model::parse("R1O");
  const spp::Instance inst = spp::bad_gadget();
  checker::ExploreOptions opts;
  opts.max_channel_length = 3;
  opts.max_states = 20000;  // bounded so one iteration stays ~1s
  opts.threads = static_cast<std::size_t>(state.range(0));
  static const checker::ExploreResult reference = [&inst, &m] {
    checker::ExploreOptions serial;
    serial.max_channel_length = 3;
    serial.max_states = 20000;
    serial.threads = 1;
    return checker::explore(inst, m, serial);
  }();
  std::size_t states_explored = 0;
  for (auto _ : state) {
    const auto r = checker::explore(inst, m, opts);
    if (r.oscillation_found != reference.oscillation_found ||
        r.states != reference.states ||
        r.transitions != reference.transitions ||
        r.dedup_hits != reference.dedup_hits) {
      state.SkipWithError("verdict diverged from the threads=1 result");
      return;
    }
    states_explored = r.states;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * states_explored));  // states/sec
  state.SetLabel("BAD-GADGET R1O cap 20000, threads=" +
                 std::to_string(state.range(0)));
}
BENCHMARK(BM_ExploreBadGadgetThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SuccessorEnumeration(benchmark::State& state) {
  const Model m = Model::from_index(static_cast<int>(state.range(0)));
  const spp::Instance inst = spp::example_a2();
  engine::NetworkState net(inst);
  // Load a few channels.
  const NodeId d = inst.graph().node("d");
  engine::execute_step(net, model::poll_one_step(inst, d, inst.graph().node("x")));
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::enumerate_steps(net, m));
  }
  state.SetLabel(m.name());
}
BENCHMARK(BM_SuccessorEnumeration)->DenseRange(0, 23, 6);

// The same states streamed through one warmed-up StepEnumerator (what
// an explorer worker keeps): no step vector, no per-step allocation.
void BM_StepEnumerator(benchmark::State& state) {
  const Model m = Model::from_index(static_cast<int>(state.range(0)));
  const spp::Instance inst = spp::example_a2();
  engine::NetworkState net(inst);
  const NodeId d = inst.graph().node("d");
  engine::execute_step(net, model::poll_one_step(inst, d, inst.graph().node("x")));
  checker::StepEnumerator enumerator(m);
  std::size_t reads = 0;
  const auto visit = [&reads](const model::ActivationStep& step) {
    reads += step.reads.size();
  };
  enumerator.for_each(net, visit);  // warm the buffers
  std::size_t steps = 0;
  for (auto _ : state) {
    const std::size_t visited = enumerator.for_each(net, visit);
    benchmark::DoNotOptimize(visited);
    steps += visited;
  }
  benchmark::DoNotOptimize(reads);
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));  // steps/sec
  state.SetLabel(m.name());
}
BENCHMARK(BM_StepEnumerator)->DenseRange(0, 23, 6);

void BM_TargetedSearchA4(benchmark::State& state) {
  const spp::Instance inst = spp::example_a4();
  model::ActivationScript script;
  for (const char* n : {"d", "a", "u", "b", "u", "s"}) {
    script.push_back(model::poll_all_step(inst, inst.graph().node(n)));
  }
  const auto rec = trace::record_script(inst, script);
  for (auto _ : state) {
    const auto r = checker::find_realization(
        inst, Model::parse("R1O"), rec.trace,
        trace::MatchKind::kRepetition);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("A.4 repetition-in-R1O (impossibility proof)");
}
BENCHMARK(BM_TargetedSearchA4)->Unit(benchmark::kMicrosecond);

void BM_TargetedSearchA3Exact(benchmark::State& state) {
  const spp::Instance inst = spp::example_a3();
  model::ActivationScript script;
  for (const char* n : {"d", "b", "u", "v", "a", "u", "v", "s", "s", "s"}) {
    script.push_back(model::read_every_one_step(inst, inst.graph().node(n)));
  }
  const auto rec = trace::record_script(inst, script);
  for (auto _ : state) {
    const auto r = checker::find_realization(
        inst, Model::parse("R1O"), rec.trace, trace::MatchKind::kExact);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("A.3 exact-in-R1O (impossibility proof)");
}
BENCHMARK(BM_TargetedSearchA3Exact)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Memory metrics ride along in JSON mode: one BAD-GADGET exploration
  // stamps its tracked-byte peak and bytes/state into the document
  // (deterministic — byte estimates come from element counts), where
  // bench-diff's --mem-threshold gate picks them up.
  return commroute::bench::gbench_main(
      "perf_checker", "states_per_sec", argc, argv,
      [](commroute::bench::BenchJson& out) {
        using namespace commroute;
        const auto r = checker::explore(spp::bad_gadget(),
                                        model::Model::parse("R1O"),
                                        {.max_channel_length = 3});
        out.set_metric("tracked_peak_bytes",
                       static_cast<double>(r.tracked_peak_bytes));
        out.set_metric("checker_bytes_per_state", r.bytes_per_state());
        out.set_metric("checker_states",
                       static_cast<double>(r.states));
      });
}
