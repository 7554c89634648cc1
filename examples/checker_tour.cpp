// Tour of the verification toolkit: exhaustive checking, witness
// extraction and replay, targeted realization search, and instance
// minimization — on one small custom network.
//
//   $ ./checker_tour
//   $ ./checker_tour --trace tour.json   # span trace for Perfetto
//   $ ./checker_tour --witness osc.recording.jsonl
//                                        # export the found oscillation
//                                        # witness as a recording
//   $ ./checker_tour --threads 8         # parallel exploration (same
//                                        # bytes at any width)
//   $ ./checker_tour --searcher dfs      # bfs | dfs | random | priority
#include <iostream>
#include <stdexcept>
#include <string>

#include "checker/explorer.hpp"
#include "checker/minimize.hpp"
#include "checker/targeted.hpp"
#include "engine/runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/meta.hpp"
#include "spp/builder.hpp"
#include "support/error.hpp"
#include "trace/recording.hpp"
#include "trace/recording_io.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace commroute;
  using model::Model;

  obs::set_process_argv(argc, argv);
  std::string trace_path, witness_path;
  std::size_t threads = 1;
  checker::SearcherKind searcher = checker::SearcherKind::kBFS;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::string(argv[i]) == "--witness" && i + 1 < argc) {
      witness_path = argv[++i];
    } else if (std::string(argv[i]) == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (std::string(argv[i]) == "--searcher" && i + 1 < argc) {
      searcher = checker::parse_searcher_kind(argv[++i]);
    }
  }
  obs::SpanCollector spans;
  obs::Instrumentation tour_obs;
  if (!trace_path.empty()) {
    tour_obs.spans = &spans;
  }

  // DISAGREE with a decoy: x has a third, useless route through w.
  spp::InstanceBuilder b("d");
  b.edge("x", "d").edge("y", "d").edge("x", "y");
  b.edge("w", "d").edge("w", "x");
  b.prefer("x", {"xyd", "xd", "xwd"});
  b.prefer("y", {"yxd", "yd"});
  b.prefer("w", {"wd"});
  const spp::Instance inst = b.build();
  std::cout << inst.to_string() << "\n";

  // 1. Exhaustive checking: can it oscillate under R1O? Under REA?
  checker::ExploreOptions opts{.max_channel_length = 3,
                               .extract_witness = true};
  opts.obs = tour_obs;
  opts.threads = threads;
  opts.searcher = searcher;
  const auto weak = checker::explore(inst, Model::parse("R1O"), opts);
  checker::ExploreOptions strong_opts{.max_channel_length = 3};
  strong_opts.obs = tour_obs;
  strong_opts.threads = threads;
  strong_opts.searcher = searcher;
  const auto strong = checker::explore(inst, Model::parse("REA"),
                                       strong_opts);
  std::cout << "R1O: " << weak.summary() << "\n";
  std::cout << "REA: " << strong.summary() << "\n\n";

  // 2. Replay the discovered oscillation as a concrete schedule.
  if (weak.oscillation_found) {
    model::ActivationScript script = weak.witness_prefix;
    const std::size_t loop_from = script.size();
    script.insert(script.end(), weak.witness_cycle.begin(),
                  weak.witness_cycle.end());
    engine::ScriptedScheduler sched(script, loop_from);
    engine::RunOptions replay_opts{.max_steps = 5 * script.size() + 50,
                                   .enforce_model = Model::parse("R1O")};
    replay_opts.obs = tour_obs;
    const auto run = engine::run(inst, sched, replay_opts);
    std::cout << "Replaying the checker's witness ("
              << weak.witness_prefix.size() << " prefix + "
              << weak.witness_cycle.size() << " cycle steps): "
              << engine::to_string(run.outcome) << ", cycle length "
              << run.cycle_length << "\n\n";

    // Export the witness as a durable recording: same JSONL schema as
    // the flight recorder, so commroute-obs replay/flaps/oscillation all
    // work on checker output too.
    if (!witness_path.empty()) {
      trace::RecordingDoc doc = trace::record_witness(
          inst, weak.witness_prefix, weak.witness_cycle);
      doc.meta.instance_name = "disagree-with-decoy";
      doc.meta.model = "R1O";
      trace::save_recording(witness_path, inst, doc);
      std::cout << "Wrote the oscillation witness to " << witness_path
                << " (inspect with commroute-obs)\n\n";
    }
  }

  // 3. Targeted search: is the REA converged trace exactly realizable in
  //    R1O? (Here yes — this instance has no Fig. 7-style trap.)
  {
    engine::RoundRobinScheduler sched(Model::parse("REA"), inst);
    engine::RunOptions run_opts{.enforce_model = Model::parse("REA")};
    run_opts.obs = tour_obs;
    const auto run = engine::run(inst, sched, run_opts);
    trace::Trace target = run.trace;
    const auto exact = checker::find_realization(
        inst, Model::parse("R1O"), target, trace::MatchKind::kExact);
    std::cout << "REA round-robin trace exactly realizable in R1O: "
              << exact.summary() << "\n\n";
  }

  // 4. Minimization: strip the decoy route, keep the oscillation.
  checker::ExploreOptions minimize_opts{.max_channel_length = 3};
  minimize_opts.obs = tour_obs;
  const auto minimized = checker::minimize_oscillating_instance(
      inst, Model::parse("R1O"), minimize_opts);
  std::cout << "Minimized oscillating core (removed "
            << minimized.removed_paths << " path(s)):\n"
            << minimized.instance.to_string();
  std::cout << "\nThe decoy xwd is gone; what remains is DISAGREE plus "
               "spectators — the canonical conflict this library is "
               "about.\n";

  if (!trace_path.empty()) {
    obs::write_chrome_trace(spans, trace_path);
    std::cout << "\nWrote " << spans.size() << " span(s) to " << trace_path
              << " — open in chrome://tracing or ui.perfetto.dev\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const commroute::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::logic_error& e) {  // std::stoul: not a number
    std::cerr << "error: malformed number (" << e.what() << ")\n";
    return 1;
  }
}
