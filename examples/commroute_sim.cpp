// commroute_sim: a small command-line simulator.
//
//   commroute_sim --list
//   commroute_sim <gadget|instance-file> <model> [scheduler] [opts]
//
//     gadget        DISAGREE | EXAMPLE-A2 .. EXAMPLE-A5 | BAD-GADGET |
//                   GOOD-GADGET (see --list), or a path to an instance
//                   file in the spp/serialize.hpp text format
//     model         one of the 24 names (R1O .. UEA)
//     scheduler     rr (default) | random | event | sync
//     opts          --steps N      step budget        (default 20000)
//                   --seed S       random seed        (default 1)
//                   --drop P       drop probability   (default 0.2, U only)
//                   --trace        print the path-assignment trace
//                   --replay FILE  play an activation script (see
//                                  docs/FORMAT.md and model/script_io.hpp)
//                   --loop-from N  with --replay: loop the script suffix
//                   --record FILE  flight-record the full run to FILE
//                                  (inspect with commroute-obs replay /
//                                  flaps / oscillation / causality /
//                                  critical-path)
//                   --chrome-trace FILE
//                                  write a Perfetto trace of the run with
//                                  causal flow arrows between steps (open
//                                  in ui.perfetto.dev)
//
// Examples:
//   commroute_sim DISAGREE RMS
//   commroute_sim BAD-GADGET REA rr --steps 500
//   commroute_sim mynet.spp U1O random --seed 7 --drop 0.4 --trace
//   commroute_sim DISAGREE R1O --replay witness.acts --loop-from 5
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "engine/runner.hpp"
#include "model/script_io.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/meta.hpp"
#include "spp/gadgets.hpp"
#include "spp/serialize.hpp"

namespace {

using namespace commroute;

int usage() {
  std::cerr << "usage: commroute_sim --list | <gadget|file> <model> "
               "[rr|random|event|sync] [--steps N] [--seed S] [--drop P] "
               "[--trace] [--record FILE] [--chrome-trace FILE]\n";
  return 2;
}

spp::Instance load_instance(const std::string& name) {
  for (const auto& [gadget_name, inst] : spp::all_gadgets()) {
    if (gadget_name == name) {
      return inst;
    }
  }
  std::ifstream file(name);
  if (!file) {
    throw PreconditionError("no such gadget or file: " + name);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return spp::parse_instance(text.str());
}

}  // namespace

int main(int argc, char** argv) {
  commroute::obs::set_process_argv(argc, argv);
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return usage();
  }
  if (args[0] == "--list") {
    for (const auto& [name, inst] : spp::all_gadgets()) {
      std::cout << name << "  (" << inst.node_count() << " nodes, "
                << inst.permitted_path_count() << " permitted paths)\n";
    }
    return 0;
  }
  if (args.size() < 2) {
    return usage();
  }

  try {
    const spp::Instance instance = load_instance(args[0]);
    const model::Model m = model::Model::parse(args[1]);
    std::string scheduler_name = "rr";
    std::uint64_t steps = 20000, seed = 1;
    double drop = 0.2;
    bool show_trace = false;
    std::string replay_file, record_file, chrome_trace_file;
    std::optional<std::size_t> loop_from;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--steps" && i + 1 < args.size()) {
        steps = std::stoull(args[++i]);
      } else if (args[i] == "--seed" && i + 1 < args.size()) {
        seed = std::stoull(args[++i]);
      } else if (args[i] == "--drop" && i + 1 < args.size()) {
        drop = std::stod(args[++i]);
      } else if (args[i] == "--replay" && i + 1 < args.size()) {
        replay_file = args[++i];
      } else if (args[i] == "--record" && i + 1 < args.size()) {
        record_file = args[++i];
      } else if (args[i] == "--chrome-trace" && i + 1 < args.size()) {
        chrome_trace_file = args[++i];
      } else if (args[i] == "--loop-from" && i + 1 < args.size()) {
        loop_from = std::stoull(args[++i]);
      } else if (args[i] == "--trace") {
        show_trace = true;
      } else if (i == 2) {
        scheduler_name = args[i];
      } else {
        return usage();
      }
    }

    std::unique_ptr<engine::Scheduler> scheduler;
    engine::RunOptions options;
    options.max_steps = steps;
    if (!replay_file.empty()) {
      std::ifstream file(replay_file);
      if (!file) {
        std::cerr << "cannot open script: " << replay_file << "\n";
        return 1;
      }
      std::ostringstream text;
      text << file.rdbuf();
      const model::ActivationScript script =
          model::parse_script(instance, text.str());
      scheduler = std::make_unique<engine::ScriptedScheduler>(script,
                                                              loop_from);
      options.enforce_model = m;
      scheduler_name = "replay(" + replay_file + ")";
    } else if (scheduler_name == "rr") {
      scheduler =
          std::make_unique<engine::RoundRobinScheduler>(m, instance);
      options.enforce_model = m;
    } else if (scheduler_name == "random") {
      scheduler = std::make_unique<engine::RandomFairScheduler>(
          m, instance, Rng(seed),
          engine::RandomFairOptions{.drop_prob =
                                        m.reliable() ? 0.0 : drop,
                                    .sweep_period = 16});
      options.enforce_model = m;
    } else if (scheduler_name == "event") {
      if (!engine::EventDrivenScheduler::allows(m)) {
        std::cerr << "the event-driven scheduler needs a w1O or wMO model\n";
        return 2;
      }
      scheduler = std::make_unique<engine::EventDrivenScheduler>(instance);
      options.enforce_model = m;
    } else if (scheduler_name == "sync") {
      scheduler =
          std::make_unique<engine::SynchronousScheduler>(m, instance);
      // synchronous steps are multi-node: skip single-node enforcement
    } else {
      return usage();
    }

    if (!record_file.empty()) {
      options.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
      options.flight.flush_path = record_file;
      options.flight.flush_always = true;
      options.flight.instance_name = args[0];
      options.flight.scheduler = scheduler_name;
      options.flight.seed = seed;
    }

    obs::SpanCollector spans;
    if (!chrome_trace_file.empty()) {
      options.obs.spans = &spans;
      options.causality = true;  // flow arrows need the message DAG
    }

    std::cout << instance.to_string() << "\n";
    const engine::RunResult result =
        engine::run(instance, *scheduler, options);

    std::cout << "model " << m.name() << ", scheduler " << scheduler_name
              << ": " << engine::to_string(result.outcome) << " after "
              << result.steps << " steps\n";
    std::cout << "messages sent " << result.messages_sent << ", dropped "
              << result.messages_dropped << ", max queue "
              << result.max_channel_occupancy << ", max read gap "
              << result.max_attempt_gap << "\n";
    if (result.outcome == engine::Outcome::kOscillating) {
      std::cout << "provable cycle: length " << result.cycle_length
                << " starting at step " << result.cycle_start << "\n";
    }
    std::cout << "final assignment:";
    for (NodeId v = 0; v < instance.node_count(); ++v) {
      std::cout << " " << instance.graph().name(v) << "="
                << instance.path_name(result.final_assignment[v]);
    }
    std::cout << "\n";
    if (show_trace) {
      std::cout << "\n" << result.trace.to_string(instance);
    }
    if (!result.recording_path.empty()) {
      std::cout << "recording written to " << result.recording_path
                << " (inspect with commroute-obs replay/flaps/"
                   "oscillation/causality/critical-path)\n";
    }
    if (!chrome_trace_file.empty()) {
      std::ofstream trace_out(chrome_trace_file, std::ios::trunc);
      if (!trace_out) {
        std::cerr << "cannot write " << chrome_trace_file << "\n";
        return 1;
      }
      trace_out << obs::chrome_trace_json(spans, *result.causality)
                << "\n";
      std::cout << "chrome trace written to " << chrome_trace_file
                << " (" << result.critical_path_len
                << "-step critical path; open in ui.perfetto.dev)\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::logic_error& e) {  // std::stoull / std::stod
    std::cerr << "error: malformed number (" << e.what() << ")\n";
    return 1;
  }
}
