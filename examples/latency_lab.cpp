// latency_lab: virtual-time simulation runs and latency/loss sweeps.
//
//   latency_lab <gadget|instance-file> <model> [opts]
//
//     gadget        DISAGREE | BAD-GADGET | GOOD-GADGET | ... (same
//                   loader as commroute_sim), or an instance file in the
//                   spp/serialize.hpp text format
//     model         one of the 24 names (R1O .. UEA)
//     opts          --seed S        sampling seed            (default 1)
//                   --steps N       step budget              (default 20000)
//                   --latency US    base link latency        (default 1000)
//                   --jitter US     uniform jitter width     (default 0)
//                   --dist D        fixed | uniform | exponential
//                   --loss P        loss probability (U models only)
//                   --burst M       mean loss-burst length   (default 1)
//                   --proc US       node processing delay    (default 100)
//                   --mrai US       per-node batching timer  (default 0)
//                   --max-virtual US  virtual-time budget    (default off)
//                   --record FILE   flight-record the induced sequence
//                                   (replay with commroute-obs replay)
//                   --causality     build the happens-before DAG and
//                                   report the critical path (in steps
//                                   and virtual us)
//                   --json          print the sim_summary JSON object
//                                   (byte-identical for a fixed seed)
//                   --sweep-latency A,B,..  campaign over latency points
//                   --sweep-loss P,Q,..     campaign over loss points
//                   --seeds N       seeds per sweep point    (default 3)
//                   --threads N     sweep worker threads     (default 0=auto)
//
// Without --sweep-* flags one timed run executes and its virtual-time
// summary is printed; all output is deterministic for a fixed seed (no
// wall-clock fields). With sweep flags a study::run_campaign sweep over
// the latency x loss cross product runs and its CSV goes to stdout.
//
// Examples:
//   latency_lab BAD-GADGET U1O --loss 0.2 --seed 7 --json
//   latency_lab BAD-GADGET UMS --sweep-latency 100,1000,10000
//       --sweep-loss 0,0.1,0.3 --seeds 5 --threads 4
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/meta.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "spp/serialize.hpp"
#include "study/campaign.hpp"

namespace {

using namespace commroute;

int usage() {
  std::cerr
      << "usage: latency_lab <gadget|file> <model> [--seed S] [--steps N]\n"
         "         [--latency US] [--jitter US] [--dist fixed|uniform|"
         "exponential]\n"
         "         [--loss P] [--burst M] [--proc US] [--mrai US]\n"
         "         [--max-virtual US] [--record FILE] [--causality] "
         "[--json]\n"
         "         [--sweep-latency A,B,..] [--sweep-loss P,Q,..]\n"
         "         [--seeds N] [--threads N]\n";
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

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream in(s);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (!part.empty()) {
      parts.push_back(part);
    }
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  commroute::obs::set_process_argv(argc, argv);
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 2) {
    return usage();
  }

  try {
    const spp::Instance instance = load_instance(args[0]);
    const model::Model m = model::Model::parse(args[1]);

    sim::SimOptions opts;
    opts.model = m;
    bool json = false;
    std::string record_file;
    std::vector<std::uint64_t> sweep_latency;
    std::vector<double> sweep_loss;
    std::uint64_t seeds = 3;
    std::size_t threads = 0;

    for (std::size_t i = 2; i < args.size(); ++i) {
      const auto need = [&](const char* flag) {
        if (i + 1 >= args.size()) {
          throw PreconditionError(std::string(flag) + " needs a value");
        }
        return args[++i];
      };
      if (args[i] == "--seed") {
        opts.seed = std::stoull(need("--seed"));
      } else if (args[i] == "--steps") {
        opts.max_steps = std::stoull(need("--steps"));
      } else if (args[i] == "--latency") {
        opts.link.latency_us = std::stoull(need("--latency"));
      } else if (args[i] == "--jitter") {
        opts.link.jitter_us = std::stoull(need("--jitter"));
      } else if (args[i] == "--dist") {
        opts.link.dist = sim::parse_latency_dist(need("--dist"));
      } else if (args[i] == "--loss") {
        opts.link.loss_prob = std::stod(need("--loss"));
      } else if (args[i] == "--burst") {
        opts.link.burst_mean = std::stod(need("--burst"));
      } else if (args[i] == "--proc") {
        opts.node.proc_delay_us = std::stoull(need("--proc"));
      } else if (args[i] == "--mrai") {
        opts.node.mrai_us = std::stoull(need("--mrai"));
      } else if (args[i] == "--max-virtual") {
        opts.max_virtual_us = std::stoull(need("--max-virtual"));
      } else if (args[i] == "--record") {
        record_file = need("--record");
      } else if (args[i] == "--causality") {
        opts.causality = true;
      } else if (args[i] == "--json") {
        json = true;
      } else if (args[i] == "--sweep-latency") {
        for (const std::string& p : split_list(need("--sweep-latency"))) {
          sweep_latency.push_back(std::stoull(p));
        }
      } else if (args[i] == "--sweep-loss") {
        for (const std::string& p : split_list(need("--sweep-loss"))) {
          sweep_loss.push_back(std::stod(p));
        }
      } else if (args[i] == "--seeds") {
        seeds = std::stoull(need("--seeds"));
      } else if (args[i] == "--threads") {
        threads = std::stoull(need("--threads"));
      } else {
        return usage();
      }
    }

    if (!sweep_latency.empty() || !sweep_loss.empty()) {
      // Sweep mode: latency x loss cross product as kSim campaign rows.
      if (sweep_latency.empty()) {
        sweep_latency.push_back(opts.link.latency_us);
      }
      if (sweep_loss.empty()) {
        sweep_loss.push_back(opts.link.loss_prob);
      }
      study::CampaignSpec spec;
      spec.instances.push_back({args[0], &instance});
      spec.models.push_back(m);
      spec.schedulers.push_back(study::SchedulerKind::kSim);
      spec.seeds = seeds;
      spec.max_steps = opts.max_steps;
      spec.sim_node = opts.node;
      spec.causality = opts.causality;
      spec.threads = threads;
      for (const std::uint64_t latency : sweep_latency) {
        for (const double loss : sweep_loss) {
          sim::LinkModel point = opts.link;
          point.latency_us = latency;
          point.loss_prob = loss;
          spec.sim_points.push_back(point);
        }
      }
      const study::CampaignResult result = study::run_campaign(spec);
      std::cout << result.to_csv();
      return 0;
    }

    if (!record_file.empty()) {
      opts.flight.mode = engine::FlightRecorderOptions::Mode::kFull;
      opts.flight.flush_path = record_file;
      opts.flight.flush_always = true;
      opts.flight.instance_name = args[0];
    }

    const sim::SimResult result = sim::run(instance, opts);
    if (json) {
      std::cout << result.to_json() << "\n";
    } else {
      std::cout << "model " << m.name() << ", link "
                << opts.link.describe() << ": "
                << engine::to_string(result.run.outcome) << " after "
                << result.run.steps << " steps / "
                << result.virtual_end_us << " virtual us\n";
      std::cout << "last assignment change at " << result.last_change_us
                << " us; events " << result.events_processed
                << ", delivered " << result.messages_delivered
                << ", lost " << result.messages_lost << "\n";
      std::cout << "last flap per node (us):";
      for (NodeId v = 0; v < instance.node_count(); ++v) {
        std::cout << " " << instance.graph().name(v) << "="
                  << result.last_flap_us[v];
      }
      std::cout << "\n";
    }
    if (!json && opts.causality) {
      std::cout << "critical path: " << result.run.critical_path_len
                << " activation(s), " << result.critical_path_us
                << " virtual us (latency lower bound)\n";
    }
    if (!result.run.recording_path.empty()) {
      std::cout << "recording written to " << result.run.recording_path
                << " (verify with commroute-obs replay; dissect with "
                   "commroute-obs critical-path)\n";
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
