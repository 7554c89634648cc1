// Pinned default-mode observability bytes. Each test runs one executor
// (engine::run, sim::run, checker::explore, study::run_campaign) with its
// observability attached and compares an FNV-1a digest of everything it
// publishes: event lines, Registry::to_json(), and the result fields built
// beside them (node_activations, the trace's size and change count, the
// ring recording, SimResult::to_json(), ExploreResult::summary() and
// witnesses, the campaign CSV). The digests were taken from the library
// as it stood before its unused observability options (sketch budget,
// step events, run progress, obs-memory accounting, time-based
// heartbeats) were deleted; they guard that deletion and any later
// restructuring of the obs plumbing.
//
// What varies between runs is stripped before digesting: any key
// containing "wall", elapsed_ms, the ThreadPool's pool.* registry
// entries, registry histograms of microsecond timings (all but the
// virtual-time sim.virtual_time_us), the recording header's stamps
// (creation time, git describe, argv) and CampaignRow::wall_ms.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "engine/scheduler.hpp"
#include "model/script_io.hpp"
#include "obs/json.hpp"
#include "sim/sim_runner.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"
#include "trace/recording_io.hpp"

namespace commroute {
namespace {

class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      mix(static_cast<unsigned char>(c));
    }
    mix('\n');
  }
  void add(std::uint64_t n) { add(std::to_string(n)); }
  std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char c) { h_ = (h_ ^ c) * 0x100000001b3ULL; }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

bool is_run_specific(std::string_view key, const obs::JsonValue& value) {
  if (key.find("wall") != std::string_view::npos || key == "elapsed_ms" ||
      key.starts_with("pool.")) {
    return true;
  }
  if (key == "created_unix_ms" || key == "git" || key == "argv") {
    return true;  // recording header stamps
  }
  const bool histogram = value.is_object() && value.find("buckets") != nullptr;
  return histogram && key.ends_with("_us") && key != "sim.virtual_time_us";
}

void strip_run_specific(obs::JsonValue& value) {
  if (value.is_object()) {
    auto& members = std::get<obs::JsonValue::Object>(value.value);
    std::erase_if(members, [](const auto& member) {
      return is_run_specific(member.first, member.second);
    });
    for (auto& member : members) {
      strip_run_specific(member.second);
    }
  } else if (value.is_array()) {
    for (obs::JsonValue& item : std::get<obs::JsonValue::Array>(value.value)) {
      strip_run_specific(item);
    }
  }
}

/// One JSON document (an event line, a registry dump, a recording line)
/// with its run-specific members removed.
std::string stable_json(const std::string& json) {
  std::optional<obs::JsonValue> parsed = obs::json_parse(json);
  EXPECT_TRUE(parsed.has_value()) << json;
  if (!parsed.has_value()) {
    return json;
  }
  strip_run_specific(*parsed);
  return obs::json_render(*parsed);
}

void add_json_lines(Digest& digest, const std::vector<std::string>& lines) {
  digest.add(lines.size());
  for (const std::string& line : lines) {
    digest.add(stable_json(line));
  }
}

void add_jsonl(Digest& digest, const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    lines.push_back(text.substr(start, end - start));
    start = end == std::string::npos ? text.size() : end + 1;
  }
  add_json_lines(digest, lines);
}

struct Observed {
  obs::MemorySink sink;
  obs::Registry metrics;

  obs::Instrumentation handles() {
    obs::Instrumentation instr;
    instr.sink = &sink;
    instr.metrics = &metrics;
    return instr;
  }

  void add_to(Digest& digest) const {
    add_json_lines(digest, sink.lines());
    digest.add(stable_json(metrics.to_json()));
  }
};

struct Pin {
  const char* config;
  std::uint64_t digest;
};

TEST(ObsGolden, EngineRoundRobinOnBadGadget) {
  const spp::Instance inst = spp::bad_gadget();
  const Pin pins[] = {{"R1O", 15408250098029073637ULL},
                      {"REA", 443485321240987023ULL},
                      {"UMS", 18414568215129165022ULL},
                      {"U1O", 12135964172153707988ULL}};
  for (const Pin& pin : pins) {
    const model::Model m = model::Model::parse(pin.config);
    engine::RoundRobinScheduler scheduler(m, inst);
    Observed observed;
    engine::RunOptions options;
    options.max_steps = 3000;
    options.enforce_model = m;
    options.obs = observed.handles();
    options.causality = true;
    options.flight.mode = engine::FlightRecorderOptions::Mode::kRing;
    options.flight.ring_capacity = 32;
    const engine::RunResult result = engine::run(inst, scheduler, options);

    Digest digest;
    observed.add_to(digest);
    for (const std::uint64_t n : result.node_activations) {
      digest.add(n);
    }
    digest.add(result.trace.size());
    digest.add(result.trace.change_count());
    ASSERT_TRUE(result.recording.has_value());
    add_jsonl(digest, trace::recording_to_jsonl(inst, *result.recording));
    EXPECT_EQ(digest.value(), pin.digest) << pin.config;
  }
}

TEST(ObsGolden, SimOnBadGadget) {
  const spp::Instance inst = spp::bad_gadget();
  const Pin pins[] = {{"REA", 9962829429379103502ULL},
                      {"RMS", 16278777129237346941ULL},
                      {"U1O", 16165818414831081096ULL}};
  for (const Pin& pin : pins) {
    Observed observed;
    sim::SimOptions options;
    options.model = model::Model::parse(pin.config);
    options.link.jitter_us = 400;
    if (!options.model.reliable()) {
      options.link.loss_prob = 0.1;
    }
    options.seed = 9;
    options.obs = observed.handles();
    options.causality = true;
    const sim::SimResult result = sim::run(inst, options);

    Digest digest;
    observed.add_to(digest);
    digest.add(result.to_json());
    EXPECT_EQ(digest.value(), pin.digest) << pin.config;
  }
}

TEST(ObsGolden, CheckerOnDisagree) {
  const spp::Instance inst = spp::disagree();
  const Pin pins[] = {{"RMS", 2359840804894886294ULL},
                      {"UEA", 16807616917443784554ULL},
                      {"R1O", 15544205541867415001ULL}};
  for (const Pin& pin : pins) {
    for (const std::size_t threads : {1, 4}) {
      Observed observed;
      checker::ExploreOptions options;
      options.max_channel_length = 3;
      options.heartbeat_every = 100;
      options.extract_witness = true;
      options.threads = threads;
      options.obs = observed.handles();
      const checker::ExploreResult result =
          checker::explore(inst, model::Model::parse(pin.config), options);

      // The checker.threads gauge is the one width-dependent value.
      observed.metrics.gauge("checker.threads").set(0);
      Digest digest;
      observed.add_to(digest);
      digest.add(result.summary());
      digest.add(model::format_script(inst, result.witness_prefix));
      digest.add(model::format_script(inst, result.witness_cycle));
      EXPECT_EQ(digest.value(), pin.digest)
          << pin.config << " threads=" << threads;
    }
  }
}

TEST(ObsGolden, CampaignOverGadgets) {
  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance good = spp::good_gadget();
  constexpr std::uint64_t kPinned = 1383561852261223873ULL;
  for (const std::size_t threads : {1, 2}) {
    Observed observed;
    study::CampaignSpec spec;
    spec.instances = {{"BAD-GADGET", &bad}, {"GOOD-GADGET", &good}};
    spec.models = model::Model::all();
    spec.schedulers = {study::SchedulerKind::kRoundRobin,
                       study::SchedulerKind::kRandomFair,
                       study::SchedulerKind::kSim};
    spec.seeds = 2;
    spec.max_steps = 400;
    spec.causality = true;
    spec.threads = threads;
    spec.obs = observed.handles();
    study::CampaignResult result = study::run_campaign(spec);

    Digest digest;
    observed.add_to(digest);
    for (study::CampaignRow& row : result.rows) {
      row.wall_ms = 0.0;
    }
    digest.add(result.to_csv());
    EXPECT_EQ(digest.value(), kPinned) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace commroute
