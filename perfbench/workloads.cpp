// The three workloads. Each one builds its inputs from the seed in
// setup(), runs and checks its operations in pass(), and runs the same
// operations through the real program and the replicas in traced().
#include <cstdio>
#include <deque>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "spp/gadgets.hpp"
#include "spp/random_gen.hpp"
#include "spp/solver.hpp"

namespace perfbench {

namespace {

const model::Model kR1O = model::Model::parse("R1O");

// ---------------------------------------------------- explore-badgadget

/// BAD-GADGET under R1O, channel bound 3, serial BFS: the full
/// exploration the ROADMAP's checker headline is about. The input is the
/// paper's gadget, so the seed is unused.
class ExploreBadGadget final : public Workload {
 public:
  void setup() override {
    instance_.emplace(spp::bad_gadget());
    // Warm-up: a bound-1 exploration of the same gadget.
    checker::ExploreOptions warm;
    warm.max_channel_length = 1;
    checker::explore(*instance_, kR1O, warm);
  }

  PassResult pass() override {
    const Clock start = Clock::now();
    const checker::ExploreResult result = explore();
    return PassResult{1, failed(result), {since(start)}};
  }

  PassResult traced(Layers& layers) override {
    const Clock start = Clock::now();
    const checker::ExploreResult result = explore();
    const Elapsed time = since(start);
    layers.checker_explore_us += time.cpu_s * 1e6;
    layers.program_s += time.cpu_s;
    const BfsResult replica =
        replica_bfs(*instance_, kR1O, kChannelBound, layers);
    add_explore("explore-badgadget", result, replica, layers);
    return PassResult{1, failed(result), {}};
  }

 private:
  static constexpr std::size_t kChannelBound = 3;

  checker::ExploreResult explore() const {
    checker::ExploreOptions options;
    options.max_channel_length = kChannelBound;
    options.threads = 1;
    return checker::explore(*instance_, kR1O, options);
  }

  /// The verdict and counts of the full exploration, pinned.
  static std::uint64_t failed(const checker::ExploreResult& r) {
    const bool ok = r.oscillation_found && r.states == 226790 &&
                    r.transitions == 2583720;
    return ok ? 0 : 1;
  }

  std::optional<spp::Instance> instance_;
};

// ---------------------------------------------------------- converge-400

/// Sixteen seeded 400-node shortest-path instances, each run to
/// convergence twice: engine::run under R1O round-robin and sim::run under
/// REA. One instance moves its step counts and per-step cost by 10-15%
/// with the seed; sixteen average that out, and each of their runs is
/// short enough to be timed in many passes.
class Converge400 final : public Workload {
 public:
  explicit Converge400(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    const Clock start = Clock::now();
    Rng rng(seed_);
    spp::RandomInstanceParams params;
    params.nodes = 400;
    params.extra_edge_prob = 0.005;
    params.max_paths_per_node = 8;
    instances_.clear();
    for (std::size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(spp::random_shortest(rng, params));
    }
    generate_s_ = since(start).cpu_s;
    first_summaries_.assign(kInstances, "");
  }

  PassResult pass() override {
    PassResult pass;
    for (std::size_t i = 0; i < kInstances; ++i) {
      Clock start = Clock::now();
      const engine::RunResult run = engine_run(instances_[i]);
      pass.parts.push_back(since(start));
      start = Clock::now();
      const sim::SimResult sim = sim::run(instances_[i], sim_options(i));
      pass.parts.push_back(since(start));
      pass.attempted += 2;
      pass.failed += failed(i, run, sim);
    }
    return pass;
  }

  PassResult traced(Layers& layers) override {
    PassResult pass;
    layers.spp_generate_s += generate_s_;
    for (std::size_t i = 0; i < kInstances; ++i) {
      const spp::Instance& instance = instances_[i];
      const std::string label = "converge-400 #" + std::to_string(i);
      add_generated(instance, layers);
      const Clock start = Clock::now();
      const engine::RunResult run = engine_run(instance);
      const double run_s = since(start).cpu_s;
      engine::RoundRobinScheduler scheduler(kR1O, instance);
      const LoopResult replica =
          replica_run(instance, scheduler, kMaxSteps, false, layers);
      add_run(label, run, run_s, replica, layers);
      layers.program_s += run_s;

      const sim::SimResult sim =
          traced_sim(label, instance, sim_options(i), layers);
      pass.attempted += 2;
      pass.failed += failed(i, run, sim);
    }
    return pass;
  }

 private:
  static constexpr std::size_t kInstances = 16;
  static constexpr std::uint64_t kMaxSteps = 10'000'000;

  static engine::RunResult engine_run(const spp::Instance& instance) {
    engine::RoundRobinScheduler scheduler(kR1O, instance);
    engine::RunOptions options;
    options.max_steps = kMaxSteps;
    options.detect_cycles = false;
    options.record_trace = false;
    return engine::run(instance, scheduler, options);
  }

  sim::SimOptions sim_options(std::size_t i) const {
    return converge_sim_options(Rng::fork_seed(seed_, i));
  }

  /// Both runs converge to the same stable assignment, and the sim's
  /// summary repeats byte for byte from pass to pass.
  std::uint64_t failed(std::size_t i, const engine::RunResult& run,
                       const sim::SimResult& sim) {
    const bool engine_ok =
        run.outcome == engine::Outcome::kConverged &&
        spp::is_stable(instances_[i], run.final_assignment);
    const std::string summary = sim.to_json();
    if (first_summaries_[i].empty()) {
      first_summaries_[i] = summary;
    }
    const bool sim_ok = sim.run.outcome == engine::Outcome::kConverged &&
                        sim.run.final_assignment == run.final_assignment &&
                        summary == first_summaries_[i];
    return (engine_ok ? 0 : 1) + (sim_ok ? 0 : 1);
  }

  std::uint64_t seed_;
  std::vector<spp::Instance> instances_;
  double generate_s_ = 0.0;
  std::vector<std::string> first_summaries_;
};

// ----------------------------------------------------------- sweep-small

/// FNV-1a of the DISAGREE + Example A.4 x 24-model matrix CSV at channel
/// bound 3 (seed-independent, so pinned).
constexpr std::uint64_t kMatrixCsvDigest = 357551610186116548ULL;

std::vector<std::string> csv_lines(const std::string& csv) {
  std::vector<std::string> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

/// Many small jobs: a serial campaign over seeded 12-node random_policy
/// instances x 24 models x {round-robin, random-fair} with obs attached,
/// and the checker matrix of DISAGREE and Example A.4 x 24 models.
class SweepSmall final : public Workload {
 public:
  explicit SweepSmall(std::uint64_t seed) : seed_(seed) {
    matrix_.instances = {{"DISAGREE", &disagree_}, {"EXAMPLE-A4", &a4_}};
    matrix_.explore.max_channel_length = 3;
    matrix_.explore.threads = 1;
  }

  void setup() override {
    const Clock start = Clock::now();
    Rng rng(seed_);
    spp::RandomInstanceParams params;
    params.nodes = 12;
    instances_.clear();
    campaign_ = study::CampaignSpec{};
    for (std::size_t i = 0; i < kInstances; ++i) {
      instances_.push_back(spp::random_policy(rng, params));
      campaign_.instances.emplace_back("policy-" + std::to_string(i),
                                       &instances_.back());
    }
    generate_s_ = since(start).cpu_s;
    campaign_.models = model::Model::all();
    campaign_.schedulers = {study::SchedulerKind::kRoundRobin,
                            study::SchedulerKind::kRandomFair};
    campaign_.seeds = 1;
    campaign_.max_steps = kMaxSteps;
    campaign_.threads = 1;
  }

  /// The campaign one instance at a time and the matrix one cell at a
  /// time (the same rows and cells, in the same order), so that each
  /// short part's fastest pass can be taken.
  PassResult pass() override {
    PassResult pass;
    std::uint64_t events = 0;
    std::uint64_t event_bytes = 0;
    study::CampaignResult campaign;
    for (const auto& named : campaign_.instances) {
      study::CampaignSpec one = campaign_;
      one.instances = {named};
      const Clock start = Clock::now();
      study::CampaignResult part =
          run_attached_campaign(one, events, event_bytes);
      pass.parts.push_back(since(start));
      campaign.rows.insert(campaign.rows.end(), part.rows.begin(),
                           part.rows.end());
    }
    study::CheckerMatrixResult matrix;
    for (const auto& named : matrix_.instances) {
      for (const model::Model& m : model::Model::all()) {
        study::CheckerMatrixSpec one = matrix_;
        one.instances = {named};
        one.models = {m};
        const Clock start = Clock::now();
        study::CheckerMatrixResult cell = study::run_checker_matrix(one);
        pass.parts.push_back(since(start));
        matrix.cells.push_back(std::move(cell.cells.front()));
      }
    }
    pass.attempted = campaign.rows.size() + matrix.cells.size();
    pass.failed = failed(campaign, matrix);
    return pass;
  }

  PassResult traced(Layers& layers) override {
    layers.spp_generate_s += generate_s_;
    for (const spp::Instance& instance : instances_) {
      add_generated(instance, layers);
    }
    const study::CampaignResult campaign =
        traced_campaign("sweep-small", campaign_, layers);
    const study::CheckerMatrixResult matrix =
        traced_matrix("sweep-small", matrix_, layers);
    return PassResult{campaign.rows.size() + matrix.cells.size(),
                      failed(campaign, matrix), {}};
  }

 private:
  static constexpr std::size_t kInstances = 40;
  static constexpr std::uint64_t kMaxSteps = 2000;

  /// Every row repeats the first pass's CSV line; the matrix CSV matches
  /// its pinned digest.
  std::uint64_t failed(const study::CampaignResult& campaign,
                       const study::CheckerMatrixResult& matrix) {
    std::uint64_t failed = 0;
    const std::vector<std::string> rows = csv_lines(campaign_csv(campaign));
    if (first_rows_.empty()) {
      first_rows_ = rows;
    }
    for (std::size_t i = 1; i < rows.size(); ++i) {  // line 0 is the header
      if (rows.size() != first_rows_.size() || rows[i] != first_rows_[i]) {
        ++failed;
      }
    }
    const std::string csv = matrix.to_csv();
    if (fnv1a(csv) != kMatrixCsvDigest) {
      std::fprintf(stderr, "sweep-small: matrix CSV digest %llu\n",
                   static_cast<unsigned long long>(fnv1a(csv)));
      failed += matrix.cells.size();
    }
    return failed;
  }

  std::uint64_t seed_;
  const spp::Instance disagree_ = spp::disagree();
  const spp::Instance a4_ = spp::example_a4();
  std::deque<spp::Instance> instances_;  // stable addresses for the spec
  study::CampaignSpec campaign_;
  study::CheckerMatrixSpec matrix_;
  double generate_s_ = 0.0;
  std::vector<std::string> first_rows_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "explore-badgadget") {
    return std::make_unique<ExploreBadGadget>();
  }
  if (name == "converge-400") {
    return std::make_unique<Converge400>(seed);
  }
  if (name == "sweep-small") {
    return std::make_unique<SweepSmall>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
