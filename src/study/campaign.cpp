#include "study/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "engine/scheduler.hpp"
#include "obs/json.hpp"
#include "obs/resource.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/sim_runner.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace commroute::study {

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kRoundRobin:
      return "round-robin";
    case SchedulerKind::kRandomFair:
      return "random-fair";
    case SchedulerKind::kSynchronous:
      return "synchronous";
    case SchedulerKind::kEventDriven:
      return "event-driven";
    case SchedulerKind::kSim:
      return "sim";
  }
  throw InvariantError("bad SchedulerKind");
}

double CampaignResult::outcome_rate(engine::Outcome outcome) const {
  if (rows.empty()) {
    return 0.0;
  }
  std::size_t hits = 0;
  for (const CampaignRow& row : rows) {
    if (row.outcome == outcome) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(rows.size());
}

std::uint64_t CampaignResult::median_steps(
    const std::function<bool(const CampaignRow&)>& pred) const {
  std::vector<std::uint64_t> steps;
  for (const CampaignRow& row : rows) {
    if (pred(row)) {
      steps.push_back(row.steps);
    }
  }
  if (steps.empty()) {
    return 0;
  }
  std::sort(steps.begin(), steps.end());
  return steps[steps.size() / 2];
}

std::string CampaignResult::to_csv() const {
  std::ostringstream out;
  // New columns append at the end: CI's thread-width byte diff strips
  // wall_ms by position (column 11).
  out << "instance,model,scheduler,seed,outcome,steps,messages_sent,"
         "messages_dropped,max_channel_occupancy,peak_channel_bytes,"
         "wall_ms,recording_path,"
         "sim_latency_us,sim_loss,virtual_us,last_change_us,"
         "critical_path_len,critical_path_us,"
         "perturb,perturb_edits,fault_schedule,faults_applied,"
         "reconverge_us\n";
  for (const CampaignRow& row : rows) {
    char wall[32];
    std::snprintf(wall, sizeof wall, "%.3f", row.wall_ms);
    char loss[32];
    std::snprintf(loss, sizeof loss, "%g", row.sim_loss);
    out << csv_quote(row.instance) << ',' << csv_quote(row.model.name())
        << ',' << to_string(row.scheduler) << ',' << row.seed << ','
        << engine::to_string(row.outcome) << ',' << row.steps << ','
        << row.messages_sent << ',' << row.messages_dropped << ','
        << row.max_channel_occupancy << ',' << row.peak_channel_bytes
        << ',' << wall << ','
        << csv_quote(row.recording_path) << ',' << row.sim_latency_us
        << ',' << loss << ',' << row.virtual_us << ','
        << row.last_change_us << ',' << row.critical_path_len << ','
        << row.critical_path_us << ',' << csv_quote(row.perturb) << ','
        << row.perturb_edits << ',' << csv_quote(row.fault_schedule)
        << ',' << row.faults_applied << ',' << row.reconverge_us << '\n';
  }
  return out.str();
}

namespace {

obs::JsonWriter row_json(const CampaignRow& row) {
  obs::JsonWriter w;
  w.field("instance", row.instance)
      .field("model", row.model.name())
      .field("scheduler", to_string(row.scheduler))
      .field("seed", row.seed)
      .field("outcome", engine::to_string(row.outcome))
      .field("steps", row.steps)
      .field("messages_sent", row.messages_sent)
      .field("messages_dropped", row.messages_dropped)
      .field("max_channel_occupancy",
             static_cast<std::uint64_t>(row.max_channel_occupancy))
      .field("peak_channel_bytes",
             static_cast<std::uint64_t>(row.peak_channel_bytes))
      .field("wall_ms", row.wall_ms)
      .field("recording_path", row.recording_path)
      .field("sim_latency_us", row.sim_latency_us)
      .field("sim_loss", row.sim_loss)
      .field("virtual_us", row.virtual_us)
      .field("last_change_us", row.last_change_us)
      .field("critical_path_len", row.critical_path_len)
      .field("critical_path_us", row.critical_path_us)
      .field("perturb", row.perturb)
      .field("perturb_edits", row.perturb_edits)
      .field("fault_schedule", row.fault_schedule)
      .field("faults_applied", row.faults_applied)
      .field("reconverge_us", row.reconverge_us);
  return w;
}

}  // namespace

std::string CampaignResult::to_json() const {
  std::string rows_json = "[";
  double total_wall_ms = 0.0;
  std::uint64_t total_steps = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      rows_json += ',';
    }
    rows_json += row_json(rows[i]).str();
    total_wall_ms += rows[i].wall_ms;
    total_steps += rows[i].steps;
  }
  rows_json += ']';

  obs::JsonWriter summary;
  summary.field("rows", static_cast<std::uint64_t>(rows.size()))
      .field("total_steps", total_steps)
      .field("total_wall_ms", total_wall_ms)
      .field("converged_rate", outcome_rate(engine::Outcome::kConverged))
      .field("oscillating_rate",
             outcome_rate(engine::Outcome::kOscillating))
      .field("exhausted_rate", outcome_rate(engine::Outcome::kExhausted));

  obs::JsonWriter top;
  top.raw_field("rows", rows_json);
  top.raw_field("summary", summary.str());
  return top.str();
}

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_row_seed(std::string_view instance, int model_index,
                              SchedulerKind scheduler, std::uint64_t seed) {
  // FNV-1a over the instance name, then splitmix64-finalized absorption
  // of the remaining coordinates. Every coordinate perturbs the whole
  // state, so (seed, model) pairs never collide across instances or
  // schedulers the way the old `seed * 7919 + model` derivation did.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : instance) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  h = mix64(h ^ static_cast<std::uint64_t>(model_index));
  h = mix64(h ^ (static_cast<std::uint64_t>(scheduler) << 32));
  h = mix64(h ^ seed);
  return h;
}

namespace {

/// One instance coordinate of the sweep: the unperturbed base or a
/// materialized perturbation variant. Variant instances live in a deque
/// owned by run_campaign, so the borrowed pointer stays stable.
struct InstanceVariant {
  std::string name;
  const spp::Instance* inst = nullptr;
  std::string perturb = "none";
  std::uint64_t perturb_edits = 0;
};

/// One pre-enumerated row of the sweep. Everything execution needs is
/// resolved up front (including the recording path), so rows can run on
/// any worker in any order without coordination.
struct RowTask {
  std::string instance;
  const spp::Instance* inst = nullptr;
  model::Model model;
  SchedulerKind kind = SchedulerKind::kRoundRobin;
  std::uint64_t seed = 0;
  std::string flush_path;  ///< "" = flight recorder off for this row
  /// kSim rows: index into the (possibly defaulted) sim-point axis and
  /// the resolved link model.
  int sim_point = -1;
  sim::LinkModel link;
  /// Perturbation coordinate of the row's instance variant.
  std::string perturb = "none";
  std::uint64_t perturb_edits = 0;
  /// Fault-schedule coordinate (kSim rows only; borrowed from the
  /// spec's axis, instantiated per row in run_sim_row).
  const scenario::FaultScheduleSpec* fault_spec = nullptr;
  std::string fault_label = "none";
};

/// The instance-name coordinate fed to derive_row_seed for a kSim row:
/// the sim point is folded in so distinct latency/loss points get
/// decorrelated sampling streams.
std::string sim_seed_key(const std::string& instance, int sim_point) {
  return instance + "#sim" + std::to_string(sim_point);
}

/// Enumerates the cross product in deterministic (instance, model,
/// scheduler, seed) order — the order rows, CSV lines, and campaign_row
/// events appear in regardless of thread count. Recording filenames are
/// built from sanitized components and de-collided with an index suffix
/// (sanitization is lossy: "a/b" and "a_b" both map to "a_b").
std::vector<RowTask> enumerate_rows(const CampaignSpec& spec,
                                    const std::vector<InstanceVariant>& variants) {
  std::vector<RowTask> tasks;
  std::set<std::string> used_names;
  // The kSim sweep axis: explicit points, or one default link model.
  std::vector<sim::LinkModel> sim_points = spec.sim_points;
  if (sim_points.empty()) {
    sim_points.push_back(sim::LinkModel{});
  }
  for (const InstanceVariant& variant : variants) {
    for (const model::Model& m : spec.models) {
      for (const SchedulerKind kind : spec.schedulers) {
        if (kind == SchedulerKind::kEventDriven &&
            !engine::EventDrivenScheduler::allows(m)) {
          continue;
        }
        const bool randomized = (kind == SchedulerKind::kRandomFair ||
                                 kind == SchedulerKind::kSim);
        const std::uint64_t runs = randomized ? spec.seeds : 1;
        const std::size_t points =
            kind == SchedulerKind::kSim ? sim_points.size() : 1;
        // The fault axis multiplies kSim rows only; every other
        // scheduler gets the single implicit "none" cell.
        const bool fault_axis =
            kind == SchedulerKind::kSim && !spec.fault_schedules.empty();
        const std::size_t fault_cells =
            fault_axis ? spec.fault_schedules.size() : 1;
        for (std::size_t fcell = 0; fcell < fault_cells; ++fcell) {
          const scenario::FaultScheduleSpec* fspec =
              fault_axis ? &spec.fault_schedules[fcell] : nullptr;
          if (fspec != nullptr && m.reliable() &&
              fspec->regime_shifts > 0 && fspec->regime.loss_prob > 0.0) {
            continue;  // a lossy regime is not expressible when Reliable
          }
          for (std::size_t point = 0; point < points; ++point) {
            if (kind == SchedulerKind::kSim && m.reliable() &&
                sim_points[point].loss_prob > 0.0) {
              continue;  // drops are not expressible in Reliable models
            }
            for (std::uint64_t seed = 0; seed < runs; ++seed) {
              RowTask task;
              task.instance = variant.name;
              task.inst = variant.inst;
              task.model = m;
              task.kind = kind;
              task.seed = seed;
              task.perturb = variant.perturb;
              task.perturb_edits = variant.perturb_edits;
              task.fault_spec = fspec;
              if (fspec != nullptr) {
                task.fault_label = fspec->label();
              }
              if (kind == SchedulerKind::kSim) {
                task.sim_point = static_cast<int>(point);
                task.link = sim_points[point];
              }
              if (!spec.recording_dir.empty()) {
                std::string base =
                    sanitize_path_component(variant.name) + "_" +
                    sanitize_path_component(m.name()) + "_" +
                    sanitize_path_component(to_string(kind)) + "_" +
                    std::to_string(seed);
                if (task.fault_label != "none") {
                  base += "_" + sanitize_path_component(task.fault_label);
                }
                std::string candidate = base;
                for (int suffix = 2; !used_names.insert(candidate).second;
                     ++suffix) {
                  candidate = base + "." + std::to_string(suffix);
                }
                task.flush_path =
                    (std::filesystem::path(spec.recording_dir) /
                     (candidate + ".recording.jsonl"))
                        .string();
              }
              tasks.push_back(std::move(task));
            }
          }
        }
      }
    }
  }
  return tasks;
}

/// The row's flight recorder: off, or writing task.flush_path (the whole
/// run, or its last spec.recording_ring steps).
engine::FlightRecorderOptions row_flight(const CampaignSpec& spec,
                                         const RowTask& task) {
  engine::FlightRecorderOptions flight;
  if (!task.flush_path.empty()) {
    flight.mode = spec.recording_ring == 0
                      ? engine::FlightRecorderOptions::Mode::kFull
                      : engine::FlightRecorderOptions::Mode::kRing;
    flight.ring_capacity = spec.recording_ring;
    flight.instance_name = task.instance;
    flight.scheduler = to_string(task.kind);
    flight.seed = task.seed;
    flight.flush_path = task.flush_path;
  }
  return flight;
}

/// Opens the row's campaign.row span.
obs::Span open_row_span(const RowTask& task,
                        const obs::Instrumentation& obs) {
  obs::Span span = obs.span("campaign.row");
  if (span.enabled()) {
    span.attr("instance", task.instance)
        .attr("model", task.model.name())
        .attr("scheduler", to_string(task.kind))
        .attr("seed", task.seed);
  }
  return span;
}

/// The row fields every scheduler kind takes from its task and its
/// engine run.
CampaignRow engine_row(const RowTask& task, const engine::RunResult& run) {
  CampaignRow row;
  row.instance = task.instance;
  row.model = task.model;
  row.scheduler = task.kind;
  row.seed = task.seed;
  row.outcome = run.outcome;
  row.steps = run.steps;
  row.messages_sent = run.messages_sent;
  row.messages_dropped = run.messages_dropped;
  row.max_channel_occupancy = run.max_channel_occupancy;
  row.peak_channel_bytes = run.peak_channel_bytes;
  row.recording_path = run.recording_path;
  row.critical_path_len = run.critical_path_len;
  row.perturb = task.perturb;
  row.perturb_edits = task.perturb_edits;
  return row;
}

/// Stamps the row's wall time since `row_start` and adds it to the
/// campaign.* counters.
void finish_row(CampaignRow& row,
                std::chrono::steady_clock::time_point row_start,
                const obs::Instrumentation& obs) {
  row.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - row_start)
                    .count();
  if (obs.metrics != nullptr) {
    obs::Registry& metrics = *obs.metrics;
    metrics.counter("campaign.rows").add();
    metrics.counter("campaign.steps").add(row.steps);
    metrics.counter("campaign.wall_us")
        .add(static_cast<std::uint64_t>(row.wall_ms * 1000.0));
  }
}

/// Executes one kSim row through sim::run (the engine options — flight
/// recorder, model enforcement, obs shard — are assembled by sim::run
/// itself from SimOptions).
CampaignRow run_sim_row(const CampaignSpec& spec, const RowTask& task,
                        const obs::Instrumentation& obs) {
  sim::SimOptions sopts;
  sopts.model = task.model;
  sopts.link = task.link;
  sopts.node = spec.sim_node;
  sopts.seed = derive_row_seed(sim_seed_key(task.instance, task.sim_point),
                               task.model.index(), task.kind, task.seed);
  sopts.max_steps = spec.max_steps;
  sopts.causality = spec.causality;
  sopts.obs.metrics = obs.metrics;
  sopts.obs.spans = obs.spans;
  sopts.flight = row_flight(spec, task);
  // The fault axis: instantiate the row's schedule spec against this
  // instance. The seed folds in (instance variant, fault label, seed)
  // only — no model or sim-point coordinate — so every model in a
  // campaign cell replays the byte-identical schedule.
  scenario::FaultSchedule schedule;
  if (task.fault_spec != nullptr) {
    schedule = scenario::random_fault_schedule(
        *task.inst, *task.fault_spec,
        derive_row_seed(task.instance + "~fault:" + task.fault_label,
                        /*model_index=*/-1, SchedulerKind::kSim,
                        task.seed));
    sopts.faults = &schedule;
  }

  const auto row_start = std::chrono::steady_clock::now();
  obs::Span row_span = open_row_span(task, obs);
  if (row_span.enabled()) {
    row_span.attr("sim_latency_us", task.link.latency_us)
        .attr("sim_loss", task.link.loss_prob);
  }
  const sim::SimResult sres = sim::run(*task.inst, sopts);
  row_span.finish();
  CampaignRow row = engine_row(task, sres.run);
  row.sim_latency_us = task.link.latency_us;
  row.sim_loss = task.link.loss_prob;
  row.virtual_us = sres.virtual_end_us;
  row.last_change_us = sres.last_change_us;
  row.critical_path_us = sres.critical_path_us;
  row.fault_schedule = task.fault_label;
  row.faults_applied = sres.faults_applied;
  row.reconverge_us = sres.reconverge_us();
  finish_row(row, row_start, obs);
  return row;
}

/// Executes one row. `obs` is the executing worker's instrumentation
/// shard (or the campaign-level handle on the serial path); the event
/// sink is deliberately absent here — campaign_row events are emitted by
/// the driver in enumeration order.
CampaignRow run_one_row(const CampaignSpec& spec, const RowTask& task,
                        const obs::Instrumentation& obs) {
  if (task.kind == SchedulerKind::kSim) {
    return run_sim_row(spec, task, obs);
  }
  std::unique_ptr<engine::Scheduler> scheduler;
  engine::RunOptions options;
  options.max_steps = spec.max_steps;
  options.record_trace = false;
  options.causality = spec.causality;
  // Engine aggregates accumulate in the worker's registry shard and
  // engine spans nest under the row span; both merge into the
  // campaign-level handles after the sweep.
  options.obs.metrics = obs.metrics;
  options.obs.spans = obs.spans;
  options.flight = row_flight(spec, task);
  switch (task.kind) {
    case SchedulerKind::kRoundRobin:
      scheduler = std::make_unique<engine::RoundRobinScheduler>(task.model,
                                                                *task.inst);
      options.enforce_model = task.model;
      break;
    case SchedulerKind::kRandomFair:
      scheduler = std::make_unique<engine::RandomFairScheduler>(
          task.model, *task.inst,
          Rng(derive_row_seed(task.instance, task.model.index(), task.kind,
                              task.seed)),
          engine::RandomFairOptions{
              .drop_prob = task.model.reliable() ? 0.0 : spec.drop_prob,
              .sweep_period = 16});
      options.enforce_model = task.model;
      break;
    case SchedulerKind::kSynchronous:
      scheduler = std::make_unique<engine::SynchronousScheduler>(
          task.model, *task.inst);
      break;
    case SchedulerKind::kEventDriven:
      scheduler =
          std::make_unique<engine::EventDrivenScheduler>(*task.inst);
      options.enforce_model = task.model;
      break;
    case SchedulerKind::kSim:
      throw InvariantError("kSim rows are dispatched to run_sim_row");
  }

  const auto row_start = std::chrono::steady_clock::now();
  obs::Span row_span = open_row_span(task, obs);
  const engine::RunResult run = engine::run(*task.inst, *scheduler, options);
  row_span.finish();
  CampaignRow row = engine_row(task, run);
  finish_row(row, row_start, obs);
  return row;
}

void emit_row_event(obs::EventSink& sink, const CampaignRow& row) {
  obs::Event ev("campaign_row");
  ev.raw_field("row", row_json(row).str());
  sink.emit(ev);
}

/// End-of-sweep pool telemetry: one "pool_summary" event into the
/// telemetry side channel and pool.* aggregates into the campaign
/// registry. All values are wall-clock derived, hence quarantined the
/// same way wall_ms is (never byte-compared).
void publish_pool_stats(const CampaignSpec& spec,
                        const runtime::PoolStats& stats) {
  if (spec.telemetry_sink != nullptr) {
    obs::Event ev("pool_summary");
    ev.field("workers", static_cast<std::uint64_t>(stats.workers))
        .field("tasks_executed", stats.tasks_executed)
        .field("busy_us", stats.busy_us)
        .field("idle_us", stats.idle_us)
        .field("utilization", stats.utilization())
        .field("queue_depth_peak",
               static_cast<std::uint64_t>(stats.queue_depth_peak));
    std::string per_worker = "[";
    for (std::size_t w = 0; w < stats.per_worker.size(); ++w) {
      const runtime::WorkerStats& ws = stats.per_worker[w];
      obs::JsonWriter entry;
      entry.field("worker", static_cast<std::uint64_t>(w))
          .field("tasks", ws.tasks)
          .field("busy_us", ws.busy_us)
          .field("idle_us", ws.idle_us);
      if (w > 0) {
        per_worker += ',';
      }
      per_worker += entry.str();
    }
    per_worker += ']';
    ev.raw_field("per_worker", per_worker);
    spec.telemetry_sink->emit(ev);
  }
  if (spec.obs.metrics != nullptr) {
    obs::Registry& m = *spec.obs.metrics;
    m.counter("pool.tasks_executed").add(stats.tasks_executed);
    m.counter("pool.busy_us").add(stats.busy_us);
    m.counter("pool.idle_us").add(stats.idle_us);
    m.gauge("pool.queue_depth_peak").record_max(stats.queue_depth_peak);
    m.gauge("pool.utilization_pct")
        .record_max(static_cast<std::uint64_t>(stats.utilization() * 100.0));
  }
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec) {
  CR_REQUIRE(!spec.instances.empty(), "campaign needs instances");
  CR_REQUIRE(!spec.models.empty(), "campaign needs models");
  CR_REQUIRE(!spec.schedulers.empty(), "campaign needs schedulers");

  if (!spec.recording_dir.empty()) {
    std::filesystem::create_directories(spec.recording_dir);
  }

  CampaignResult result;

  // Materialize the perturbation axis up front: each (instance, spec, p)
  // variant is a real edited instance that lives for the whole sweep (a
  // deque keeps the borrowed RowTask pointers stable). The perturb seed
  // is a pure function of (instance name, label, p) — never the model or
  // scheduler — so a (model x perturbation) matrix compares models on
  // the byte-identical edited instance.
  std::deque<spp::Instance> perturbed_storage;
  std::vector<InstanceVariant> variants;
  const std::uint64_t perturb_seeds =
      std::max<std::uint64_t>(spec.perturb_seeds, 1);
  for (const auto& [name, instance] : spec.instances) {
    CR_REQUIRE(instance != nullptr, "null instance in campaign spec");
    variants.push_back(InstanceVariant{name, instance, "none", 0});
    for (const scenario::PerturbSpec& pspec : spec.perturbations) {
      const std::string label = pspec.label();
      for (std::uint64_t p = 0; p < perturb_seeds; ++p) {
        const std::uint64_t pseed = derive_row_seed(
            name + "~" + label, /*model_index=*/-1,
            SchedulerKind::kRoundRobin, p);
        scenario::PerturbResult pr = scenario::perturb(*instance, pspec, pseed);
        const std::string vname =
            name + "~" + label + "#" + std::to_string(p);
        result.provenance.push_back(PerturbProvenance{
            vname, name, label, pseed, pr.record.edits.size(),
            pr.record.to_json(*instance)});
        perturbed_storage.push_back(std::move(pr.instance));
        variants.push_back(InstanceVariant{vname, &perturbed_storage.back(),
                                           label,
                                           result.provenance.back().applied});
      }
    }
  }

  const std::vector<RowTask> tasks = enumerate_rows(spec, variants);
  result.rows.resize(tasks.size());

  obs::Span campaign_span = spec.obs.span("campaign.run");
  const std::size_t threads =
      std::min(runtime::resolve_threads(spec.threads),
               std::max<std::size_t>(tasks.size(), 1));

  // Sweep-level progress (rows done/total, EWMA row rate -> ETA),
  // surfaced through the telemetry side channel as progress_snapshot
  // events. The estimator is mutex-guarded, so parallel workers update
  // it directly. Wall-clock derived like RSS — never in the
  // deterministic event stream.
  std::optional<obs::ProgressEstimator> progress;
  if (spec.telemetry_sink != nullptr) {
    progress.emplace("campaign.rows");
    progress->update(0, tasks.size());
  }

  if (threads <= 1) {
    // Serial path: rows run on the calling thread against the
    // campaign-level instrumentation directly (spans nest under
    // campaign.run, no shards to merge). The telemetry sampler (when
    // attached) watches process RSS only — there is no pool to probe.
    std::optional<obs::TelemetrySampler> sampler;
    if (spec.telemetry_sink != nullptr) {
      obs::TelemetrySampler::Options topts;
      topts.interval_ms = spec.telemetry_interval_ms;
      sampler.emplace(*spec.telemetry_sink, topts);
      sampler->add_progress(&*progress);
      sampler->start();
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      result.rows[i] = run_one_row(spec, tasks[i], spec.obs);
      if (progress.has_value()) {
        progress->update(i + 1, tasks.size());
      }
      if (spec.obs.sink != nullptr) {
        emit_row_event(*spec.obs.sink, result.rows[i]);
      }
    }
    if (sampler.has_value()) {
      sampler->stop();
    }
  } else {
    runtime::ThreadPool pool(threads);
    const std::size_t workers = std::min(pool.size(), tasks.size());
    // Per-worker instrumentation shards: each worker owns a registry
    // and span collector, so the engine hot path never contends on (or
    // races through) the campaign-level handles. Shards merge below in
    // worker order; every combiner is commutative, so the merged
    // aggregates do not depend on which worker ran which row.
    struct Shard {
      obs::Registry metrics;
      obs::SpanCollector spans;
    };
    std::vector<Shard> shards(workers);
    if (spec.obs.spans != nullptr) {
      // Rows nest under campaign.run once the shards merge back.
      const std::uint32_t open = spec.obs.spans->open_span();
      for (Shard& shard : shards) {
        shard.spans.set_root_parent(open);
      }
    }

    // The shared sink is serialized (SynchronizedSink) and fed in
    // enumeration order: whichever worker completes the row that fills
    // the gap at `next_emit` drains the ready prefix, so a tailing
    // reader sees exactly the serial event stream.
    std::optional<obs::SynchronizedSink> sync_sink;
    if (spec.obs.sink != nullptr) {
      sync_sink.emplace(*spec.obs.sink);
    }
    std::mutex emit_mutex;
    std::size_t next_emit = 0;
    std::vector<char> ready(tasks.size(), 0);

    // Telemetry sampler with live pool probes (queue depth, tasks
    // executed). Declared after `pool` so it is stopped/destroyed first;
    // probes run on the sampler thread against the pool's thread-safe
    // accessors.
    std::optional<obs::TelemetrySampler> sampler;
    if (spec.telemetry_sink != nullptr) {
      obs::TelemetrySampler::Options topts;
      topts.interval_ms = spec.telemetry_interval_ms;
      sampler.emplace(*spec.telemetry_sink, topts);
      sampler->add_probe("pool.queue_depth",
                         [&pool] { return pool.queue_depth(); });
      sampler->add_probe("pool.tasks_executed", [&pool] {
        return pool.stats().tasks_executed;
      });
      sampler->add_probe("pool.busy_us",
                         [&pool] { return pool.stats().busy_us; });
      sampler->add_progress(&*progress);
      sampler->start();
    }

    std::atomic<std::size_t> completed{0};
    runtime::parallel_for_each(
        pool, tasks.size(), [&](std::size_t worker, std::size_t i) {
          Shard& shard = shards[worker];
          obs::Instrumentation shard_obs;
          if (spec.obs.metrics != nullptr) {
            shard_obs.metrics = &shard.metrics;
          }
          if (spec.obs.spans != nullptr) {
            shard_obs.spans = &shard.spans;
          }
          result.rows[i] = run_one_row(spec, tasks[i], shard_obs);
          if (progress.has_value()) {
            progress->update(
                completed.fetch_add(1, std::memory_order_relaxed) + 1,
                tasks.size());
          }
          if (sync_sink.has_value()) {
            std::lock_guard<std::mutex> lock(emit_mutex);
            ready[i] = 1;
            while (next_emit < tasks.size() && ready[next_emit] != 0) {
              emit_row_event(*sync_sink, result.rows[next_emit]);
              ++next_emit;
            }
          }
        });

    for (Shard& shard : shards) {
      if (spec.obs.metrics != nullptr) {
        spec.obs.metrics->merge_from(shard.metrics);
      }
      if (spec.obs.spans != nullptr) {
        spec.obs.spans->merge_from(shard.spans);
      }
    }

    if (sampler.has_value()) {
      sampler->stop();
    }
    publish_pool_stats(spec, pool.stats());
  }

  if (spec.obs.sink != nullptr) {
    obs::Event ev("campaign_summary");
    ev.field("rows", static_cast<std::uint64_t>(result.rows.size()))
        .field("converged_rate",
               result.outcome_rate(engine::Outcome::kConverged))
        .field("oscillating_rate",
               result.outcome_rate(engine::Outcome::kOscillating))
        .field("exhausted_rate",
               result.outcome_rate(engine::Outcome::kExhausted));
    spec.obs.sink->emit(ev);
  }

  return result;
}

}  // namespace commroute::study
