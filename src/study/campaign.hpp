// Experiment campaigns: declarative sweeps over instances x models x
// schedulers x seeds, with aggregate statistics and CSV export. This is
// the driver behind the convergence-cost benches and the recommended way
// to run your own studies on top of the library.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/runner.hpp"
#include "model/model.hpp"
#include "obs/obs.hpp"
#include "scenario/fault.hpp"
#include "scenario/perturb.hpp"
#include "sim/link_model.hpp"
#include "spp/instance.hpp"

namespace commroute::study {

/// Scheduler families a campaign can sweep over.
enum class SchedulerKind {
  kRoundRobin,   ///< deterministic fair
  kRandomFair,   ///< randomized fair (per-seed)
  kSynchronous,  ///< U = V rounds (Def. 2.6 kEvery)
  kEventDriven,  ///< serve queued messages FIFO-ish (w1O, wMO models)
  kSim,          ///< virtual-time DES (sim::run; sweeps sim_points)
};

std::string to_string(SchedulerKind kind);

struct CampaignSpec {
  /// Instances by name. Instances are borrowed; they must outlive run().
  std::vector<std::pair<std::string, const spp::Instance*>> instances;
  std::vector<model::Model> models;
  std::vector<SchedulerKind> schedulers;
  std::uint64_t seeds = 5;          ///< per randomized configuration
  std::uint64_t max_steps = 50000;
  double drop_prob = 0.2;           ///< for unreliable random schedules
  /// Link-model sweep axis for SchedulerKind::kSim rows: each point
  /// multiplies the (instance, model, seed) cross product. Points with
  /// loss_prob > 0 are skipped for Reliable models (drops are not
  /// expressible there). Empty + kSim requested = one default LinkModel.
  std::vector<sim::LinkModel> sim_points;
  /// Node processing model shared by all kSim rows.
  sim::NodeModel sim_node;
  /// Ranking-perturbation axis (scenario/perturb.hpp): each spec
  /// materializes `perturb_seeds` edited variants of every instance up
  /// front, named "<instance>~<label>#<p>", which then sweep the full
  /// model x scheduler cross product alongside the unperturbed base
  /// (CSV column `perturb` = "none" for base rows). Perturb seeds
  /// derive from (instance, label, p) only — never from the model or
  /// scheduler — so every cell of a (model x perturbation) matrix sees
  /// the byte-identical edited instance. Empty = no perturbation axis.
  std::vector<scenario::PerturbSpec> perturbations;
  /// Variants materialized per (instance, perturbation spec); clamped
  /// to at least 1 when `perturbations` is non-empty.
  std::uint64_t perturb_seeds = 1;
  /// Fault-schedule axis for kSim rows (scenario/fault.hpp): each spec
  /// is instantiated per row via scenario::random_fault_schedule with a
  /// seed derived from (instance, label, seed) — model-independent, so
  /// all models of a campaign cell replay the identical schedule.
  /// Non-kSim rows always carry fault_schedule "none"; cells whose
  /// regime shift introduces loss are skipped for Reliable models, like
  /// lossy sim_points. Empty = no fault axis (single "none" cell).
  std::vector<scenario::FaultScheduleSpec> fault_schedules;
  /// Optional metrics registry / JSONL event sink / span collector.
  /// Attached, the driver emits one "campaign_row" event per completed
  /// row and a final "campaign_summary", publishes row/step/wall
  /// aggregates, and traces campaign.run > campaign.row > engine.run
  /// spans (the registry and span collector forward to each row's run).
  obs::Instrumentation obs;
  /// When non-empty, every row runs with the flight recorder armed and
  /// non-converged rows flush
  /// <dir>/<instance>_<model>_<scheduler>_<seed>.recording.jsonl, the
  /// path stamped into CampaignRow::recording_path (the directory is
  /// created if needed). Converged rows write nothing.
  std::string recording_dir;
  /// Ring capacity for the per-row flight recorder; 0 records the full
  /// run (replayable, but memory grows with max_steps).
  std::size_t recording_ring = 512;
  /// Resource-telemetry side channel: when attached, a TelemetrySampler
  /// emits periodic "telemetry_snapshot" events (RSS, pool queue depth,
  /// tasks executed) plus one final "pool_summary" on parallel sweeps.
  /// This sink is deliberately separate from `obs.sink`: snapshots carry
  /// RSS and wall-clock values, which would break the byte-identical
  /// determinism contract of the campaign event stream. Do not point
  /// both at the same file.
  obs::EventSink* telemetry_sink = nullptr;
  /// Snapshot cadence for the telemetry sampler.
  std::uint64_t telemetry_interval_ms = 250;
  /// Build each row's happens-before DAG (engine::RunOptions::causality)
  /// and export critical_path_len / critical_path_us columns. Like
  /// every other row field the values are deterministic: byte-identical
  /// CSV/JSON across thread widths.
  bool causality = false;
  /// Worker threads for the row sweep: 0 = hardware_concurrency(),
  /// 1 = serial (runs on the calling thread exactly like the historical
  /// driver). Rows are independent, so any thread count produces
  /// identical rows, CSV/JSON bytes (timing fields aside), campaign_row
  /// event order, and merged metric aggregates — see run_campaign.
  std::size_t threads = 0;
};

/// One (instance, model, scheduler, seed) outcome.
struct CampaignRow {
  std::string instance;
  model::Model model;
  SchedulerKind scheduler = SchedulerKind::kRoundRobin;
  std::uint64_t seed = 0;
  engine::Outcome outcome = engine::Outcome::kExhausted;
  std::uint64_t steps = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::size_t max_channel_occupancy = 0;
  /// Peak in-flight message bytes of this row's run (deterministic
  /// estimate — safe in byte-compared CSV/JSON, unlike wall_ms).
  std::size_t peak_channel_bytes = 0;
  double wall_ms = 0.0;  ///< wall time of this row's engine::run
  /// Flight-recorder artifact for this row ("" when none was flushed).
  std::string recording_path;
  /// kSim rows only (0 otherwise): the swept link-model point and the
  /// virtual-time view of the run.
  std::uint64_t sim_latency_us = 0;
  double sim_loss = 0.0;
  std::uint64_t virtual_us = 0;      ///< virtual time of the last step
  std::uint64_t last_change_us = 0;  ///< virtual time of the last flap
  /// CampaignSpec::causality only (0 otherwise): longest dependency
  /// chain to the last assignment change, in activations, and — kSim
  /// rows — in virtual microseconds (== last_change_us, the causal
  /// explanation of that number).
  std::uint64_t critical_path_len = 0;
  std::uint64_t critical_path_us = 0;
  /// Perturbation-axis label of this row's instance variant ("none" =
  /// the unperturbed base) and how many edits actually applied to it.
  std::string perturb = "none";
  std::uint64_t perturb_edits = 0;
  /// Fault-schedule axis label ("none" = no faults; always "none" for
  /// non-kSim rows), the faults that fired, and the virtual time from
  /// the last fault to the last assignment change (the row's
  /// reconvergence time; 0 when no fault fired).
  std::string fault_schedule = "none";
  std::uint64_t faults_applied = 0;
  std::uint64_t reconverge_us = 0;
};

/// Provenance of one materialized perturbation variant.
struct PerturbProvenance {
  std::string variant;       ///< "<instance>~<label>#<p>"
  std::string base;          ///< source instance name
  std::string label;         ///< PerturbSpec::label()
  std::uint64_t seed = 0;    ///< the scenario::perturb seed
  std::size_t applied = 0;   ///< edits that took effect
  std::string record_json;   ///< PerturbRecord::to_json JSONL line
};

struct CampaignResult {
  std::vector<CampaignRow> rows;
  /// One entry per materialized perturbation variant, in enumeration
  /// order (empty without a perturbation axis). Deterministic like the
  /// rows: a pure function of (instances, perturbations, perturb_seeds).
  std::vector<PerturbProvenance> provenance;

  /// Fraction of rows with the given outcome.
  double outcome_rate(engine::Outcome outcome) const;

  /// Median steps over rows matching a predicate (0 when none match).
  std::uint64_t median_steps(
      const std::function<bool(const CampaignRow&)>& pred) const;

  /// CSV with a header row; one line per CampaignRow.
  std::string to_csv() const;

  /// Machine-readable export: {"rows":[...],"summary":{...}} with one
  /// object per CampaignRow (all columns of the CSV plus wall_ms) and
  /// aggregate outcome rates.
  std::string to_json() const;
};

/// Stream seed for one (instance, model, scheduler, seed) row: a
/// splitmix64-style hash over all four coordinates, so distinct rows
/// get decorrelated RNG streams (two instances never replay the same
/// random-fair schedule) while reruns of the same row stay bit-for-bit
/// reproducible.
std::uint64_t derive_row_seed(std::string_view instance, int model_index,
                              SchedulerKind scheduler, std::uint64_t seed);

/// Runs the full cross product. Event-driven configurations run only
/// under the w1O and wMO models (one f = 1 read per step is not legal
/// elsewhere); synchronous and round-robin run once per configuration
/// regardless of `seeds`.
///
/// Rows are enumerated up front in deterministic (instance, model,
/// scheduler, seed) order and executed across `spec.threads` workers.
/// Regardless of thread count the result is deterministic: rows land in
/// enumeration order, campaign_row events are emitted in that order as
/// the completed prefix grows, and per-worker metric/span shards are
/// merged into `spec.obs` at the end (counters add, gauges max,
/// histograms add — all order-independent). Only wall-clock fields
/// (wall_ms, *.wall_us) vary between runs.
CampaignResult run_campaign(const CampaignSpec& spec);

}  // namespace commroute::study
