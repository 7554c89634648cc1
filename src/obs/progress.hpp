// Online progress estimation for long-running loops such as the campaign
// sweep. An instrumented loop owns a ProgressEstimator and
// calls update(done, total) as work completes; a TelemetrySampler
// (obs/resource.hpp) registered via add_progress() reads snapshots on
// its own thread and emits periodic "progress_snapshot" events with
// fraction / rate / ETA into the telemetry side channel.
//
// Like RSS and wall_ms, rate and ETA are wall-clock derived and belong
// only in the telemetry sink, never in a byte-compared event stream.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace commroute::obs {

/// Point-in-time progress view; every field is safe to publish.
struct ProgressSnapshot {
  std::string name;
  std::uint64_t done = 0;
  std::uint64_t total = 0;       ///< 0 = unknown / open-ended
  double fraction = 0.0;         ///< done / total, 0 when total unknown
  double rate_per_sec = 0.0;     ///< EWMA of the completion rate
  std::uint64_t eta_ms = 0;      ///< remaining / rate, 0 when unknown
  std::uint64_t elapsed_ms = 0;  ///< since the first update()
  std::uint64_t updates = 0;     ///< update() calls so far
};

/// Thread-safe progress accumulator. One writer (the instrumented loop)
/// and any number of snapshot readers (the sampler thread); updates are
/// mutex-guarded and cheap enough for a per-batch cadence (the loops
/// update every few hundred iterations, not per step).
///
/// The rate is an exponentially weighted moving average (weight 0.3 on
/// the newest sample) of the instantaneous completion rate between
/// updates, so the ETA adapts to a speed-up or slowdown instead of
/// assuming a constant rate.
class ProgressEstimator {
 public:
  explicit ProgressEstimator(std::string name);

  const std::string& name() const { return name_; }

  /// Records progress. `total` may move between calls. The first call
  /// starts the elapsed clock.
  void update(std::uint64_t done, std::uint64_t total);

  ProgressSnapshot snapshot() const;

 private:
  const std::string name_;

  mutable std::mutex mutex_;
  std::uint64_t done_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t updates_ = 0;
  double rate_per_sec_ = 0.0;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point last_{};
  std::uint64_t last_done_ = 0;
};

}  // namespace commroute::obs
