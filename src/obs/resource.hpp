// Resource telemetry: the fourth observability pillar next to metrics,
// events, and spans. Two pieces:
//
//   * ProcessMemory / read_process_memory() — the OS view: current and
//     peak RSS from /proc/self/status (VmRSS/VmHWM) with a getrusage
//     fallback. Inherently machine-dependent; quarantined to artifacts
//     that already carry wall-clock values (BENCH_*.json metrics,
//     telemetry snapshots).
//   * TelemetrySampler — a background thread emitting periodic
//     "telemetry_snapshot" JSONL events (RSS, caller probes) to a
//     *dedicated* sink. Off by default and never on the hot path: the
//     sampler only reads.
//
// The deterministic byte estimates (element counts times unit sizes,
// never capacity() or the allocator) live with the structures they
// describe: ExploreResult::tracked_peak_bytes, the engine's
// peak_channel_bytes. Those may appear in byte-diffed CSV/JSON outputs.
//
// Determinism quarantine rule (same as wall_ms): snapshots carry
// wall-clock and RSS values, so they must never be routed into an event
// stream that is byte-compared across runs or thread widths — give the
// sampler its own FileSink (see CampaignSpec::telemetry_sink).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "obs/progress.hpp"

namespace commroute::obs {

/// Process-level memory as the OS accounts it, in bytes. Zero fields
/// mean "unavailable on this platform" (both sources are Linux-shaped;
/// everything degrades gracefully elsewhere).
struct ProcessMemory {
  std::uint64_t rss_bytes = 0;       ///< VmRSS: resident set right now
  std::uint64_t peak_rss_bytes = 0;  ///< VmHWM / ru_maxrss: lifetime peak
};

/// Reads /proc/self/status (VmRSS, VmHWM); falls back to
/// getrusage(RUSAGE_SELF) for the peak when /proc is unavailable.
ProcessMemory read_process_memory();

/// Background sampler: every `interval_ms` it emits one
/// "telemetry_snapshot" event carrying a monotone `seq`, `elapsed_ms`
/// since start(), process RSS, and every probe (as `<name>`). One
/// snapshot is emitted immediately on start(), so even sub-interval runs
/// produce at least one sample.
///
/// Registration must finish before start() (enforced); probes run on
/// the sampler thread and must only read thread-safe state (atomics,
/// mutex-guarded accessors). The sink is written exclusively by the
/// sampler thread between start() and stop() — hand it a dedicated
/// FileSink, not the deterministic event stream (see file comment).
class TelemetrySampler {
 public:
  struct Options {
    std::uint64_t interval_ms = 250;
  };

  explicit TelemetrySampler(EventSink& sink);
  TelemetrySampler(EventSink& sink, Options options);
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;
  /// Stops the sampler thread if still running.
  ~TelemetrySampler();

  /// Adds a caller-defined probe (queue depth, tasks executed, ...).
  /// Must precede start(); see the thread-safety note above.
  void add_probe(std::string name, std::function<std::uint64_t()> probe);

  /// Adds a progress source: each sampler tick additionally emits one
  /// "progress_snapshot" event (name, done/total, fraction, EWMA rate,
  /// ETA) per registered estimator. The estimator is borrowed, must
  /// outlive the sampler, and must precede start(). Rate/ETA are
  /// wall-clock derived — same quarantine rule as RSS.
  void add_progress(const ProgressEstimator* progress);

  /// Launches the sampler thread and emits the first snapshot.
  void start();

  /// Emits one final snapshot, stops, and joins (idempotent). After
  /// stop() the sink is no longer touched.
  void stop();

  bool running() const { return thread_.joinable(); }

  /// Snapshots emitted so far.
  std::uint64_t snapshots() const {
    return seq_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  void emit_snapshot();

  EventSink* sink_;
  Options options_;
  std::vector<std::pair<std::string, std::function<std::uint64_t()>>>
      probes_;
  std::vector<const ProgressEstimator*> progress_;
  std::chrono::steady_clock::time_point start_time_{};
  std::atomic<std::uint64_t> seq_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace commroute::obs
