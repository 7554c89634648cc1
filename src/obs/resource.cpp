#include "obs/resource.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace commroute::obs {
namespace {

#if defined(__linux__)
/// Parses a "VmRSS:   1234 kB" style line; returns bytes or 0.
std::uint64_t parse_status_kb(const char* line) {
  const char* p = std::strchr(line, ':');
  if (p == nullptr) {
    return 0;
  }
  return std::strtoull(p + 1, nullptr, 10) * 1024u;
}
#endif

}  // namespace

ProcessMemory read_process_memory() {
  ProcessMemory mem;
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmRSS:", 6) == 0) {
        mem.rss_bytes = parse_status_kb(line);
      } else if (std::strncmp(line, "VmHWM:", 6) == 0) {
        mem.peak_rss_bytes = parse_status_kb(line);
      }
    }
    std::fclose(f);
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  if (mem.peak_rss_bytes == 0) {
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
      // ru_maxrss is kilobytes on Linux, bytes on macOS.
#if defined(__APPLE__)
      mem.peak_rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss);
#else
      mem.peak_rss_bytes =
          static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
    }
  }
#endif
  return mem;
}

TelemetrySampler::TelemetrySampler(EventSink& sink)
    : TelemetrySampler(sink, Options{}) {}

TelemetrySampler::TelemetrySampler(EventSink& sink, Options options)
    : sink_(&sink), options_(std::move(options)) {}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::add_probe(std::string name,
                                 std::function<std::uint64_t()> probe) {
  if (running()) {
    throw std::logic_error(
        "TelemetrySampler: register probes before start()");
  }
  probes_.emplace_back(std::move(name), std::move(probe));
}

void TelemetrySampler::add_progress(const ProgressEstimator* progress) {
  if (running()) {
    throw std::logic_error(
        "TelemetrySampler: register progress sources before start()");
  }
  progress_.push_back(progress);
}

void TelemetrySampler::start() {
  if (running()) {
    return;
  }
  stop_requested_ = false;
  start_time_ = std::chrono::steady_clock::now();
  // First snapshot synchronously, so even a stop() racing the thread
  // launch observes the documented start sample.
  emit_snapshot();
  thread_ = std::thread([this] { loop(); });
}

void TelemetrySampler::stop() {
  if (!running()) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Final snapshot so end-of-run state (peaks in particular) is always
  // captured, however short the run.
  emit_snapshot();
}

void TelemetrySampler::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  // start() already emitted the first snapshot; wait one interval
  // before each periodic one so stop() can cut the sequence cleanly
  // (the final snapshot is stop()'s to emit).
  while (!cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                       [this] { return stop_requested_; })) {
    lock.unlock();
    emit_snapshot();
    lock.lock();
  }
}

void TelemetrySampler::emit_snapshot() {
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start_time_)
                           .count();
  Event event("telemetry_snapshot");
  event.field("seq", seq_.fetch_add(1, std::memory_order_relaxed));
  event.field("elapsed_ms", static_cast<std::uint64_t>(elapsed));
  const ProcessMemory mem = read_process_memory();
  event.field("rss_bytes", mem.rss_bytes);
  event.field("peak_rss_bytes", mem.peak_rss_bytes);
  for (const auto& [name, probe] : probes_) {
    event.field(name, probe());
  }
  sink_->emit(event);

  for (const ProgressEstimator* source : progress_) {
    const ProgressSnapshot snap = source->snapshot();
    Event progress("progress_snapshot");
    progress.field("name", snap.name)
        .field("done", snap.done)
        .field("total", snap.total)
        .field("fraction", snap.fraction)
        .field("rate_per_sec", snap.rate_per_sec)
        .field("eta_ms", snap.eta_ms)
        .field("elapsed_ms", snap.elapsed_ms)
        .field("updates", snap.updates);
    sink_->emit(progress);
  }
}

}  // namespace commroute::obs
