// Hierarchical span tracing for the hot loops: an RAII Span measures one
// named region on the monotonic clock, nests under the innermost span
// still open on the same thread, and carries key/value attributes. A
// thread-safe SpanCollector owns the finished records. Like the rest of
// the obs layer everything is opt-in: a detached span (null collector)
// never reads the clock or allocates, so instrumented code can create
// spans unconditionally through the nullable-handle guard idiom.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/events.hpp"
#include "obs/json.hpp"

namespace commroute::obs {

class SpanCollector;

/// One finished span. `start_us` is measured from the collector's epoch
/// (its construction time), so every record in a collector shares one
/// timeline — exactly what the Chrome trace-event `ts` field wants.
struct SpanRecord {
  std::uint32_t id = 0;      ///< 1-based, unique within the collector
  std::uint32_t parent = 0;  ///< 0 = root span
  std::uint32_t tid = 0;     ///< dense thread number (first-use order)
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::string name;
  std::string args_json;  ///< "{...}" of attributes; "" when none
  /// `parent` names a span of the collector this one merges into (a root
  /// begun under SpanCollector::set_root_parent); merge_from keeps it.
  bool adopted = false;
};

/// RAII measurement of one region. Move-only; records into its collector
/// when finished (explicitly or on destruction). A default-constructed
/// span is disabled: every member is a no-op and elapsed_us() is 0.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  bool enabled() const { return collector_ != nullptr; }

  /// Attaches a key/value attribute (rendered into the record's args
  /// object). No-op when disabled; keys should be unique per span.
  template <typename T>
  Span& attr(std::string_view key, T&& value) {
    if (collector_ != nullptr) {
      args_.field(key, std::forward<T>(value));
      has_args_ = true;
    }
    return *this;
  }

  /// Microseconds since the span started; 0 when disabled or finished.
  std::uint64_t elapsed_us() const;

  /// Records the span into its collector and disables it (idempotent).
  void finish();

 private:
  friend class SpanCollector;
  Span(SpanCollector* collector, std::uint32_t id, std::uint32_t parent,
       bool adopted, std::uint32_t tid,
       std::chrono::steady_clock::time_point start, std::string_view name)
      : collector_(collector),
        id_(id),
        parent_(parent),
        adopted_(adopted),
        tid_(tid),
        start_(start),
        name_(name) {}

  SpanCollector* collector_ = nullptr;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  bool adopted_ = false;
  std::uint32_t tid_ = 0;
  std::chrono::steady_clock::time_point start_{};
  std::string name_;
  JsonWriter args_;
  bool has_args_ = false;
};

/// Owns finished spans and the per-thread nesting state. begin() and
/// Span::finish() take one mutex each; for the instrumented loops (a few
/// spans per step/expansion, only when attached) this is far below noise.
class SpanCollector {
 public:
  SpanCollector() : epoch_(std::chrono::steady_clock::now()) {}
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Starts a span nested under the calling thread's innermost open span
  /// (or, with none open, under the root parent; see set_root_parent).
  Span begin(std::string_view name);

  /// The calling thread's innermost open span (0 = none).
  std::uint32_t open_span() const;

  /// Spans begun on a thread with nothing open here become children of
  /// `parent`, a span id in the collector this one will be merged into
  /// (0 = they stay roots). A parallel section gives its worker shards
  /// the submitting thread's open_span(), so merged traces keep their
  /// tree at any thread width.
  void set_root_parent(std::uint32_t parent);

  /// Copy of all finished records, in finish order.
  std::vector<SpanRecord> snapshot() const;

  /// Appends another collector's *finished* records to this one, with
  /// ids, parents, and tids offset into fresh ranges and timestamps
  /// re-based from `other`'s epoch onto this collector's epoch (so the
  /// merged timeline stays consistent). Parent links between `other`'s
  /// own records are preserved; roots begun under its root parent keep
  /// that parent (already an id here); other roots stay roots. Spans
  /// still open in `other` are not migrated. This is how per-worker span
  /// shards collapse into a campaign-level collector after a parallel
  /// sweep.
  void merge_from(const SpanCollector& other);

  /// Number of finished records so far.
  std::size_t size() const;

 private:
  friend class Span;
  void record(Span& span, std::uint64_t dur_us);

  struct ThreadState {
    std::thread::id thread;
    std::uint32_t tid = 0;
    std::vector<std::uint32_t> open;  ///< stack of open span ids
  };
  /// Caller must hold mutex_.
  ThreadState& state_for(std::thread::id thread);

  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint32_t next_id_ = 1;
  std::uint32_t next_tid_ = 0;
  std::uint32_t root_parent_ = 0;
  std::vector<ThreadState> threads_;
  std::vector<SpanRecord> records_;
};

/// Nullable-handle guard: a disabled span when `collector` is null, so
/// code without an Instrumentation at hand keeps the zero-cost idiom.
inline Span begin_span(SpanCollector* collector, std::string_view name) {
  return collector != nullptr ? collector->begin(name) : Span{};
}

/// Emits every finished span as one "span" JSONL event (fields: name,
/// id, parent, tid, ts_us, dur_us, args) — the format `commroute-obs
/// convert` maps losslessly onto Chrome trace-event slices.
void spans_to_jsonl(const SpanCollector& collector, EventSink& sink);

}  // namespace commroute::obs
