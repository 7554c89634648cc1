#include "obs/spans.hpp"

#include <algorithm>

namespace commroute::obs {

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    collector_ = other.collector_;
    id_ = other.id_;
    parent_ = other.parent_;
    adopted_ = other.adopted_;
    tid_ = other.tid_;
    start_ = other.start_;
    name_ = std::move(other.name_);
    args_ = std::move(other.args_);
    has_args_ = other.has_args_;
    other.collector_ = nullptr;
  }
  return *this;
}

std::uint64_t Span::elapsed_us() const {
  if (collector_ == nullptr) {
    return 0;
  }
  const auto d = std::chrono::steady_clock::now() - start_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

void Span::finish() {
  if (collector_ == nullptr) {
    return;
  }
  const std::uint64_t dur_us = elapsed_us();
  collector_->record(*this, dur_us);
  collector_ = nullptr;
}

SpanCollector::ThreadState& SpanCollector::state_for(
    std::thread::id thread) {
  for (ThreadState& state : threads_) {
    if (state.thread == thread) {
      return state;
    }
  }
  threads_.push_back(ThreadState{thread, next_tid_++, {}});
  return threads_.back();
}

Span SpanCollector::begin(std::string_view name) {
  const auto start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  ThreadState& state = state_for(std::this_thread::get_id());
  const std::uint32_t id = next_id_++;
  const bool adopted = state.open.empty() && root_parent_ != 0;
  const std::uint32_t parent = state.open.empty() ? root_parent_
                                                  : state.open.back();
  state.open.push_back(id);
  return Span(this, id, parent, adopted, state.tid, start, name);
}

std::uint32_t SpanCollector::open_span() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id me = std::this_thread::get_id();
  for (const ThreadState& state : threads_) {
    if (state.thread == me) {
      return state.open.empty() ? 0 : state.open.back();
    }
  }
  return 0;
}

void SpanCollector::set_root_parent(std::uint32_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  root_parent_ = parent;
}

void SpanCollector::record(Span& span, std::uint64_t dur_us) {
  SpanRecord rec;
  rec.id = span.id_;
  rec.parent = span.parent_;
  rec.adopted = span.adopted_;
  rec.tid = span.tid_;
  rec.start_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(span.start_ -
                                                            epoch_)
          .count());
  rec.dur_us = dur_us;
  rec.name = std::move(span.name_);
  if (span.has_args_) {
    rec.args_json = span.args_.str();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  // Close the span in its thread's open stack. RAII nesting makes this
  // the top entry; a moved span finished out of order is found deeper.
  for (ThreadState& state : threads_) {
    if (state.tid != span.tid_) {
      continue;
    }
    const auto it =
        std::find(state.open.rbegin(), state.open.rend(), span.id_);
    if (it != state.open.rend()) {
      state.open.erase(std::next(it).base());
    }
    break;
  }
  records_.push_back(std::move(rec));
}

void SpanCollector::merge_from(const SpanCollector& other) {
  if (&other == this) {
    return;
  }
  std::scoped_lock lock(mutex_, other.mutex_);
  const std::uint32_t id_base = next_id_ - 1;
  const std::uint32_t tid_base = next_tid_;
  const std::int64_t shift_us =
      std::chrono::duration_cast<std::chrono::microseconds>(other.epoch_ -
                                                            epoch_)
          .count();
  records_.reserve(records_.size() + other.records_.size());
  for (const SpanRecord& rec : other.records_) {
    SpanRecord merged = rec;
    merged.id += id_base;
    if (merged.adopted) {
      merged.adopted = false;  // the parent is one of ours already
    } else if (merged.parent != 0) {
      merged.parent += id_base;
    }
    merged.tid += tid_base;
    const std::int64_t ts = static_cast<std::int64_t>(rec.start_us) + shift_us;
    merged.start_us = ts > 0 ? static_cast<std::uint64_t>(ts) : 0;
    records_.push_back(std::move(merged));
  }
  next_id_ += other.next_id_ - 1;
  next_tid_ += other.next_tid_;
}

std::vector<SpanRecord> SpanCollector::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::size_t SpanCollector::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void spans_to_jsonl(const SpanCollector& collector, EventSink& sink) {
  for (const SpanRecord& rec : collector.snapshot()) {
    Event event("span");
    event.field("name", rec.name)
        .field("id", static_cast<std::uint64_t>(rec.id))
        .field("parent", static_cast<std::uint64_t>(rec.parent))
        .field("tid", static_cast<std::uint64_t>(rec.tid))
        .field("ts_us", rec.start_us)
        .field("dur_us", rec.dur_us);
    if (!rec.args_json.empty()) {
      event.raw_field("args", rec.args_json);
    }
    sink.emit(event);
  }
}

}  // namespace commroute::obs
