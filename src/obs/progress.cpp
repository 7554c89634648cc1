#include "obs/progress.hpp"

#include <algorithm>
#include <utility>

namespace commroute::obs {

namespace {

/// Weight of the newest rate sample in the moving average.
constexpr double kEwmaAlpha = 0.3;

}  // namespace

ProgressEstimator::ProgressEstimator(std::string name)
    : name_(std::move(name)) {}

void ProgressEstimator::update(std::uint64_t done, std::uint64_t total) {
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (updates_ == 0) {
    start_ = now;
    last_ = now;
    last_done_ = done;
  } else if (done > last_done_ && now > last_) {
    const double dt =
        std::chrono::duration<double>(now - last_).count();
    if (dt > 0.0) {
      const double instant =
          static_cast<double>(done - last_done_) / dt;
      rate_per_sec_ = rate_per_sec_ == 0.0
                          ? instant
                          : kEwmaAlpha * instant +
                                (1.0 - kEwmaAlpha) * rate_per_sec_;
      last_ = now;
      last_done_ = done;
    }
  }
  // Monotone: concurrent workers may deliver counts out of order (the
  // campaign sweep calls update(fetch_add(1) + 1) from many threads);
  // a stale smaller count must not roll progress backwards. One
  // estimator therefore serves one task — reuse would freeze it.
  done_ = std::max(done_, done);
  total_ = total;
  ++updates_;
}

ProgressSnapshot ProgressEstimator::snapshot() const {
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  ProgressSnapshot snap;
  snap.name = name_;
  snap.done = done_;
  snap.total = total_;
  snap.updates = updates_;
  snap.rate_per_sec = rate_per_sec_;
  if (total_ > 0) {
    snap.fraction = std::min(
        1.0, static_cast<double>(done_) / static_cast<double>(total_));
    if (rate_per_sec_ > 0.0 && total_ > done_) {
      snap.eta_ms = static_cast<std::uint64_t>(
          static_cast<double>(total_ - done_) / rate_per_sec_ * 1000.0);
    }
  }
  if (updates_ > 0) {
    snap.elapsed_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
            .count());
  }
  return snap;
}

}  // namespace commroute::obs
