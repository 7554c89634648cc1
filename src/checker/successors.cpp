#include "checker/successors.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace commroute::checker {

using model::ActivationStep;
using model::MessageMode;
using model::Model;
using model::NeighborMode;
using model::Reliability;

StepEnumerator::StepEnumerator(const Model& m,
                               const SuccessorOptions& options)
    : model_(m), cap_(options.max_steps_per_state) {
  step_.nodes.resize(1);
}

void StepEnumerator::add_options(std::size_t m) {
  // Canonical processed counts i, ascending.
  std::size_t lo = 0;
  std::size_t hi = 0;
  switch (model_.messages) {
    case MessageMode::kOne:
      lo = hi = std::min<std::size_t>(1, m);
      break;
    case MessageMode::kAll:
      lo = hi = m;
      break;
    case MessageMode::kForced:
      lo = m == 0 ? 0 : 1;
      hi = m;
      break;
    case MessageMode::kSome:
      lo = 0;
      hi = m;
      break;
  }

  for (std::size_t i = lo; i <= hi; ++i) {
    // Encode the count. O requires f=1 even on an empty channel; F
    // requires f >= 1; A requires f = all. S can state i directly.
    std::optional<std::uint32_t> f;
    switch (model_.messages) {
      case MessageMode::kOne:
        f = 1u;
        break;
      case MessageMode::kAll:
        f = std::nullopt;
        break;
      case MessageMode::kForced:
        f = std::max<std::uint32_t>(1u, static_cast<std::uint32_t>(i));
        break;
      case MessageMode::kSome:
        f = static_cast<std::uint32_t>(i);
        break;
    }

    if (model_.reliability == Reliability::kReliable || i == 0) {
      options_.push_back(ReadOption{f, 0});
      continue;
    }
    // Unreliable: all subsets of {1..i} as drop sets.
    CR_REQUIRE(i <= 16, "too many messages for exhaustive drop subsets");
    const std::uint32_t subsets = 1u << i;
    for (std::uint32_t mask = 0; mask < subsets; ++mask) {
      options_.push_back(ReadOption{f, mask});
    }
  }
}

void StepEnumerator::write_read(std::size_t k, const ReadOption& option) {
  model::ReadSpec& read = step_.reads[k];
  read.channel = channels_[k];
  read.count = option.count;
  read.drops.clear();
  std::uint32_t index = 1;
  for (std::uint32_t mask = option.drop_mask; mask != 0; mask >>= 1) {
    if (mask & 1u) {
      read.drops.push_back(index);
    }
    ++index;
  }
}

void StepEnumerator::resize_reads(std::size_t n) {
  // Parks the drop buffers of removed reads instead of freeing them, so
  // channel sets of varying size (M models) reuse their capacity.
  std::vector<model::ReadSpec>& reads = step_.reads;
  while (reads.size() > n) {
    spare_drops_.push_back(std::move(reads.back().drops));
    reads.pop_back();
  }
  while (reads.size() < n) {
    reads.emplace_back();
    if (!spare_drops_.empty()) {
      reads.back().drops = std::move(spare_drops_.back());
      spare_drops_.pop_back();
    }
  }
}

void StepEnumerator::product(const engine::NetworkState& state, NodeId v,
                             Callback visit, void* fn) {
  const std::size_t n = channels_.size();
  // Every channel's options first (they can throw), then the product.
  options_.clear();
  first_.clear();
  for (const ChannelIdx c : channels_) {
    first_.push_back(options_.size());
    add_options(state.channel(c).size());
  }
  first_.push_back(options_.size());

  step_.nodes[0] = v;
  resize_reads(n);
  cursor_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    write_read(k, options_[first_[k]]);
  }
  for (;;) {
    CR_REQUIRE(visited_ < cap_,
               "successor enumeration exceeded max_steps_per_state");
    ++visited_;
    visit(fn, step_);

    // Advance the odometer, last channel fastest; rewrite only the reads
    // whose option moved. Done once every channel has wrapped.
    std::size_t k = n;
    for (;;) {
      if (k == 0) {
        return;
      }
      --k;
      if (first_[k] + ++cursor_[k] < first_[k + 1]) {
        break;
      }
      cursor_[k] = 0;
    }
    for (std::size_t j = k; j < n; ++j) {
      write_read(j, options_[first_[j] + cursor_[j]]);
    }
  }
}

std::size_t StepEnumerator::run(const engine::NetworkState& state,
                                Callback visit, void* fn) {
  const Graph& g = state.instance().graph();
  visited_ = 0;

  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::vector<ChannelIdx>& in = g.in_channels(v);
    switch (model_.neighbors) {
      case NeighborMode::kOne:
        for (const ChannelIdx c : in) {
          channels_.assign(1, c);
          product(state, v, visit, fn);
        }
        break;
      case NeighborMode::kEvery:
        channels_.assign(in.begin(), in.end());
        product(state, v, visit, fn);
        break;
      case NeighborMode::kMultiple: {
        CR_REQUIRE(in.size() <= 8,
                   "node degree too large for exhaustive M-model subsets");
        const std::size_t subsets = static_cast<std::size_t>(1)
                                    << in.size();
        for (std::size_t mask = 0; mask < subsets; ++mask) {
          channels_.clear();
          for (std::size_t bit = 0; bit < in.size(); ++bit) {
            if (mask & (static_cast<std::size_t>(1) << bit)) {
              channels_.push_back(in[bit]);
            }
          }
          product(state, v, visit, fn);
        }
        break;
      }
    }
  }
  return visited_;
}

std::vector<ActivationStep> enumerate_steps(const engine::NetworkState& state,
                                            const Model& m,
                                            const SuccessorOptions& options) {
  std::vector<ActivationStep> out;
  StepEnumerator(m, options).for_each(
      state, [&out](const ActivationStep& step) { out.push_back(step); });
  return out;
}

}  // namespace commroute::checker
