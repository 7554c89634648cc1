// Canonical successor-step enumeration for the model checker.
//
// For a given model and network state, enumerates every activation step
// that is (a) legal in the model and (b) canonically distinct: processing
// f > m messages from a channel holding m has the same effect as
// processing exactly m, so only the canonical representative is emitted.
// Drop sets range over all subsets of the processed prefix for unreliable
// models.
//
// Order (state numbering, witnesses and frontier peaks depend on it):
// nodes ascending; per node, the neighbor-mode channel sets (each
// in-channel alone for 1, the full set for E, in-channel masks ascending
// for M); per set, the product of per-channel (f, g) options with the
// last channel varying fastest, each channel's options ordered by
// processed count ascending, then drop mask ascending.
//
// The enumeration is exponential in node degree (M models) and in the
// number of processed messages (U models); it is intended for the small
// gadget instances the paper analyzes, and guards against misuse.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "engine/state.hpp"
#include "model/activation.hpp"

namespace commroute::checker {

struct SuccessorOptions {
  /// Hard cap on the steps generated for one state (throws if exceeded;
  /// a blown cap means the instance is too large for exhaustive search).
  std::size_t max_steps_per_state = 20000;
};

/// Streams the canonical legal steps of one model without materializing
/// them: every step is written into one reused ActivationStep, and the
/// per-channel options live in buffers the enumerator keeps, so a warmed
/// enumerator allocates nothing per state. Not thread-safe; keep one per
/// worker.
class StepEnumerator {
 public:
  StepEnumerator(const model::Model& m, const SuccessorOptions& options = {});

  /// Calls `visit(const model::ActivationStep&)` for every canonical
  /// legal step of the model from `state` (single-node steps), in the
  /// order above, and returns how many it visited. The step is valid
  /// only during the call. Throws PreconditionError, before visiting the
  /// step past the cap, when the state has more than
  /// max_steps_per_state steps.
  template <typename Visit>
  std::size_t for_each(const engine::NetworkState& state, Visit&& visit) {
    using Fn = std::remove_reference_t<Visit>;
    return run(
        state,
        [](void* fn, const model::ActivationStep& step) {
          (*static_cast<Fn*>(fn))(step);
        },
        const_cast<void*>(static_cast<const void*>(&visit)));
  }

 private:
  /// One canonical (f, g) choice for a channel: f as the step states
  /// it, and g as a bit mask over the processed messages (bit b set =
  /// message b + 1 dropped).
  struct ReadOption {
    std::optional<std::uint32_t> count;
    std::uint32_t drop_mask = 0;
  };

  using Callback = void (*)(void*, const model::ActivationStep&);

  std::size_t run(const engine::NetworkState& state, Callback visit,
                  void* fn);
  /// Appends the options of a channel holding `m` messages to options_.
  void add_options(std::size_t m);
  /// Visits the product of the options of channels_, for node v.
  void product(const engine::NetworkState& state, NodeId v, Callback visit,
               void* fn);
  void resize_reads(std::size_t n);
  void write_read(std::size_t k, const ReadOption& option);

  model::Model model_;
  std::size_t cap_;
  std::size_t visited_ = 0;
  model::ActivationStep step_;
  std::vector<ChannelIdx> channels_;  ///< the channel set being expanded
  std::vector<ReadOption> options_;   ///< every channel's options, flat
  std::vector<std::size_t> first_;    ///< channel k's options start here
  std::vector<std::size_t> cursor_;   ///< product odometer, one per channel
  /// Drop buffers of the reads resize_reads removed, kept for reuse.
  std::vector<std::vector<std::uint32_t>> spare_drops_;
};

/// All canonical legal steps of `m` from `state` (single-node steps):
/// copies of what StepEnumerator visits, in the same order.
std::vector<model::ActivationStep> enumerate_steps(
    const engine::NetworkState& state, const model::Model& m,
    const SuccessorOptions& options = {});

}  // namespace commroute::checker
