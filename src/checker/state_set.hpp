// Sharded concurrent seen-set for the parallel explorer. Replaces the
// serial ConfigGraph hash index (an unordered_map of collision chains):
// states hash-partition across shards, each shard an open-addressing
// table under its own mutex, so expansion workers intern successors
// concurrently with contention only on same-shard collisions.
//
// Ids and determinism: intern() assigns *provisional* ids from a global
// atomic counter, in whatever order the workers race. Provisional ids
// are stable names for distinct states (two workers interning equal
// states always receive the same id) but their numeric order is
// scheduling-dependent — the explorer's merge phase re-numbers them into
// final StateIds in deterministic enumeration order (see explorer.cpp),
// which is why exploration results are byte-identical at any thread
// width. Payloads live in per-shard deques and never relocate,
// so the `const NetworkState*` returned alongside an id stays valid for
// the set's lifetime; the merged graph indexes those pointers instead
// of copying states a second time.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/state.hpp"

namespace commroute::checker {

class ShardedStateSet {
 public:
  struct InternResult {
    std::uint32_t id = 0;  ///< provisional id (dense, racing order)
    const engine::NetworkState* state = nullptr;  ///< shard-owned payload
    bool inserted = false;  ///< this call created the entry
  };

  /// `shard_count` is rounded up to a power of two (at least 1).
  explicit ShardedStateSet(std::size_t shard_count = 16);

  /// Looks `state` up; absent, copies it into shard storage under a
  /// fresh provisional id, so a caller can reuse one scratch state for
  /// every successor and pay for a copy only when the state is new. The
  /// copy reserves no spare words (NetworkState(state, 0)): a stored
  /// state is never stepped.
  /// Thread-safe; locks exactly one shard.
  InternResult intern(const engine::NetworkState& state);

  /// The same lookup; absent, moves `state` into shard storage.
  InternResult intern(engine::NetworkState&& state);

  /// Distinct states interned so far (monotone; safe from any thread).
  std::size_t size() const {
    return next_id_.load(std::memory_order_relaxed);
  }

  /// Deterministic byte estimate of one interned entry's index overhead
  /// (the table slot; the payload accounts separately via
  /// NetworkState::estimated_bytes).
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }

  /// Drains the (id, payload) pairs interned since the last call, in no
  /// particular order. Single-threaded contract: call only between
  /// expansion waves, never concurrently with intern().
  void drain_fresh(
      std::vector<std::pair<std::uint32_t, const engine::NetworkState*>>&
          out);

 private:
  struct Slot {
    std::size_t hash = 0;
    const engine::NetworkState* state = nullptr;  ///< nullptr = empty
    std::uint32_t id = 0;
  };

  struct Shard {
    std::mutex mutex;
    std::vector<Slot> slots;  ///< power-of-two, linear probing
    std::size_t used = 0;
    std::deque<engine::NetworkState> owned;
    std::vector<std::pair<std::uint32_t, const engine::NetworkState*>>
        fresh;
  };

  template <typename State>
  InternResult intern_impl(State&& state);
  static void insert_slot(std::vector<Slot>& slots, const Slot& slot);
  void grow(Shard& shard);

  std::vector<Shard> shards_;
  std::size_t shard_mask_ = 0;
  std::atomic<std::uint32_t> next_id_{0};
};

}  // namespace commroute::checker
