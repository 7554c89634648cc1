#include "checker/state_set.hpp"

#include <type_traits>
#include <utility>

namespace commroute::checker {

namespace {

/// splitmix64 finalizer: NetworkState::hash is a composition hash whose
/// low bits drive open addressing and whose high bits pick the shard —
/// re-mixing here keeps both usable whatever the input quality.
std::size_t mix(std::size_t h) {
  std::uint64_t z = static_cast<std::uint64_t>(h);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(z ^ (z >> 31));
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

constexpr std::size_t kInitialSlots = 64;

}  // namespace

ShardedStateSet::ShardedStateSet(std::size_t shard_count)
    : shards_(round_up_pow2(shard_count == 0 ? 1 : shard_count)) {
  shard_mask_ = shards_.size() - 1;
  for (Shard& shard : shards_) {
    shard.slots.resize(kInitialSlots);
  }
}

void ShardedStateSet::insert_slot(std::vector<Slot>& slots,
                                  const Slot& slot) {
  const std::size_t mask = slots.size() - 1;
  std::size_t at = slot.hash & mask;
  while (slots[at].state != nullptr) {
    at = (at + 1) & mask;
  }
  slots[at] = slot;
}

void ShardedStateSet::grow(Shard& shard) {
  std::vector<Slot> bigger(shard.slots.size() * 2);
  for (const Slot& slot : shard.slots) {
    if (slot.state != nullptr) {
      insert_slot(bigger, slot);
    }
  }
  shard.slots = std::move(bigger);
}

template <typename State>
ShardedStateSet::InternResult ShardedStateSet::intern_impl(State&& state) {
  const std::size_t h = mix(state.hash());
  Shard& shard = shards_[(h >> 48) & shard_mask_];
  std::lock_guard<std::mutex> lock(shard.mutex);

  const std::size_t mask = shard.slots.size() - 1;
  std::size_t at = h & mask;
  while (shard.slots[at].state != nullptr) {
    const Slot& slot = shard.slots[at];
    if (slot.hash == h && *slot.state == state) {
      return InternResult{slot.id, slot.state, false};
    }
    at = (at + 1) & mask;
  }

  const std::uint32_t id =
      next_id_.fetch_add(1, std::memory_order_relaxed);
  if constexpr (std::is_lvalue_reference_v<State>) {
    shard.owned.emplace_back(state, 0);  // stored, never stepped: no slack
  } else {
    shard.owned.push_back(std::move(state));
  }
  const engine::NetworkState* payload = &shard.owned.back();
  shard.slots[at] = Slot{h, payload, id};
  shard.fresh.emplace_back(id, payload);
  // Keep the load factor under ~0.7 so probe chains stay short.
  if (++shard.used * 10 >= shard.slots.size() * 7) {
    grow(shard);
  }
  return InternResult{id, payload, true};
}

ShardedStateSet::InternResult ShardedStateSet::intern(
    const engine::NetworkState& state) {
  return intern_impl(state);
}

ShardedStateSet::InternResult ShardedStateSet::intern(
    engine::NetworkState&& state) {
  return intern_impl(std::move(state));
}

void ShardedStateSet::drain_fresh(
    std::vector<std::pair<std::uint32_t, const engine::NetworkState*>>&
        out) {
  for (Shard& shard : shards_) {
    out.insert(out.end(), shard.fresh.begin(), shard.fresh.end());
    shard.fresh.clear();
  }
}

}  // namespace commroute::checker
