// Heap allocations made by checker::explore, per interned state.
//
// An expansion reuses one step enumerator, one successor state and one
// step effect per worker and copies a successor into the seen-set only
// when it is new. Edges go into one flat array and SCCs into one flat
// member array, so the allocations that remain scale with the states
// found (their payload copy and amortized array growth), not with the
// transitions tried or the SCCs formed. This suite replaces the global
// operator new/delete to count them, which is why it is its own
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "checker/explorer.hpp"
#include "spp/gadgets.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void* allocate(std::size_t n) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace commroute::checker {
namespace {

using model::Model;

struct Counted {
  ExploreResult result;
  std::uint64_t allocations = 0;

  double per_state() const {
    return static_cast<double>(allocations) /
           static_cast<double>(result.states);
  }
};

/// Explores on the calling thread, counting allocations only inside the
/// explore() call.
Counted explore_counted(const spp::Instance& inst, const Model& m,
                        std::size_t bound) {
  ExploreOptions options;
  options.max_channel_length = bound;
  options.threads = 1;
  Counted counted;
  allocations.store(0);
  counting.store(true);
  counted.result = explore(inst, m, options);
  counting.store(false);
  counted.allocations = allocations.load();
  return counted;
}

TEST(CheckerAllocs, CountingSeesAllocations) {
  allocations.store(0);
  counting.store(true);
  auto* probe = new std::uint64_t[4];
  counting.store(false);
  delete[] probe;
  EXPECT_EQ(allocations.load(), 1u);
}

TEST(CheckerAllocs, SmallGadgetsAllModelsAtBound3) {
  for (const spp::Instance& inst : {spp::disagree(), spp::example_a4()}) {
    for (const Model& m : Model::all()) {
      const Counted counted = explore_counted(inst, m, 3);
      ASSERT_GT(counted.result.states, 0u);
      EXPECT_LE(counted.per_state(), 16.0)
          << m.name() << ": " << counted.allocations << " allocations for "
          << counted.result.states << " states";
    }
  }
}

TEST(CheckerAllocs, BadGadgetR1OAtBound2) {
  const spp::Instance inst = spp::bad_gadget();
  const Counted counted = explore_counted(inst, Model::parse("R1O"), 2);
  EXPECT_EQ(counted.result.states, 38720u);
  // About 1.2: one payload copy per state plus amortized growth. A
  // heap row per state (edges or SCC members) would take it past 2.
  EXPECT_LE(counted.per_state(), 2.0)
      << counted.allocations << " allocations for "
      << counted.result.states << " states";
}

}  // namespace
}  // namespace commroute::checker
