// Exploration order for checker::explore: the explorer keeps its
// frontier of interned states in a Frontier, which hands them out in the
// order the configured SearcherKind picks. The kind only affects the
// *order* states are expanded in — on an exhaustive exploration the
// reachable set, transition count, and verdict are order-independent,
// so every kind proves the same theorem; on truncated runs the kind
// decides which corner of the state space the budget is spent on.
//
//   * kBFS       — FIFO; the default, byte-identical at any thread width.
//   * kDFS       — LIFO; drills deep executions first, useful when long
//                  schedules reach the interesting SCC sooner.
//   * kRandomPath — uniformly random frontier pick from a seeded Rng;
//                  an unbiased sample of the space under a state cap.
//   * kPriorityFlap — most-recently-flapped first: states discovered
//                  via an assignment-changing edge are expanded before
//                  quiet ones (LIFO within each class), surfacing
//                  oscillation witnesses with fewer expansions.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace commroute::checker {

/// Dense id of an interned configuration in the explorer's graph.
using StateId = std::uint32_t;

enum class SearcherKind {
  kBFS,
  kDFS,
  kRandomPath,
  kPriorityFlap,
};

std::string to_string(SearcherKind kind);

/// Parses "bfs" / "dfs" / "random" / "priority" (case-sensitive);
/// throws PreconditionError on anything else.
SearcherKind parse_searcher_kind(std::string_view name);

/// The states waiting for expansion. pop() takes:
///   * kBFS: the oldest state;
///   * kDFS: the newest state;
///   * kRandomPath: a state drawn with rng.below(size()), swapped to the
///     back and removed from there;
///   * kPriorityFlap: the newest state pushed with `pi_changed`, else the
///     newest of the rest.
/// Single-threaded: the explorer pushes and pops only on its merge
/// thread.
class Frontier {
 public:
  /// `seed` feeds kRandomPath only.
  Frontier(SearcherKind kind, std::uint64_t seed);

  /// Enqueues a newly interned state; `pi_changed` says its discovery
  /// edge changed some node's path assignment.
  void push(StateId id, bool pi_changed);

  /// Removes and returns the next state to expand. Requires !empty().
  StateId pop();

  bool empty() const { return size() == 0; }
  std::size_t size() const { return states_.size() + flapped_.size(); }

 private:
  SearcherKind kind_;
  Rng rng_;
  std::deque<StateId> states_;
  std::vector<StateId> flapped_;  ///< kPriorityFlap's flapped states
};

}  // namespace commroute::checker
