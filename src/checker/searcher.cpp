#include "checker/searcher.hpp"

#include <utility>

#include "support/error.hpp"

namespace commroute::checker {

std::string to_string(SearcherKind kind) {
  switch (kind) {
    case SearcherKind::kBFS:
      return "bfs";
    case SearcherKind::kDFS:
      return "dfs";
    case SearcherKind::kRandomPath:
      return "random";
    case SearcherKind::kPriorityFlap:
      return "priority";
  }
  throw InvariantError("unknown SearcherKind");
}

SearcherKind parse_searcher_kind(std::string_view name) {
  if (name == "bfs") {
    return SearcherKind::kBFS;
  }
  if (name == "dfs") {
    return SearcherKind::kDFS;
  }
  if (name == "random") {
    return SearcherKind::kRandomPath;
  }
  if (name == "priority") {
    return SearcherKind::kPriorityFlap;
  }
  throw PreconditionError("unknown searcher '" + std::string(name) +
                          "' (expected bfs, dfs, random, or priority)");
}

Frontier::Frontier(SearcherKind kind, std::uint64_t seed)
    : kind_(kind), rng_(seed) {}

void Frontier::push(StateId id, bool pi_changed) {
  if (kind_ == SearcherKind::kPriorityFlap && pi_changed) {
    flapped_.push_back(id);
  } else {
    states_.push_back(id);
  }
}

StateId Frontier::pop() {
  CR_REQUIRE(!empty(), "pop() on an empty frontier");
  StateId id;
  if (!flapped_.empty()) {
    id = flapped_.back();
    flapped_.pop_back();
  } else if (kind_ == SearcherKind::kBFS) {
    id = states_.front();
    states_.pop_front();
  } else {
    if (kind_ == SearcherKind::kRandomPath) {
      const auto pick = static_cast<std::size_t>(rng_.below(states_.size()));
      std::swap(states_[pick], states_.back());
    }
    id = states_.back();
    states_.pop_back();
  }
  return id;
}

}  // namespace commroute::checker
