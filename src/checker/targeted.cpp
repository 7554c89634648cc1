#include "checker/targeted.hpp"

#include <deque>
#include <optional>
#include <sstream>
#include <utility>

#include "checker/state_set.hpp"
#include "checker/successors.hpp"
#include "engine/executor.hpp"
#include "engine/runner.hpp"
#include "support/error.hpp"

namespace commroute::checker {

std::string RealizationSearchResult::summary() const {
  std::ostringstream os;
  if (found) {
    os << "realizable (witness has " << witness.size() << " steps, "
       << configs_explored << " configurations explored)";
  } else {
    os << "not realizable ("
       << (exhaustive ? "proof: search exhaustive" : "within bounds only")
       << ", " << configs_explored << " configurations explored)";
  }
  return os.str();
}

RealizationSearchResult find_realization(
    const spp::Instance& instance, const model::Model& m,
    const trace::Trace& target, trace::MatchKind sense,
    const RealizationSearchOptions& options) {
  CR_REQUIRE(sense != trace::MatchKind::kNone,
             "sense must be a realization relation");
  CR_REQUIRE(!target.empty(), "target trace must be non-empty");

  RealizationSearchResult result;

  engine::NetworkState initial(instance);
  CR_REQUIRE(initial.assignments() == target.at(0),
             "target trace must start at the initial assignment");
  // The search compares every successor against target entries: turn
  // them into per-node path ids once. A path no state can hold gets
  // kNoPath, which no assignment id equals.
  const std::size_t n = instance.node_count();
  std::vector<spp::PathId> target_ids;
  target_ids.reserve(target.size() * n);
  for (const trace::Assignment& a : target.states()) {
    for (const Path& p : a) {
      target_ids.push_back(instance.path_id(p).value_or(spp::kNoPath));
    }
  }
  const std::size_t last = target.size() - 1;
  if (target.size() == 1 && !options.require_convergent_tail) {
    result.found = true;
    result.exhaustive = true;
    return result;
  }

  // A configuration is an interned state and the target position it has
  // matched; the BFS expands configurations in the order they are
  // discovered and reconstructs the witness through `parent`.
  struct Config {
    const engine::NetworkState* state;
    std::size_t pos;  ///< index of the last matched target element
    std::size_t parent;
    model::ActivationStep via;
  };
  std::vector<Config> configs;
  std::deque<std::size_t> frontier;
  // Each distinct state is stored once, whatever positions it is matched
  // at; `seen` marks the (state id, position) pairs already queued.
  ShardedStateSet states(1);
  std::vector<std::pair<std::uint32_t, const engine::NetworkState*>> fresh;
  std::vector<bool> seen;
  const auto enqueue = [&](const ShardedStateSet::InternResult& interned,
                           std::size_t pos, std::size_t parent,
                           const model::ActivationStep& via) {
    const std::size_t key = interned.id * target.size() + pos;
    if (seen.size() <= key) {
      seen.resize(states.size() * target.size(), false);
    }
    if (seen[key]) {
      return;
    }
    seen[key] = true;
    configs.push_back(Config{interned.state, pos, parent, via});
    frontier.push_back(configs.size() - 1);
  };

  // Expansion scratch, as in explore(): each successor is built in
  // `next` and copied into `states` only when new.
  StepEnumerator steps(m, SuccessorOptions{options.max_steps_per_state});
  engine::NetworkState next(instance);
  engine::StepEffect effect;
  // True when `next` holds target entry t.
  const auto matches = [&](std::size_t t) {
    const spp::PathId* ids = target_ids.data() + t * n;
    for (NodeId v = 0; v < n; ++v) {
      if (next.assignment_id(v) != ids[v]) {
        return false;
      }
    }
    return true;
  };

  bool truncated = false;
  enqueue(states.intern(std::move(initial)), 0, static_cast<std::size_t>(-1),
          {});

  while (!frontier.empty() && !result.found) {
    if (configs.size() > options.max_configs) {
      truncated = true;
      break;
    }
    const std::size_t id = frontier.front();
    frontier.pop_front();
    // `configs` may reallocate as successors are queued; the interned
    // state does not move.
    const engine::NetworkState& state = *configs[id].state;
    const std::size_t pos = configs[id].pos;

    // Once a witness is found the rest of the steps are skipped; the
    // enumeration still runs to the end, so a state over
    // max_steps_per_state throws whether or not a witness came first.
    steps.for_each(state, [&](const model::ActivationStep& step) {
      if (result.found) {
        return;
      }
      next = state;
      engine::execute_step(next, step, effect);
      // Beyond the bound: prune. Only the channels this step sent on can
      // be: `state` is within the bound, reads only shrink queues, and a
      // step pushes at most once per channel, after its reads.
      for (const engine::SentMessage& sent : effect.sent) {
        if (next.channel(sent.channel).size() > options.max_channel_length) {
          truncated = true;
          return;
        }
      }
      std::optional<std::size_t> next_pos;
      if (pos == last) {
        // Tail phase: the assignment must hold at target.back() until
        // strong quiescence (only reachable with require_convergent_tail).
        if (matches(last)) {
          next_pos = last;
        }
      } else {
        switch (sense) {
          case trace::MatchKind::kExact:
            if (matches(pos + 1)) {
              next_pos = pos + 1;
            }
            break;
          case trace::MatchKind::kRepetition:
            if (matches(pos + 1)) {
              next_pos = pos + 1;
            } else if (matches(pos)) {
              next_pos = pos;
            }
            break;
          case trace::MatchKind::kSubsequence:
            next_pos = matches(pos + 1) ? pos + 1 : pos;
            break;
          case trace::MatchKind::kNone:
            break;
        }
      }
      if (!next_pos.has_value()) {
        return;
      }

      const bool accepted =
          (*next_pos == last) &&
          (!options.require_convergent_tail ||
           engine::strongly_quiescent(next));
      if (accepted) {
        // Reconstruct the witness.
        result.found = true;
        std::vector<model::ActivationStep> rev{step};
        for (std::size_t at = id; configs[at].parent !=
                                  static_cast<std::size_t>(-1);
             at = configs[at].parent) {
          rev.push_back(configs[at].via);
        }
        result.witness.assign(rev.rbegin(), rev.rend());
        return;
      }
      enqueue(states.intern(next), *next_pos, id, step);
    });
    // intern() already returned the new ids: empty the fresh list so it
    // does not grow unread.
    fresh.clear();
    states.drain_fresh(fresh);
  }

  result.configs_explored = configs.size();
  result.exhaustive = result.found || !truncated;
  return result;
}

}  // namespace commroute::checker
