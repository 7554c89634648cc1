#include "checker/targeted.hpp"

#include <deque>
#include <sstream>
#include <unordered_map>

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

  // The search compares every successor against target entries: rebuild
  // them once rather than per lookup.
  const std::vector<trace::Assignment> target_at = target.states();
  engine::NetworkState initial(instance);
  CR_REQUIRE(initial.assignments() == target_at[0],
             "target trace must start at the initial assignment");
  const std::size_t last = target.size() - 1;
  if (target.size() == 1 && !options.require_convergent_tail) {
    result.found = true;
    result.exhaustive = true;
    return result;
  }

  struct Config {
    engine::NetworkState state;
    std::size_t pos;  ///< index of the last matched target element
    std::size_t parent;
    model::ActivationStep via;
  };

  std::vector<Config> configs;
  std::unordered_map<std::size_t, std::vector<std::size_t>> visited;
  std::deque<std::size_t> frontier;

  const auto config_key = [](const engine::NetworkState& s,
                             std::size_t pos) {
    std::size_t key = s.hash();
    hash_combine_value(key, pos);
    return key;
  };

  const auto intern = [&](engine::NetworkState s, std::size_t pos,
                          std::size_t parent,
                          const model::ActivationStep& via) -> bool {
    const std::size_t key = config_key(s, pos);
    for (const std::size_t id : visited[key]) {
      if (configs[id].pos == pos && configs[id].state == s) {
        return false;
      }
    }
    configs.push_back(Config{std::move(s), pos, parent, via});
    visited[key].push_back(configs.size() - 1);
    frontier.push_back(configs.size() - 1);
    return true;
  };

  SuccessorOptions successor_options;
  successor_options.max_steps_per_state = options.max_steps_per_state;

  bool truncated = false;
  intern(std::move(initial), 0, static_cast<std::size_t>(-1), {});

  while (!frontier.empty()) {
    if (configs.size() > options.max_configs) {
      truncated = true;
      break;
    }
    const std::size_t id = frontier.front();
    frontier.pop_front();

    // Copy indices out: configs may reallocate as we intern successors.
    const std::size_t pos = configs[id].pos;
    const std::vector<model::ActivationStep> steps =
        enumerate_steps(configs[id].state, m, successor_options);

    for (const model::ActivationStep& step : steps) {
      engine::NetworkState next = configs[id].state;
      engine::execute_step(next, step);
      if (next.max_channel_length() > options.max_channel_length) {
        truncated = true;
        continue;
      }
      const trace::Assignment pi = next.assignments();

      std::optional<std::size_t> next_pos;
      if (pos == last) {
        // Tail phase: the assignment must hold at target.back() until
        // strong quiescence (only reachable with require_convergent_tail).
        if (pi == target_at[last]) {
          next_pos = last;
        }
      } else {
        switch (sense) {
          case trace::MatchKind::kExact:
            if (pi == target_at[pos + 1]) {
              next_pos = pos + 1;
            }
            break;
          case trace::MatchKind::kRepetition:
            if (pi == target_at[pos + 1]) {
              next_pos = pos + 1;
            } else if (pi == target_at[pos]) {
              next_pos = pos;
            }
            break;
          case trace::MatchKind::kSubsequence:
            next_pos = (pi == target_at[pos + 1]) ? pos + 1 : pos;
            break;
          case trace::MatchKind::kNone:
            break;
        }
      }
      if (!next_pos.has_value()) {
        continue;
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
        result.configs_explored = configs.size();
        result.exhaustive = true;
        return result;
      }
      intern(std::move(next), *next_pos, id, step);
    }
  }

  result.configs_explored = configs.size();
  result.exhaustive = !truncated;
  return result;
}

}  // namespace commroute::checker
