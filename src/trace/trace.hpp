// Path-assignment traces: the sequences {pi(t)}_t that Def. 3.2 compares.
//
// A Trace stands for the full path assignment after every step, starting
// with the initial assignment pi(0) (pi_d = (d), everything else epsilon).
// It stores pi(0) and, for each step, only the (node, path) pairs that
// changed, sorted by node: appending a step costs what the step changed,
// not the size of the network. at(t) and states() rebuild full
// assignments by value; back() is kept current as steps are appended.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "spp/instance.hpp"

namespace commroute::trace {

/// One full assignment, indexed by node.
using Assignment = std::vector<Path>;

/// A node's new path at one step.
struct Change {
  NodeId node = kNoNode;
  Path path;
  bool operator==(const Change&) const = default;
};

/// The nodes whose path differs between `from` and `to`, with their
/// paths in `to`, sorted by node. Requires one path per node in both.
std::vector<Change> diff(const Assignment& from, const Assignment& to);

class Trace {
 public:
  Trace() = default;

  /// Starts a trace with the given initial assignment pi(0).
  explicit Trace(Assignment initial);

  /// Appends pi(t) after a step, stored as its difference from back().
  /// On an empty trace, `a` becomes pi(0). Requires one path per node.
  void record(const Assignment& a);

  /// Appends pi(t) given as its changes from back(): each node at most
  /// once, in any order. An entry whose path equals the node's current
  /// one is not a change and is dropped. Requires a non-empty trace.
  void record_changes(std::vector<Change> changes);

  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  /// pi(t), rebuilt from pi(0) and the changes of steps 1..t. t = 0 is
  /// the initial assignment.
  Assignment at(std::size_t t) const;

  /// pi(size() - 1).
  const Assignment& back() const;

  /// The changes step t made (1 <= t < size()), sorted by node; empty
  /// when pi(t) == pi(t-1).
  std::span<const Change> changes(std::size_t t) const;

  /// Every entry pi(0) .. pi(size() - 1), rebuilt.
  std::vector<Assignment> states() const;

  /// True if the last `stable_suffix` entries are identical (a cheap
  /// convergence heuristic for finite prefixes). Requires
  /// stable_suffix >= 1.
  bool settled(std::size_t stable_suffix) const;

  /// Number of steps t >= 1 with pi(t) != pi(t-1).
  std::size_t change_count() const;

  /// Removes consecutive duplicates, returning the "collapsed" sequence of
  /// distinct assignments (useful to compare against repetition
  /// expansions).
  std::vector<Assignment> collapsed() const;

  /// Renders one row per step, columns = nodes; `only_nodes` (by name)
  /// restricts the columns. Intended for reproducing the paper's
  /// activation tables.
  std::string to_string(const spp::Instance& instance,
                        const std::vector<std::string>& only_nodes = {}) const;

  /// Equal entries at every index. Changes are stored canonically (real
  /// changes only, sorted by node), so this compares the stored deltas.
  bool operator==(const Trace& o) const {
    return initial_ == o.initial_ && ends_ == o.ends_ &&
           changes_ == o.changes_;
  }

 private:
  Assignment initial_;
  Assignment last_;  ///< pi(size() - 1)
  std::vector<Change> changes_;
  /// Per entry t: one past its last change in changes_ (entry 0, the
  /// initial assignment, has none), so step t's changes are
  /// [ends_[t - 1], ends_[t]).
  std::vector<std::size_t> ends_;
};

}  // namespace commroute::trace
