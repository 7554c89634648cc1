#include "trace/trace.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/table.hpp"

namespace commroute::trace {

Trace::Trace(Assignment initial)
    : initial_(std::move(initial)), last_(initial_), ends_{0} {}

std::vector<Change> diff(const Assignment& from, const Assignment& to) {
  CR_REQUIRE(from.size() == to.size(),
             "trace entries must hold one path per node");
  std::vector<Change> changes;
  for (NodeId v = 0; v < to.size(); ++v) {
    if (to[v] != from[v]) {
      changes.push_back(Change{v, to[v]});
    }
  }
  return changes;
}

void Trace::record(const Assignment& a) {
  if (empty()) {
    *this = Trace(a);
    return;
  }
  record_changes(diff(last_, a));
}

void Trace::record_changes(std::vector<Change> changes) {
  CR_REQUIRE(!empty(), "record_changes on an empty trace");
  std::sort(changes.begin(), changes.end(),
            [](const Change& a, const Change& b) { return a.node < b.node; });
  CR_REQUIRE(std::adjacent_find(changes.begin(), changes.end(),
                                [](const Change& a, const Change& b) {
                                  return a.node == b.node;
                                }) == changes.end(),
             "trace change: node changed twice in one step");
  for (Change& change : changes) {
    CR_REQUIRE(change.node < last_.size(), "trace change: node out of range");
    if (change.path != last_[change.node]) {
      last_[change.node] = change.path;
      changes_.push_back(std::move(change));
    }
  }
  ends_.push_back(changes_.size());
}

Assignment Trace::at(std::size_t t) const {
  CR_REQUIRE(t < size(), "trace index out of range");
  Assignment a = initial_;
  for (std::size_t i = 0; i < ends_[t]; ++i) {
    a[changes_[i].node] = changes_[i].path;
  }
  return a;
}

const Assignment& Trace::back() const {
  CR_REQUIRE(!empty(), "back() of empty trace");
  return last_;
}

std::span<const Change> Trace::changes(std::size_t t) const {
  CR_REQUIRE(t >= 1 && t < size(), "trace step out of range");
  return std::span<const Change>(changes_).subspan(
      ends_[t - 1], ends_[t] - ends_[t - 1]);
}

std::vector<Assignment> Trace::states() const {
  std::vector<Assignment> out;
  if (empty()) {
    return out;
  }
  out.reserve(size());
  out.push_back(initial_);
  for (std::size_t t = 1; t < size(); ++t) {
    out.push_back(out.back());
    for (const Change& change : changes(t)) {
      out.back()[change.node] = change.path;
    }
  }
  return out;
}

bool Trace::settled(std::size_t stable_suffix) const {
  CR_REQUIRE(stable_suffix >= 1, "stable_suffix must be >= 1");
  if (size() < stable_suffix) {
    return false;
  }
  // The last `stable_suffix` entries are equal iff the steps between
  // them changed nothing.
  for (std::size_t t = size() - stable_suffix + 1; t < size(); ++t) {
    if (ends_[t] != ends_[t - 1]) {
      return false;
    }
  }
  return true;
}

std::size_t Trace::change_count() const {
  std::size_t changes = 0;
  for (std::size_t t = 1; t < size(); ++t) {
    if (ends_[t] != ends_[t - 1]) {
      ++changes;
    }
  }
  return changes;
}

std::vector<Assignment> Trace::collapsed() const {
  std::vector<Assignment> out;
  if (empty()) {
    return out;
  }
  out.push_back(initial_);
  for (std::size_t t = 1; t < size(); ++t) {
    if (ends_[t] == ends_[t - 1]) {
      continue;
    }
    out.push_back(out.back());
    for (const Change& change : changes(t)) {
      out.back()[change.node] = change.path;
    }
  }
  return out;
}

std::string Trace::to_string(
    const spp::Instance& instance,
    const std::vector<std::string>& only_nodes) const {
  const Graph& g = instance.graph();
  std::vector<NodeId> columns;
  if (only_nodes.empty()) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      columns.push_back(v);
    }
  } else {
    for (const std::string& name : only_nodes) {
      columns.push_back(g.node(name));
    }
  }

  TextTable table;
  std::vector<std::string> header{"t"};
  for (const NodeId v : columns) {
    header.push_back("pi_" + g.name(v));
  }
  table.set_header(std::move(header));
  Assignment pi = initial_;
  for (std::size_t t = 0; t < size(); ++t) {
    if (t > 0) {
      for (const Change& change : changes(t)) {
        pi[change.node] = change.path;
      }
    }
    std::vector<std::string> row{std::to_string(t)};
    for (const NodeId v : columns) {
      row.push_back(instance.path_name(pi[v]));
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

}  // namespace commroute::trace
