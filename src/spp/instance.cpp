#include "spp/instance.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace commroute::spp {

Instance::Instance(Graph graph, NodeId destination,
                   std::vector<std::vector<Path>> permitted,
                   std::shared_ptr<const ExportPolicy> export_policy)
    : graph_(std::move(graph)),
      destination_(destination),
      permitted_(std::move(permitted)),
      export_policy_(export_policy ? std::move(export_policy)
                                   : std::make_shared<AllowAllExport>()) {
  CR_REQUIRE(destination_ < graph_.node_count(),
             "destination out of range");
  CR_REQUIRE(permitted_.size() == graph_.node_count(),
             "permitted-path table must have one entry per node");

  // The destination's permitted set is exactly the trivial path.
  permitted_[destination_] = {Path{destination_}};

  // Ranks and path ids in one pass: id 0 is epsilon, then each node's
  // paths in rank order.
  rank_.resize(permitted_.size());
  path_base_.resize(permitted_.size());
  path_owner_.assign(1, kNoNode);
  for (NodeId v = 0; v < permitted_.size(); ++v) {
    path_base_[v] = static_cast<PathId>(path_owner_.size());
    for (Rank r = 0; r < permitted_[v].size(); ++r) {
      const bool inserted = rank_[v].emplace(permitted_[v][r], r).second;
      CR_REQUIRE(inserted, "duplicate permitted path at node " +
                               graph_.name(v));
      path_owner_.push_back(v);
    }
  }

  for (NodeId v = 0; v < graph_.node_count(); ++v) {
    if (graph_.name(v).size() != 1) {
      single_char_names_ = false;
    }
  }

  validate();
  build_extensions();
}

void Instance::build_extensions() {
  // (announced id, extension) for every permitted v . a whose tail a is a
  // path the table holds, nodes ascending; then grouped by announced id
  // with a stable counting sort. The destination always selects (d).
  std::vector<std::pair<PathId, Extension>> found;
  for (NodeId v = 0; v < permitted_.size(); ++v) {
    if (v == destination_) {
      continue;
    }
    for (Rank r = 0; r < permitted_[v].size(); ++r) {
      if (const auto tail = path_id(permitted_[v][r].tail())) {
        found.push_back({*tail, Extension{v, path_base_[v] + r}});
      }
    }
  }
  extension_begin_.assign(path_count() + 1, 0);
  for (const auto& [announced, extension] : found) {
    ++extension_begin_[announced + 1];
  }
  for (std::size_t a = 1; a < extension_begin_.size(); ++a) {
    extension_begin_[a] += extension_begin_[a - 1];
  }
  extensions_.resize(found.size());
  std::vector<std::uint32_t> next(extension_begin_.begin(),
                                  extension_begin_.end() - 1);
  for (const auto& [announced, extension] : found) {
    extensions_[next[announced]++] = extension;
  }
}

std::optional<PathId> Instance::path_id(const Path& p) const {
  if (p.empty()) {
    return kEpsilonPath;
  }
  const NodeId v = p.source();
  if (v >= rank_.size()) {
    return std::nullopt;
  }
  const auto it = rank_[v].find(p);
  if (it == rank_[v].end()) {
    return std::nullopt;
  }
  return path_base_[v] + it->second;
}

void Instance::validate() const {
  for (NodeId v = 0; v < permitted_.size(); ++v) {
    if (v == destination_) {
      continue;
    }
    for (const Path& p : permitted_[v]) {
      const std::string where = " (path " + path_name(p) + " at node " +
                                graph_.name(v) + ")";
      CR_REQUIRE(!p.empty(), "epsilon cannot be a permitted path" + where);
      CR_REQUIRE(p.source() == v,
                 "permitted path must start at its node" + where);
      CR_REQUIRE(p.destination() == destination_,
                 "permitted path must end at the destination" + where);
      CR_REQUIRE(p.is_simple(), "permitted paths must be simple" + where);
      CR_REQUIRE(graph_.supports_path(p),
                 "permitted path uses a missing edge" + where);
    }
  }
}

const std::vector<Path>& Instance::permitted(NodeId v) const {
  CR_REQUIRE(v < permitted_.size(), "node out of range");
  return permitted_[v];
}

std::optional<Rank> Instance::rank(NodeId v, const Path& p) const {
  CR_REQUIRE(v < rank_.size(), "node out of range");
  const auto it = rank_[v].find(p);
  if (it == rank_[v].end()) {
    return std::nullopt;
  }
  return it->second;
}

bool Instance::is_permitted(NodeId v, const Path& p) const {
  return rank(v, p).has_value();
}

bool Instance::prefers(NodeId v, const Path& a, const Path& b) const {
  if (a.empty()) {
    return false;  // epsilon is never strictly preferred.
  }
  const auto ra = rank(v, a);
  CR_REQUIRE(ra.has_value(), "prefers(): path not permitted at node");
  if (b.empty()) {
    return true;  // any permitted path beats epsilon.
  }
  const auto rb = rank(v, b);
  CR_REQUIRE(rb.has_value(), "prefers(): path not permitted at node");
  return *ra < *rb;
}

Path Instance::best(NodeId v, const std::vector<Path>& candidates) const {
  Path chosen = Path::epsilon();
  std::optional<Rank> chosen_rank;
  for (const Path& p : candidates) {
    const auto r = rank(v, p);
    if (!r.has_value()) {
      continue;
    }
    if (!chosen_rank.has_value() || *r < *chosen_rank) {
      chosen = p;
      chosen_rank = r;
    }
  }
  return chosen;
}

bool Instance::export_allows(NodeId from, NodeId to, const Path& path) const {
  return export_policy_->allows(graph_, from, to, path);
}

std::string Instance::path_name(const Path& p) const {
  if (p.empty()) {
    return "(eps)";
  }
  std::string out;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i > 0 && !single_char_names_) {
      out += '>';
    }
    out += graph_.name(p.at(i));
  }
  return out;
}

Path Instance::parse_path(const std::string& text) const {
  const std::string_view trimmed_text = trim(text);
  if (trimmed_text.empty() || trimmed_text == "(eps)") {
    return Path::epsilon();
  }
  std::vector<NodeId> nodes;
  if (trimmed_text.find(' ') != std::string_view::npos) {
    for (const std::string& name :
         split_trimmed(trimmed_text, ' ')) {
      nodes.push_back(graph_.node(name));
    }
  } else if (const std::string one(trimmed_text); graph_.has_node(one)) {
    nodes.push_back(graph_.node(one));  // a one-node path, e.g. "n12"
  } else {
    CR_REQUIRE(single_char_names_,
               "compact path syntax requires single-character node names");
    for (const char ch : trimmed_text) {
      const std::string name(1, ch);
      if (!graph_.has_node(name)) {
        throw ParseError("unknown node '" + name + "' in path '" +
                         std::string(trimmed_text) + "'");
      }
      nodes.push_back(graph_.node(name));
    }
  }
  return Path(std::move(nodes));
}

std::string Instance::to_string() const {
  std::ostringstream os;
  os << "SPP instance: " << graph_.node_count() << " nodes, "
     << graph_.edge_count() << " edges, destination "
     << graph_.name(destination_) << "\n";
  for (NodeId v = 0; v < graph_.node_count(); ++v) {
    if (v == destination_) {
      continue;
    }
    os << "  " << graph_.name(v) << ": ";
    if (permitted_[v].empty()) {
      os << "(no permitted paths)";
    }
    for (std::size_t i = 0; i < permitted_[v].size(); ++i) {
      if (i > 0) {
        os << " > ";
      }
      os << path_name(permitted_[v][i]);
    }
    os << "\n";
  }
  return os.str();
}

std::size_t Instance::permitted_path_count() const {
  std::size_t total = 0;
  for (NodeId v = 0; v < permitted_.size(); ++v) {
    if (v != destination_) {
      total += permitted_[v].size();
    }
  }
  return total;
}

}  // namespace commroute::spp
