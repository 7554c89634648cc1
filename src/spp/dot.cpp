#include "spp/dot.hpp"

#include <sstream>

namespace commroute::spp {

namespace {

void emit_nodes(const Instance& instance, std::ostringstream& out) {
  const Graph& g = instance.graph();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "  \"" << g.name(v) << "\" [";
    if (v == instance.destination()) {
      out << "shape=doublecircle";
    } else {
      out << "shape=circle";
      std::ostringstream label;
      label << g.name(v);
      if (!instance.permitted(v).empty()) {
        label << "\\n";
        for (std::size_t i = 0; i < instance.permitted(v).size(); ++i) {
          label << (i ? " > " : "")
                << instance.path_name(instance.permitted(v)[i]);
        }
      }
      out << ", label=\"" << label.str() << "\"";
    }
    out << "];\n";
  }
}

void emit_edges(const Instance& instance, std::ostringstream& out) {
  const Graph& g = instance.graph();
  for (ChannelIdx c = 0; c < g.channel_count(); ++c) {
    const ChannelId id = g.channel_id(c);
    if (id.from < id.to) {
      out << "  \"" << g.name(id.from) << "\" -> \"" << g.name(id.to)
          << "\" [dir=none, color=gray];\n";
    }
  }
}

}  // namespace

std::string to_dot(const Instance& instance) {
  std::ostringstream out;
  out << "digraph spp {\n  rankdir=BT;\n";
  emit_nodes(instance, out);
  emit_edges(instance, out);
  out << "}\n";
  return out.str();
}

std::string to_dot(const Instance& instance,
                   const engine::NetworkState& state) {
  const Graph& g = instance.graph();
  std::ostringstream out;
  out << "digraph spp_state {\n  rankdir=BT;\n";
  emit_nodes(instance, out);
  emit_edges(instance, out);

  // Chosen next hops.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const Path& pi = state.assignment(v);
    if (pi.size() >= 2) {
      out << "  \"" << g.name(v) << "\" -> \"" << g.name(pi.next_hop())
          << "\" [color=blue, penwidth=2, label=\""
          << instance.path_name(pi) << "\"];\n";
    }
  }

  // Channels with queued messages.
  for (ChannelIdx c = 0; c < g.channel_count(); ++c) {
    const engine::Channel channel = state.channel(c);
    if (channel.empty()) {
      continue;
    }
    const ChannelId id = g.channel_id(c);
    std::ostringstream label;
    for (std::size_t i = 0; i < channel.size(); ++i) {
      label << (i ? "," : "") << instance.path_name(channel.path(i));
    }
    out << "  \"" << g.name(id.from) << "\" -> \"" << g.name(id.to)
        << "\" [color=red, style=dashed, label=\"[" << label.str()
        << "]\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace commroute::spp
