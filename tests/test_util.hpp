// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "model/activation.hpp"
#include "spp/instance.hpp"
#include "trace/recording.hpp"

namespace commroute::testutil {

/// FNV-1a digest of `bytes`: pins a long output (event lines, witness
/// scripts) as one number.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

/// Builds a script activating the named nodes in order, each with the
/// given step shape: "REA" poll-all, "REO" read-one-from-every.
inline model::ActivationScript named_script(
    const spp::Instance& inst, const std::vector<std::string>& nodes,
    bool poll_all) {
  model::ActivationScript script;
  for (const std::string& name : nodes) {
    const NodeId v = inst.graph().node(name);
    script.push_back(poll_all ? model::poll_all_step(inst, v)
                              : model::read_every_one_step(inst, v));
  }
  return script;
}

/// Records the paper's REO execution of Ex. A.2 (t = 1..13).
inline trace::Recording record_example_a2_reo(const spp::Instance& a2) {
  return trace::record_script(
      a2,
      named_script(
          a2, {"d", "x", "a", "u", "v", "y", "a", "u", "v", "z", "a", "v",
               "u"},
          false),
      model::Model::parse("REO"));
}

/// The REO trace of Ex. A.3 (t = 1..10).
inline trace::Recording record_example_a3_reo(const spp::Instance& a3) {
  return trace::record_script(
      a3,
      named_script(a3, {"d", "b", "u", "v", "a", "u", "v", "s", "s", "s"},
                   false),
      model::Model::parse("REO"));
}

/// The REA trace of Ex. A.4 (t = 1..6).
inline trace::Recording record_example_a4_rea(const spp::Instance& a4) {
  return trace::record_script(
      a4, named_script(a4, {"d", "a", "u", "b", "u", "s"}, true),
      model::Model::parse("REA"));
}

/// The REA trace of Ex. A.5 (t = 1..8).
inline trace::Recording record_example_a5_rea(const spp::Instance& a5) {
  return trace::record_script(
      a5, named_script(a5, {"d", "b", "c", "x", "s", "a", "c", "s"}, true),
      model::Model::parse("REA"));
}

/// The R1O oscillation script for DISAGREE (Ex. A.1): a converging prelude
/// and a fair loop; returns (script, loop_from).
inline std::pair<model::ActivationScript, std::size_t>
disagree_r1o_oscillation(const spp::Instance& dis) {
  const NodeId d = dis.graph().node("d");
  const NodeId x = dis.graph().node("x");
  const NodeId y = dis.graph().node("y");
  model::ActivationScript script;
  script.push_back(model::read_one_step(dis, d, x));
  script.push_back(model::read_one_step(dis, x, d));
  script.push_back(model::read_one_step(dis, y, d));
  script.push_back(model::read_one_step(dis, x, y));
  script.push_back(model::read_one_step(dis, y, x));
  const std::size_t loop_from = script.size();
  script.push_back(model::read_one_step(dis, x, y));
  script.push_back(model::read_one_step(dis, y, x));
  script.push_back(model::read_one_step(dis, d, x));
  script.push_back(model::read_one_step(dis, d, y));
  script.push_back(model::read_one_step(dis, x, d));
  script.push_back(model::read_one_step(dis, y, d));
  return {script, loop_from};
}

}  // namespace commroute::testutil
