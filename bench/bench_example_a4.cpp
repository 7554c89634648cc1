// Reproduces Example A.4 / Figure 8 (Prop. 3.11): the REA execution
// below cannot be realized *with repetition* in R1O, but can as a
// subsequence (the paper's explicit witness inserts suad just before
// subd) — matching the REA-row/R1O-column entry "2" of Fig. 3.
#include <iostream>

#include "bench_common.hpp"
#include "checker/targeted.hpp"
#include "spp/gadgets.hpp"
#include "trace/recording.hpp"
#include "trace/seq_match.hpp"

int main() {
  using namespace commroute;
  using model::Model;
  using trace::MatchKind;

  bench::banner(
      "Example A.4 / Figure 8 — REA not realizable with repetition in R1O");

  const spp::Instance inst = spp::example_a4();
  std::cout << inst.to_string() << "\n";

  const auto rec = trace::record_script(
      inst,
      bench::named_script(inst, {"d", "a", "u", "b", "u", "s"}, true),
      Model::parse("REA"));
  std::cout << "The REA execution:\n";
  bench::print_activation_table(inst, rec);

  // The channel invariant the proof leans on.
  const ChannelIdx us = inst.graph().channel(inst.graph().node("u"),
                                             inst.graph().node("s"));
  const auto prefix = trace::record_script(
      inst, bench::named_script(inst, {"d", "a", "u", "b", "u"}, true));
  std::cout << "\nChannel (u,s) before the last step: [";
  for (std::size_t i = 0; i < prefix.final_state.channel(us).size(); ++i) {
    std::cout << (i ? ", " : "")
              << inst.path_name(prefix.final_state.channel(us).path(i));
  }
  std::cout << "]  (the paper: first uad, second ubd)\n\n";

  bool ok = true;

  const auto rep = checker::find_realization(
      inst, Model::parse("R1O"), rec.trace, MatchKind::kRepetition);
  std::cout << "Realization with repetition in R1O: " << rep.summary()
            << "\n";
  ok = ok && !rep.found && rep.exhaustive;

  const auto sub = checker::find_realization(
      inst, Model::parse("R1O"), rec.trace, MatchKind::kSubsequence);
  std::cout << "Realization as a subsequence in R1O: " << sub.summary()
            << "\n";
  ok = ok && sub.found;

  if (sub.found) {
    std::cout << "\nSubsequence witness (" << sub.witness.size()
              << " steps; note the extra suad state the paper predicts):\n";
    const auto replay =
        trace::record_script(inst, sub.witness, Model::parse("R1O"));
    bench::print_activation_table(inst, replay);
    const NodeId s = inst.graph().node("s");
    bool saw_suad = false;
    for (const auto& a : replay.trace.states()) {
      saw_suad = saw_suad || inst.path_name(a[s]) == "suad";
    }
    std::cout << "Witness passes through suad: " << (saw_suad ? "yes" : "no")
              << "\n";
    ok = ok && saw_suad;
  }

  return bench::verdict(ok,
                        "Prop. 3.11 machine-checked: repetition "
                        "impossible, subsequence witness found (via suad)");
}
