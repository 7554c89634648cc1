// Realization explorer: query the derived Figure 3/4 knowledge base.
//
//   $ ./realization_explorer            # summary of the whole table
//   $ ./realization_explorer REA R1O    # can R1O realize REA? and back
#include <iostream>

#include "realization/closure.hpp"
#include "realization/compose.hpp"
#include "realization/matrix.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace commroute;
  using model::Model;
  using namespace commroute::realization;

  const RealizationTable table = RealizationTable::closure();

  if (argc == 3) {
    const Model a = Model::parse(argv[1]);
    const Model b = Model::parse(argv[2]);
    const auto show = [&](const Model& realized, const Model& realizer) {
      std::cout << table.explain(realized, realizer);
      const auto chain = find_transform_chain(realized, realizer);
      if (chain.has_value() && !chain->links.empty()) {
        std::cout << "  constructive chain: " << chain->to_string()
                  << "\n";
      } else if (!chain.has_value()) {
        std::cout << "  no constructive chain of positive theorems\n";
      }
      std::cout << "\n";
    };
    show(a, b);
    show(b, a);
    return 0;
  }

  std::cout << "Realization knowledge derived from the paper's "
               "foundational theorems.\n\n";
  std::cout << render_matrix(table, Figure::kFig3Reliable) << "\n";
  std::cout << render_matrix(table, Figure::kFig4Unreliable) << "\n";

  // Rank models by universality: how many of the 24 models they realize
  // at least as subsequences (lower-bound level >= 2).
  TextTable ranking;
  ranking.set_header({"model", "realizes (>=subsequence)",
                      "realizes exactly", "provably misses"});
  for (const Model& b : Model::all()) {
    int subs = 0, exact = 0, misses = 0;
    for (const Model& a : Model::all()) {
      const RelationBound& bound = table.cell(a, b);
      if (level(bound.lo) >= level(Strength::kSubsequence)) {
        ++subs;
      }
      if (bound.lo == Strength::kExact) {
        ++exact;
      }
      if (bound.hi == Strength::kNotPreserving) {
        ++misses;
      }
    }
    ranking.add_row({b.name(), std::to_string(subs), std::to_string(exact),
                     std::to_string(misses)});
  }
  std::cout << ranking.render() << "\n";
  std::cout << "Usage: realization_explorer <MODEL-A> <MODEL-B> for the "
               "derivation chain of a single cell (e.g. REA R1O).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const commroute::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
