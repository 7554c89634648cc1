// The checker matrix driver: instances x models verdict sweeps with
// deterministic CSV export, byte-identical at any thread width.
#include <gtest/gtest.h>

#include "spp/gadgets.hpp"
#include "study/checker_campaign.hpp"
#include "support/error.hpp"

namespace commroute::study {
namespace {

TEST(CheckerMatrix, SweepsAllModelsAndCountsVerdicts) {
  const spp::Instance dis = spp::disagree();
  CheckerMatrixSpec spec;
  spec.instances = {{"disagree", &dis}};
  spec.explore.max_channel_length = 3;
  const CheckerMatrixResult result = run_checker_matrix(spec);
  ASSERT_EQ(result.cells.size(), 24u);  // empty models = all 24
  // Ex. A.1: DISAGREE oscillates in the weak models, provably not in
  // the strong ones — both classes must be represented.
  EXPECT_GT(result.oscillating(), 0u);
  EXPECT_GT(result.proven_safe(), 0u);
  EXPECT_LT(result.oscillating() + result.proven_safe(),
            result.cells.size() + 1);
}

TEST(CheckerMatrix, CsvIsByteIdenticalAcrossThreadWidths) {
  const spp::Instance dis = spp::disagree();
  const spp::Instance good = spp::good_gadget();
  std::string serial_csv;
  for (const std::size_t threads : {1u, 8u}) {
    CheckerMatrixSpec spec;
    spec.instances = {{"disagree", &dis}, {"good", &good}};
    spec.models = {model::Model::parse("R1O"), model::Model::parse("REA"),
                   model::Model::parse("RMS")};
    spec.explore.max_channel_length = 2;
    spec.explore.max_states = 2000;
    spec.explore.threads = threads;
    const std::string csv = run_checker_matrix(spec).to_csv();
    EXPECT_NE(csv.find("disagree,R1O,"), std::string::npos);
    if (threads == 1) {
      serial_csv = csv;
    } else {
      EXPECT_EQ(serial_csv, csv);
    }
  }
}

// The DISAGREE + Example A.4 x 24-model matrix at channel bound 3: its
// CSV, tracked_peak_bytes column included, is pinned by FNV-1a digest
// (the same digest the end-to-end benchmark checks), so neither the
// verdicts nor the checker's byte model can drift unnoticed.
TEST(CheckerMatrix, CsvDigestIsPinned) {
  const spp::Instance dis = spp::disagree();
  const spp::Instance a4 = spp::example_a4();
  CheckerMatrixSpec spec;
  spec.instances = {{"DISAGREE", &dis}, {"EXAMPLE-A4", &a4}};
  spec.explore.max_channel_length = 3;
  spec.explore.threads = 1;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const char c : run_checker_matrix(spec).to_csv()) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(digest, 357551610186116548ULL);
}

TEST(CheckerMatrix, RowsLandInSpecOrder) {
  const spp::Instance dis = spp::disagree();
  CheckerMatrixSpec spec;
  spec.instances = {{"a", &dis}, {"b", &dis}};
  spec.models = {model::Model::parse("REA"), model::Model::parse("REO")};
  const CheckerMatrixResult result = run_checker_matrix(spec);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].instance, "a");
  EXPECT_EQ(result.cells[0].model.name(), "REA");
  EXPECT_EQ(result.cells[1].model.name(), "REO");
  EXPECT_EQ(result.cells[2].instance, "b");
}

TEST(CheckerMatrix, RejectsEmptyAndNullSpecs) {
  EXPECT_THROW(run_checker_matrix({}), PreconditionError);
  CheckerMatrixSpec spec;
  spec.instances = {{"null", nullptr}};
  EXPECT_THROW(run_checker_matrix(spec), PreconditionError);
}

}  // namespace
}  // namespace commroute::study
