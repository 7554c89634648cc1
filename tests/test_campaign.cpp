#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "obs/json.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace commroute::study {
namespace {

using model::Model;

TEST(Campaign, RunsTheFullCrossProduct) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec spec;
  spec.instances = {{"GOOD", &good}};
  spec.models = {Model::parse("RMS"), Model::parse("REA")};
  spec.schedulers = {SchedulerKind::kRoundRobin,
                     SchedulerKind::kRandomFair};
  spec.seeds = 3;
  const CampaignResult result = run_campaign(spec);
  // 2 models x (1 round-robin + 3 random seeds) = 8 rows.
  EXPECT_EQ(result.rows.size(), 8u);
  EXPECT_DOUBLE_EQ(result.outcome_rate(engine::Outcome::kConverged), 1.0);
}

TEST(Campaign, EventDrivenOnlyForMessagePassingModels) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec spec;
  spec.instances = {{"GOOD", &good}};
  spec.models = {Model::parse("R1O"), Model::parse("RMS")};
  spec.schedulers = {SchedulerKind::kEventDriven};
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 1u);  // RMS skipped
  EXPECT_EQ(result.rows[0].model, Model::parse("R1O"));
  EXPECT_EQ(result.rows[0].outcome, engine::Outcome::kConverged);
}

TEST(Campaign, EventDrivenSkipsEveryNeighborModels) {
  // One f = 1 read of one channel is not an REO step at d, which has two
  // in-channels; the campaign skips the configuration instead of failing.
  const spp::Instance dis = spp::disagree();
  CampaignSpec spec;
  spec.instances = {{"DISAGREE", &dis}};
  spec.models = {Model::parse("REO"), Model::parse("UMO")};
  spec.schedulers = {SchedulerKind::kEventDriven};
  spec.max_steps = 2000;
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].model, Model::parse("UMO"));
}

TEST(Campaign, SynchronousRevealsTheA6Oscillation) {
  const spp::Instance dis = spp::disagree();
  CampaignSpec spec;
  spec.instances = {{"DISAGREE", &dis}};
  spec.models = {Model::parse("REA")};
  spec.schedulers = {SchedulerKind::kRoundRobin,
                     SchedulerKind::kSynchronous};
  spec.max_steps = 2000;
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 2u);
  for (const CampaignRow& row : result.rows) {
    if (row.scheduler == SchedulerKind::kRoundRobin) {
      EXPECT_EQ(row.outcome, engine::Outcome::kConverged);
    } else {
      EXPECT_EQ(row.outcome, engine::Outcome::kOscillating);
    }
  }
}

TEST(Campaign, CsvHasHeaderAndOneLinePerRow) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec spec;
  spec.instances = {{"GOOD", &good}};
  spec.models = {Model::parse("UMS")};
  spec.schedulers = {SchedulerKind::kRandomFair};
  spec.seeds = 2;
  const CampaignResult result = run_campaign(spec);
  const std::string csv = result.to_csv();
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, result.rows.size() + 1);
  EXPECT_NE(csv.find("instance,model,scheduler"), std::string::npos);
  EXPECT_NE(csv.find("max_channel_occupancy,peak_channel_bytes,wall_ms"),
            std::string::npos);
  EXPECT_NE(csv.find("GOOD,UMS,random-fair,0,converged"),
            std::string::npos);
}

TEST(Campaign, MedianStepsFilters) {
  const spp::Instance good = spp::good_gadget();
  const spp::Instance ring = spp::shortest_ring(8);
  CampaignSpec spec;
  spec.instances = {{"GOOD", &good}, {"RING8", &ring}};
  spec.models = {Model::parse("RMS")};
  spec.schedulers = {SchedulerKind::kRoundRobin};
  const CampaignResult result = run_campaign(spec);
  const auto ring_median = result.median_steps(
      [](const CampaignRow& row) { return row.instance == "RING8"; });
  const auto good_median = result.median_steps(
      [](const CampaignRow& row) { return row.instance == "GOOD"; });
  EXPECT_GT(ring_median, good_median);  // bigger network, more steps
  EXPECT_EQ(result.median_steps([](const CampaignRow&) { return false; }),
            0u);
}

TEST(Campaign, ValidatesSpec) {
  CampaignSpec empty;
  EXPECT_THROW(run_campaign(empty), PreconditionError);
  const spp::Instance good = spp::good_gadget();
  CampaignSpec no_models;
  no_models.instances = {{"GOOD", &good}};
  EXPECT_THROW(run_campaign(no_models), PreconditionError);
}

TEST(Campaign, UnreliableRunsRecordDrops) {
  // The drop discipline never drops a channel's newest message, so drops
  // need queue depth: the cyclic gadget's long transients provide it.
  const spp::Instance cyclic = spp::cyclic_gadget(4);
  CampaignSpec spec;
  spec.instances = {{"CYCLIC4", &cyclic}};
  spec.models = {Model::parse("UMS")};
  spec.schedulers = {SchedulerKind::kRandomFair};
  spec.seeds = 8;
  spec.max_steps = 3000;
  spec.drop_prob = 0.5;
  const CampaignResult result = run_campaign(spec);
  std::uint64_t dropped = 0;
  std::size_t occupancy = 0;
  for (const CampaignRow& row : result.rows) {
    dropped += row.messages_dropped;
    occupancy = std::max(occupancy, row.max_channel_occupancy);
  }
  EXPECT_GT(occupancy, 1u);
  EXPECT_GT(dropped, 0u);
  // Queue depth implies in-flight bytes; every row with traffic carries
  // a nonzero deterministic byte peak.
  for (const CampaignRow& row : result.rows) {
    if (row.max_channel_occupancy > 0) {
      EXPECT_GT(row.peak_channel_bytes, 0u);
      EXPECT_GE(row.peak_channel_bytes,
                row.max_channel_occupancy * sizeof(engine::Message));
    }
  }
}

// peak_channel_bytes is a byte model (32 per queued message plus 4 per
// path node), not the in-memory size of the queues; these values are
// pinned so a change to the state's layout cannot move campaign CSVs.
TEST(Campaign, PeakChannelBytesKeepTheirByteModel) {
  const spp::Instance bad = spp::bad_gadget();
  const spp::Instance cyclic = spp::cyclic_gadget(4);
  CampaignSpec spec;
  spec.instances = {{"BAD", &bad}, {"CYCLIC4", &cyclic}};
  spec.models = {Model::parse("R1O"), Model::parse("UMS")};
  spec.schedulers = {SchedulerKind::kRoundRobin, SchedulerKind::kRandomFair};
  spec.seeds = 2;
  spec.max_steps = 3000;
  spec.drop_prob = 0.5;
  spec.threads = 1;
  const std::vector<std::size_t> expected{384, 720, 928, 252, 384, 380,
                                          472, 672, 1296, 332, 424, 404};
  std::vector<std::size_t> peaks;
  for (const CampaignRow& row : run_campaign(spec).rows) {
    peaks.push_back(row.peak_channel_bytes);
  }
  EXPECT_EQ(peaks, expected);
}

TEST(Campaign, CsvCarriesPerRowWallTime) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec spec;
  spec.instances = {{"GOOD", &good}};
  spec.models = {Model::parse("RMS")};
  spec.schedulers = {SchedulerKind::kRoundRobin};
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GE(result.rows[0].wall_ms, 0.0);
  EXPECT_NE(result.to_csv().find("wall_ms"), std::string::npos);
}

TEST(Campaign, JsonExportParsesAndMatchesRows) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec spec;
  spec.instances = {{"GOOD", &good}};
  spec.models = {Model::parse("RMS"), Model::parse("REA")};
  spec.schedulers = {SchedulerKind::kRoundRobin};
  const CampaignResult result = run_campaign(spec);
  const auto parsed = obs::json_parse(result.to_json());
  ASSERT_TRUE(parsed.has_value());
  const obs::JsonValue* rows = parsed->find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->as_array().size(), result.rows.size());
  const obs::JsonValue& first = rows->as_array().front();
  EXPECT_EQ(first.find("instance")->as_string(), "GOOD");
  EXPECT_EQ(first.find("outcome")->as_string(), "converged");
  EXPECT_GE(first.find("wall_ms")->as_number(), 0.0);
  const obs::JsonValue* summary = parsed->find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->find("converged_rate")->as_number(), 1.0);
}

TEST(Campaign, RowSeedsDifferAcrossEveryCoordinate) {
  const std::uint64_t base =
      derive_row_seed("GOOD", 3, SchedulerKind::kRandomFair, 0);
  // Each coordinate alone must change the derived stream seed.
  EXPECT_NE(base, derive_row_seed("BAD", 3, SchedulerKind::kRandomFair, 0));
  EXPECT_NE(base, derive_row_seed("GOOD", 4, SchedulerKind::kRandomFair, 0));
  EXPECT_NE(base, derive_row_seed("GOOD", 3, SchedulerKind::kRoundRobin, 0));
  EXPECT_NE(base, derive_row_seed("GOOD", 3, SchedulerKind::kRandomFair, 1));
  // ... while reruns stay bit-for-bit reproducible.
  EXPECT_EQ(base, derive_row_seed("GOOD", 3, SchedulerKind::kRandomFair, 0));
}

TEST(Campaign, TwoInstancesGetDecorrelatedRandomStreams) {
  // The old `seed * 7919 + model_index` derivation ignored the instance
  // entirely: every instance replayed the identical random-fair stream.
  Rng a(derive_row_seed("INSTANCE-A", 0, SchedulerKind::kRandomFair, 0));
  Rng b(derive_row_seed("INSTANCE-B", 0, SchedulerKind::kRandomFair, 0));
  bool diverged = false;
  for (int i = 0; i < 8 && !diverged; ++i) {
    diverged = a.next() != b.next();
  }
  EXPECT_TRUE(diverged);
  // And (seed, model) pairs no longer collide: under the old scheme
  // (seed=1, model=0) and (seed=0, model=7919) mapped to the same Rng.
  EXPECT_NE(derive_row_seed("X", 0, SchedulerKind::kRandomFair, 1),
            derive_row_seed("X", 7919, SchedulerKind::kRandomFair, 0));
}

TEST(Campaign, CsvEscapesHostileNamesAndRoundTrips) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec spec;
  // Names with the full RFC-4180 arsenal: commas, quotes, both at once.
  spec.instances = {{"evil,instance", &good},
                    {"quoted\"name", &good},
                    {"both,\"of,them\"", &good}};
  spec.models = {Model::parse("RMS")};
  spec.schedulers = {SchedulerKind::kRoundRobin};
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 3u);

  const auto records = csv_parse(result.to_csv());
  ASSERT_EQ(records.size(), result.rows.size() + 1);  // header + rows
  ASSERT_EQ(records[0].size(), 23u);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const auto& fields = records[i + 1];
    ASSERT_EQ(fields.size(), 23u) << "row " << i;
    EXPECT_EQ(fields[0], result.rows[i].instance);
    EXPECT_EQ(fields[1], result.rows[i].model.name());
    EXPECT_EQ(fields[4], "converged");
  }
}

TEST(Campaign, CausalityPopulatesCriticalPathColumns) {
  const spp::Instance good = spp::good_gadget();
  CampaignSpec spec;
  spec.instances = {{"GOOD", &good}};
  spec.models = {Model::parse("RMS")};
  spec.schedulers = {SchedulerKind::kRoundRobin};
  spec.causality = true;
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GT(result.rows[0].critical_path_len, 0u);

  const std::string csv = result.to_csv();
  EXPECT_NE(csv.find("critical_path_len,critical_path_us"),
            std::string::npos);
  // Engine rows are step-counted, not virtual-time-weighted.
  EXPECT_EQ(result.rows[0].critical_path_us, 0u);

  // Detached runs keep the columns but report zero.
  spec.causality = false;
  const CampaignResult detached = run_campaign(spec);
  ASSERT_EQ(detached.rows.size(), 1u);
  EXPECT_EQ(detached.rows[0].critical_path_len, 0u);
}

TEST(Campaign, RecordingPathsAreSanitizedAndCollisionFree) {
  const spp::Instance bad = spp::bad_gadget();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "campaign_rec_paths")
          .string();
  std::filesystem::remove_all(dir);
  CampaignSpec spec;
  // "bad/gadget" would escape the recording dir if concatenated raw, and
  // it collides with "bad_gadget" after sanitization.
  spec.instances = {{"bad/gadget", &bad}, {"bad_gadget", &bad}};
  spec.models = {Model::parse("R1O")};
  spec.schedulers = {SchedulerKind::kRoundRobin};
  spec.max_steps = 2000;
  spec.recording_dir = dir;
  const CampaignResult result = run_campaign(spec);
  ASSERT_EQ(result.rows.size(), 2u);

  std::set<std::string> paths;
  for (const CampaignRow& row : result.rows) {
    // BAD-GADGET never converges, so both rows must have flushed.
    ASSERT_FALSE(row.recording_path.empty()) << row.instance;
    EXPECT_TRUE(std::filesystem::exists(row.recording_path))
        << row.recording_path;
    // The artifact stayed inside the recording dir...
    const auto parent =
        std::filesystem::path(row.recording_path).parent_path();
    EXPECT_EQ(parent, std::filesystem::path(dir)) << row.recording_path;
    paths.insert(row.recording_path);
  }
  // ...and the colliding sanitized names were de-collided.
  EXPECT_EQ(paths.size(), 2u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace commroute::study
