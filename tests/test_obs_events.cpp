// Event-sink semantics (one valid JSON object per line, round-trip
// through the parser, no-op when detached) plus the instrumentation
// integration points: engine run summaries, checker heartbeats and cap
// reporting, and campaign row events / JSON export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "obs/obs.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"

namespace commroute {
namespace {

using model::Model;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

obs::JsonValue parse_or_die(const std::string& line) {
  const auto parsed = obs::json_parse(line);
  EXPECT_TRUE(parsed.has_value()) << "invalid JSON: " << line;
  return parsed.value_or(obs::JsonValue{});
}

TEST(Event, SerializesOneJsonObjectWithTypeFirst) {
  obs::Event e("unit");
  e.field("text", std::string_view("a\"b\nc"))
      .field("n", std::uint64_t{7})
      .field("ratio", 1.5)
      .field("flag", true);
  const std::string json = e.to_json();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  const auto v = parse_or_die(json);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.as_object().front().first, "type");
  EXPECT_EQ(v.find("type")->as_string(), "unit");
  EXPECT_EQ(v.find("text")->as_string(), "a\"b\nc");
  EXPECT_DOUBLE_EQ(v.find("n")->as_number(), 7.0);
  EXPECT_DOUBLE_EQ(v.find("ratio")->as_number(), 1.5);
  EXPECT_TRUE(v.find("flag")->as_bool());
}

TEST(StreamSink, EmitsOneValidJsonObjectPerLine) {
  std::ostringstream out;
  obs::StreamSink sink(out);
  for (int i = 0; i < 3; ++i) {
    obs::Event e("tick");
    e.field("i", static_cast<std::uint64_t>(i));
    sink.emit(e);
  }
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto v = parse_or_die(lines[i]);
    EXPECT_DOUBLE_EQ(v.find("i")->as_number(), static_cast<double>(i));
  }
}

TEST(MemorySink, CollectsAndClears) {
  obs::MemorySink sink;
  sink.emit(obs::Event("a"));
  sink.emit(obs::Event("b"));
  ASSERT_EQ(sink.lines().size(), 2u);
  EXPECT_EQ(parse_or_die(sink.lines()[1]).find("type")->as_string(), "b");
  sink.clear();
  EXPECT_TRUE(sink.lines().empty());
}

TEST(FileSink, WritesParseableJsonl) {
  const std::string path = "test_obs_events_sink.jsonl";
  {
    obs::FileSink sink(path);
    obs::Event e("file");
    e.field("k", std::uint64_t{1});
    sink.emit(e);
    sink.emit(obs::Event("second"));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  in.close();
  std::remove(path.c_str());
  // Durable sinks self-describe: the first record is the metadata header.
  ASSERT_EQ(lines.size(), 3u);
  const auto meta = parse_or_die(lines[0]);
  EXPECT_EQ(meta.find("type")->as_string(), "meta");
  ASSERT_NE(meta.find("schema_version"), nullptr);
  EXPECT_GE(meta.find("schema_version")->as_number(), 1.0);
  ASSERT_NE(meta.find("created_unix_ms"), nullptr);
  ASSERT_NE(meta.find("git"), nullptr);
  EXPECT_EQ(parse_or_die(lines[1]).find("type")->as_string(), "file");
  EXPECT_EQ(parse_or_die(lines[2]).find("type")->as_string(), "second");
}

TEST(Instrumentation, DetachedIsANoop) {
  obs::Instrumentation inst;
  EXPECT_FALSE(inst.attached());
  inst.emit(obs::Event("dropped"));  // must not crash
  EXPECT_EQ(inst.counter("x"), nullptr);
  EXPECT_EQ(inst.gauge("y"), nullptr);
}

TEST(EngineRun, EmitsSummaryEventAndPublishesMetrics) {
  const spp::Instance good = spp::good_gadget();
  const Model m = Model::parse("RMS");
  engine::RoundRobinScheduler sched(m, good);
  obs::Registry registry;
  obs::MemorySink sink;
  engine::RunOptions options;
  options.record_trace = false;
  options.obs.metrics = &registry;
  options.obs.sink = &sink;
  const auto result = engine::run(good, sched, options);
  EXPECT_EQ(result.outcome, engine::Outcome::kConverged);

  ASSERT_EQ(sink.lines().size(), 1u);
  const auto summary = parse_or_die(sink.lines().back());
  EXPECT_EQ(summary.find("type")->as_string(), "engine_run");
  EXPECT_EQ(summary.find("outcome")->as_string(), "converged");
  EXPECT_DOUBLE_EQ(summary.find("steps")->as_number(),
                   static_cast<double>(result.steps));

  EXPECT_EQ(registry.counter("engine.runs").value(), 1u);
  EXPECT_EQ(registry.counter("engine.steps").value(), result.steps);
  EXPECT_EQ(registry.counter("engine.messages_sent").value(),
            result.messages_sent);
}

TEST(CheckerExplore, EmitsHeartbeatsAndAFinalSummary) {
  const spp::Instance dis = spp::disagree();
  obs::MemorySink sink;
  obs::Registry registry;
  checker::ExploreOptions options;
  options.max_channel_length = 3;
  options.heartbeat_every = 10;
  options.obs.sink = &sink;
  options.obs.metrics = &registry;
  const auto result = checker::explore(dis, Model::parse("RMS"), options);

  std::size_t heartbeats = 0;
  for (const std::string& line : sink.lines()) {
    const auto v = parse_or_die(line);
    if (v.find("type")->as_string() == "checker_heartbeat") {
      ++heartbeats;
      EXPECT_GE(v.find("states")->as_number(), 1.0);
    }
  }
  EXPECT_GE(heartbeats, 1u);

  const auto summary = parse_or_die(sink.lines().back());
  EXPECT_EQ(summary.find("type")->as_string(), "checker_summary");
  EXPECT_DOUBLE_EQ(summary.find("states")->as_number(),
                   static_cast<double>(result.states));
  EXPECT_EQ(summary.find("exhaustive")->as_bool(), result.exhaustive);
  EXPECT_EQ(registry.counter("checker.states").value(), result.states);
  EXPECT_GE(result.frontier_peak, 1u);
  EXPECT_GE(result.scc_prune_passes, 1u);
}

TEST(CheckerExplore, StateCapIsReportedInStructAndEvent) {
  const spp::Instance dis = spp::disagree();
  obs::MemorySink sink;
  checker::ExploreOptions options;
  options.max_channel_length = 3;
  options.max_states = 5;
  options.obs.sink = &sink;
  const auto result = checker::explore(dis, Model::parse("RMS"), options);
  EXPECT_TRUE(result.state_cap_hit);
  EXPECT_FALSE(result.exhaustive);
  EXPECT_EQ(result.state_cap_limit, 5u);
  const auto summary = parse_or_die(sink.lines().back());
  EXPECT_TRUE(summary.find("state_cap_hit")->as_bool());
  EXPECT_DOUBLE_EQ(summary.find("state_cap_limit")->as_number(), 5.0);
}

TEST(CheckerExplore, ChannelBoundIsReportedInStructAndEvent) {
  const spp::Instance dis = spp::disagree();
  obs::MemorySink sink;
  checker::ExploreOptions options;
  options.max_channel_length = 0;  // any send exceeds the bound
  options.obs.sink = &sink;
  const auto result = checker::explore(dis, Model::parse("RMS"), options);
  EXPECT_TRUE(result.channel_bound_hit);
  EXPECT_FALSE(result.exhaustive);
  EXPECT_EQ(result.channel_length_limit, 0u);
  EXPECT_GE(result.bound_skipped_expansions, 1u);
  const auto summary = parse_or_die(sink.lines().back());
  EXPECT_TRUE(summary.find("channel_bound_hit")->as_bool());
  EXPECT_GE(summary.find("bound_skipped_expansions")->as_number(), 1.0);
}

TEST(Campaign, EmitsRowEventsAndExportsJson) {
  const spp::Instance good = spp::good_gadget();
  obs::MemorySink sink;
  study::CampaignSpec spec;
  spec.instances = {{"GOOD", &good}};
  spec.models = {Model::parse("RMS")};
  spec.schedulers = {study::SchedulerKind::kRoundRobin,
                     study::SchedulerKind::kSynchronous};
  spec.obs.sink = &sink;
  const auto result = study::run_campaign(spec);

  std::size_t row_events = 0, summaries = 0;
  for (const std::string& line : sink.lines()) {
    const auto v = parse_or_die(line);
    const std::string& type = v.find("type")->as_string();
    if (type == "campaign_row") {
      ++row_events;
      ASSERT_NE(v.find("row"), nullptr);
      EXPECT_EQ(v.find("row")->find("instance")->as_string(), "GOOD");
      EXPECT_GE(v.find("row")->find("wall_ms")->as_number(), 0.0);
    } else if (type == "campaign_summary") {
      ++summaries;
    }
  }
  EXPECT_EQ(row_events, result.rows.size());
  EXPECT_EQ(summaries, 1u);

  const auto exported = parse_or_die(result.to_json());
  ASSERT_NE(exported.find("rows"), nullptr);
  EXPECT_EQ(exported.find("rows")->as_array().size(), result.rows.size());
  ASSERT_NE(exported.find("summary"), nullptr);
  EXPECT_DOUBLE_EQ(exported.find("summary")->find("rows")->as_number(),
                   static_cast<double>(result.rows.size()));
}

TEST(StreamSink, BatchedModeFlushesEveryNAndOnDestruct) {
  std::ostringstream out;
  {
    obs::StreamSink sink(out, /*flush_every=*/3);
    sink.emit(obs::Event("a"));
    sink.emit(obs::Event("b"));
    sink.emit(obs::Event("c"));  // batch boundary: explicit flush
    sink.emit(obs::Event("d"));  // pending until destruct
  }
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  for (const auto& line : lines) {
    EXPECT_TRUE(obs::json_parse(line).has_value()) << line;
  }
}

TEST(FileSink, BatchedFlushLosesNothingOnOrderlyShutdown) {
  const std::string path = ::testing::TempDir() + "/batched_sink.jsonl";
  {
    obs::FileSink sink(path, /*flush_every=*/1000);
    for (int i = 0; i < 10; ++i) {
      sink.emit(obs::Event("tick"));
    }
  }  // well under the batch size: the destructor flush must cover it
  std::ifstream in(path);
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(obs::json_parse(line).has_value()) << line;
    ++count;
  }
  EXPECT_EQ(count, 11u);  // meta header + 10 ticks
  std::remove(path.c_str());
}

TEST(SynchronizedSink, ForwardsToTheWrappedSink) {
  obs::MemorySink inner;
  obs::SynchronizedSink sync(inner);
  sync.emit(obs::Event("one"));
  sync.emit(obs::Event("two"));
  ASSERT_EQ(inner.lines().size(), 2u);
  EXPECT_NE(inner.lines()[0].find("\"one\""), std::string::npos);
}

TEST(SynchronizedSink, ConcurrentEmittersProduceWholeLines) {
  std::ostringstream out;
  {
    obs::StreamSink stream(out, /*flush_every=*/16);
    obs::SynchronizedSink sync(stream);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&sync, t] {
        for (int i = 0; i < 50; ++i) {
          obs::Event ev("worker_event");
          ev.field("worker", static_cast<std::uint64_t>(t))
              .field("i", static_cast<std::uint64_t>(i));
          sync.emit(ev);
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 200u);
  for (const auto& line : lines) {
    EXPECT_TRUE(obs::json_parse(line).has_value()) << line;
  }
}

}  // namespace
}  // namespace commroute
