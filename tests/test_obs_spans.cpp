// Span tracing semantics: RAII nesting, attributes, move/disabled/
// out-of-order behavior, thread safety, the Chrome trace-event export
// (every slice must carry name/ph/ts/dur/pid/tid — the acceptance
// criterion for `commroute-obs convert`), and the span hierarchies the
// instrumented hot loops actually produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/explorer.hpp"
#include "engine/runner.hpp"
#include "obs/analysis.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "spp/gadgets.hpp"
#include "study/campaign.hpp"

namespace commroute {
namespace {

using model::Model;

obs::JsonValue parse_or_die(const std::string& text) {
  const auto parsed = obs::json_parse(text);
  EXPECT_TRUE(parsed.has_value()) << "invalid JSON: " << text;
  return parsed.value_or(obs::JsonValue{});
}

const obs::SpanRecord* find_span(const std::vector<obs::SpanRecord>& records,
                                 const std::string& name) {
  for (const obs::SpanRecord& rec : records) {
    if (rec.name == name) {
      return &rec;
    }
  }
  return nullptr;
}

std::size_t count_spans(const std::vector<obs::SpanRecord>& records,
                        const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(),
                    [&](const obs::SpanRecord& r) { return r.name == name; }));
}

TEST(Span, NestsUnderInnermostOpenSpanOnSameThread) {
  obs::SpanCollector collector;
  {
    obs::Span outer = collector.begin("outer");
    {
      obs::Span inner = collector.begin("inner");
      obs::Span leaf = collector.begin("leaf");
    }
    obs::Span sibling = collector.begin("sibling");
  }
  const auto records = collector.snapshot();
  ASSERT_EQ(records.size(), 4u);

  const obs::SpanRecord* outer = find_span(records, "outer");
  const obs::SpanRecord* inner = find_span(records, "inner");
  const obs::SpanRecord* leaf = find_span(records, "leaf");
  const obs::SpanRecord* sibling = find_span(records, "sibling");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);
  ASSERT_NE(sibling, nullptr);

  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(leaf->parent, inner->id);
  EXPECT_EQ(sibling->parent, outer->id);  // inner already closed
  EXPECT_EQ(outer->tid, inner->tid);

  // Ids are unique and records land in finish order (leaf-first).
  EXPECT_EQ(records.front().name, "leaf");
  EXPECT_EQ(records.back().name, "outer");
  EXPECT_GE(outer->dur_us, inner->dur_us);
}

TEST(Span, AttributesRenderAsOneJsonObject) {
  obs::SpanCollector collector;
  {
    obs::Span span = collector.begin("work");
    span.attr("node", std::uint64_t{3})
        .attr("label", "a\"b")
        .attr("ok", true);
  }
  const auto records = collector.snapshot();
  ASSERT_EQ(records.size(), 1u);
  const auto args = parse_or_die(records[0].args_json);
  ASSERT_TRUE(args.is_object());
  EXPECT_DOUBLE_EQ(args.find("node")->as_number(), 3.0);
  EXPECT_EQ(args.find("label")->as_string(), "a\"b");
  EXPECT_TRUE(args.find("ok")->as_bool());
}

TEST(Span, DefaultConstructedIsADisabledNoop) {
  obs::Span span;
  EXPECT_FALSE(span.enabled());
  span.attr("ignored", 1);
  EXPECT_EQ(span.elapsed_us(), 0u);
  span.finish();  // must not crash
  EXPECT_EQ(obs::begin_span(nullptr, "x").enabled(), false);
}

TEST(Span, InstrumentationWithoutCollectorHandsOutDisabledSpans) {
  obs::Instrumentation inst;
  EXPECT_FALSE(inst.span("x").enabled());
  EXPECT_EQ(inst.histogram("h", {1, 2}), nullptr);

  obs::SpanCollector collector;
  inst.spans = &collector;
  EXPECT_TRUE(inst.attached());
  { obs::Span span = inst.span("x"); }
  EXPECT_EQ(collector.size(), 1u);
}

TEST(Span, MoveTransfersOwnershipWithoutDoubleRecording) {
  obs::SpanCollector collector;
  {
    obs::Span a = collector.begin("moved");
    obs::Span b = std::move(a);
    a.finish();  // moved-from: no-op
    EXPECT_TRUE(b.enabled());
  }
  EXPECT_EQ(collector.size(), 1u);

  // Move-assign finishes the target's old span first.
  {
    obs::Span target = collector.begin("first");
    target = collector.begin("second");
  }
  const auto records = collector.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_NE(find_span(records, "first"), nullptr);
  EXPECT_NE(find_span(records, "second"), nullptr);
}

TEST(Span, OutOfOrderFinishStillRecordsBoth) {
  obs::SpanCollector collector;
  obs::Span a = collector.begin("a");
  obs::Span b = collector.begin("b");
  a.finish();  // b still open
  b.finish();
  const auto records = collector.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(find_span(records, "b")->parent, find_span(records, "a")->id);
}

TEST(Span, FinishIsIdempotent) {
  obs::SpanCollector collector;
  obs::Span span = collector.begin("once");
  span.finish();
  span.finish();
  EXPECT_EQ(collector.size(), 1u);
}

TEST(Span, ThreadsGetDistinctTidsAndIndependentNesting) {
  obs::SpanCollector collector;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector] {
      obs::Span outer = collector.begin("thread.outer");
      obs::Span inner = collector.begin("thread.inner");
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const auto records = collector.snapshot();
  ASSERT_EQ(records.size(), 2u * kThreads);

  std::vector<std::uint32_t> tids;
  for (const obs::SpanRecord& rec : records) {
    if (rec.name == "thread.outer") {
      EXPECT_EQ(rec.parent, 0u);
      tids.push_back(rec.tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());

  // Each inner's parent is the outer from the SAME thread.
  for (const obs::SpanRecord& rec : records) {
    if (rec.name != "thread.inner") {
      continue;
    }
    const auto parent = std::find_if(
        records.begin(), records.end(),
        [&](const obs::SpanRecord& r) { return r.id == rec.parent; });
    ASSERT_NE(parent, records.end());
    EXPECT_EQ(parent->name, "thread.outer");
    EXPECT_EQ(parent->tid, rec.tid);
  }
}

TEST(ChromeTrace, EverySliceCarriesTheRequiredFields) {
  obs::SpanCollector collector;
  {
    obs::Span outer = collector.begin("outer");
    outer.attr("k", 1);
    obs::Span inner = collector.begin("inner");
  }
  const std::string json = obs::chrome_trace_json(collector);
  const auto doc = parse_or_die(json);
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t slices = 0;
  for (const obs::JsonValue& event : events->as_array()) {
    ASSERT_NE(event.find("ph"), nullptr);
    const std::string& ph = event.find("ph")->as_string();
    if (ph != "X") {
      continue;  // metadata etc.
    }
    ++slices;
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("dur"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    EXPECT_TRUE(event.find("ts")->is_number());
    EXPECT_TRUE(event.find("dur")->is_number());
    EXPECT_DOUBLE_EQ(event.find("pid")->as_number(), 1.0);
  }
  EXPECT_EQ(slices, 2u);
}

TEST(ChromeTrace, RoundTripsThroughSpansFromChromeTrace) {
  obs::SpanCollector collector;
  {
    obs::Span outer = collector.begin("outer");
    obs::Span inner = collector.begin("inner");
  }
  const auto original = collector.snapshot();
  const auto doc = parse_or_die(obs::chrome_trace_json(collector));
  const auto restored = obs::spans_from_chrome_trace(doc);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].name, original[i].name);
    EXPECT_EQ(restored[i].id, original[i].id);
    EXPECT_EQ(restored[i].parent, original[i].parent);
    EXPECT_EQ(restored[i].tid, original[i].tid);
    EXPECT_EQ(restored[i].start_us, original[i].start_us);
    EXPECT_EQ(restored[i].dur_us, original[i].dur_us);
  }
}

TEST(ChromeTrace, JsonlSpanEventsConvertToSlices) {
  obs::SpanCollector collector;
  {
    obs::Span outer = collector.begin("outer");
    obs::Span inner = collector.begin("inner");
    inner.attr("n", 7);
  }
  obs::MemorySink sink;
  obs::spans_to_jsonl(collector, sink);
  ASSERT_EQ(sink.lines().size(), 2u);

  std::string jsonl;
  for (const std::string& line : sink.lines()) {
    jsonl += line;
    jsonl += '\n';
  }
  jsonl += "{\"type\":\"checker_heartbeat\",\"states\":5,\"elapsed_ms\":2}\n";
  jsonl += "not json\n";

  std::istringstream in(jsonl);
  const obs::JsonlConversion conversion = obs::chrome_trace_from_jsonl(in);
  EXPECT_EQ(conversion.events, 3u);
  EXPECT_EQ(conversion.skipped, 1u);

  const auto doc = parse_or_die(conversion.trace_json);
  const auto restored = obs::spans_from_chrome_trace(doc);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(find_span(restored, "inner")->parent,
            find_span(restored, "outer")->id);

  // The heartbeat became an instant mark at elapsed_ms * 1000.
  bool instant_found = false;
  for (const obs::JsonValue& event :
       doc.find("traceEvents")->as_array()) {
    if (event.find("ph")->as_string() == "i") {
      instant_found = true;
      EXPECT_DOUBLE_EQ(event.find("ts")->as_number(), 2000.0);
    }
  }
  EXPECT_TRUE(instant_found);
}

TEST(ChromeTrace, EmitsProcessAndThreadNameMetadata) {
  obs::SpanCollector collector;
  {
    obs::Span outer = collector.begin("outer");
  }
  std::thread([&collector] {
    obs::Span worker = collector.begin("thread.worker");
  }).join();

  const auto doc = parse_or_die(obs::chrome_trace_json(collector));
  bool process_named = false;
  std::size_t thread_names = 0;
  for (const obs::JsonValue& event : doc.find("traceEvents")->as_array()) {
    if (event.find("ph")->as_string() != "M") {
      continue;
    }
    const std::string& name = event.find("name")->as_string();
    const obs::JsonValue* args = event.find("args");
    ASSERT_NE(args, nullptr);
    if (name == "process_name") {
      process_named = true;
      EXPECT_EQ(args->find("name")->as_string(), "commroute");
    } else if (name == "thread_name") {
      ++thread_names;
      const std::string& label = args->find("name")->as_string();
      if (event.find("tid")->as_number() == 0.0) {
        EXPECT_EQ(label, "main");
      } else {
        EXPECT_EQ(label.rfind("worker-", 0), 0u) << label;
      }
    }
  }
  EXPECT_TRUE(process_named);
  EXPECT_EQ(thread_names, 2u);  // main + the spawned worker
}

TEST(ChromeTrace, FlowEventsLinkSenderToConsumerSteps) {
  const spp::Instance good = spp::good_gadget();
  const Model m = Model::parse("RMS");
  engine::RoundRobinScheduler sched(m, good);
  obs::SpanCollector collector;
  engine::RunOptions options;
  options.obs.spans = &collector;
  options.causality = true;
  const auto result = engine::run(good, sched, options);
  ASSERT_TRUE(result.causality.has_value());

  const auto doc =
      parse_or_die(obs::chrome_trace_json(collector, *result.causality));
  std::size_t starts = 0, finishes = 0;
  for (const obs::JsonValue& event : doc.find("traceEvents")->as_array()) {
    const std::string& ph = event.find("ph")->as_string();
    if (ph != "s" && ph != "f") {
      continue;
    }
    EXPECT_EQ(event.find("cat")->as_string(), "causal");
    ASSERT_NE(event.find("id"), nullptr);
    ASSERT_NE(event.find("name"), nullptr);
    if (ph == "s") {
      ++starts;
    } else {
      ++finishes;
      // Perfetto binds the arrow to the enclosing slice only with an
      // explicit "enclosing" binding point.
      EXPECT_EQ(event.find("bp")->as_string(), "e");
    }
  }
  // Every consumed message whose send and consume steps are both traced
  // gets exactly one arrow: a start at the sender, a finish at the
  // consumer.
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, finishes);

  // The plain overload stays flow-free.
  const auto flat = parse_or_die(obs::chrome_trace_json(collector));
  for (const obs::JsonValue& event : flat.find("traceEvents")->as_array()) {
    const std::string& ph = event.find("ph")->as_string();
    EXPECT_NE(ph, "s");
    EXPECT_NE(ph, "f");
  }
}

TEST(EngineRun, ProducesRunStepActivateHierarchy) {
  const spp::Instance good = spp::good_gadget();
  const Model m = Model::parse("RMS");
  engine::RoundRobinScheduler sched(m, good);
  obs::SpanCollector collector;
  obs::Registry registry;
  engine::RunOptions options;
  options.record_trace = false;
  options.obs.spans = &collector;
  options.obs.metrics = &registry;
  const auto result = engine::run(good, sched, options);
  EXPECT_EQ(result.outcome, engine::Outcome::kConverged);

  const auto records = collector.snapshot();
  ASSERT_EQ(count_spans(records, "engine.run"), 1u);
  EXPECT_EQ(count_spans(records, "engine.step"), result.steps);
  EXPECT_GE(count_spans(records, "engine.activate"), result.steps);

  const obs::SpanRecord* run = find_span(records, "engine.run");
  EXPECT_EQ(run->parent, 0u);
  EXPECT_EQ(parse_or_die(run->args_json).find("outcome")->as_string(),
            "converged");
  for (const obs::SpanRecord& rec : records) {
    if (rec.name == "engine.step") {
      EXPECT_EQ(rec.parent, run->id);
    }
  }

  // engine.run_us histogram observed once per run.
  const auto samples = registry.snapshot();
  const auto hist = std::find_if(
      samples.begin(), samples.end(), [](const obs::MetricSample& s) {
        return s.name == "engine.run_us" &&
               s.kind == obs::MetricSample::Kind::kHistogram;
      });
  ASSERT_NE(hist, samples.end());
  EXPECT_EQ(hist->value, 1u);
}

TEST(CheckerExplore, ProducesExploreBatchExpandPruneHierarchy) {
  const spp::Instance dis = spp::disagree();
  // Worker expand spans nest under their batch at any thread width.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::SpanCollector collector;
    obs::Registry registry;
    checker::ExploreOptions options;
    options.max_channel_length = 3;
    options.threads = threads;
    options.obs.spans = &collector;
    options.obs.metrics = &registry;
    const auto result = checker::explore(dis, Model::parse("RMS"), options);
    EXPECT_GE(result.states, 1u);

    const auto records = collector.snapshot();
    ASSERT_EQ(count_spans(records, "checker.explore"), 1u);
    EXPECT_GE(count_spans(records, "checker.frontier_batch"), 1u);
    EXPECT_GE(count_spans(records, "checker.expand"), 1u);
    EXPECT_GE(count_spans(records, "checker.scc_prune_pass"), 1u);

    const obs::SpanRecord* explore = find_span(records, "checker.explore");
    EXPECT_EQ(explore->parent, 0u);
    const auto args = parse_or_die(explore->args_json);
    EXPECT_DOUBLE_EQ(args.find("states")->as_number(),
                     static_cast<double>(result.states));

    for (const obs::SpanRecord& rec : records) {
      if (rec.name == "checker.frontier_batch" ||
          rec.name == "checker.scc_prune_pass") {
        EXPECT_EQ(rec.parent, explore->id) << rec.name;  // siblings
      } else if (rec.name == "checker.expand") {
        const auto parent = std::find_if(
            records.begin(), records.end(),
            [&](const obs::SpanRecord& r) { return r.id == rec.parent; });
        ASSERT_NE(parent, records.end());
        EXPECT_EQ(parent->name, "checker.frontier_batch");
      }
    }

    // Per-expansion durations landed in the checker.expand_us histogram.
    const auto samples = registry.snapshot();
    const auto hist = std::find_if(
        samples.begin(), samples.end(), [](const obs::MetricSample& s) {
          return s.name == "checker.expand_us" &&
                 s.kind == obs::MetricSample::Kind::kHistogram;
        });
    ASSERT_NE(hist, samples.end());
    // Bound-skipped expansions record a span but skip the observe, so the
    // histogram can trail the span count slightly — never exceed it.
    EXPECT_GE(hist->value, 1u);
    EXPECT_LE(hist->value, count_spans(records, "checker.expand"));
  }
}

TEST(CheckerExplore, HeartbeatsCarryElapsedMs) {
  const spp::Instance dis = spp::disagree();
  obs::MemorySink sink;
  checker::ExploreOptions options;
  options.max_channel_length = 3;
  options.heartbeat_every = 10;
  options.obs.sink = &sink;
  checker::explore(dis, Model::parse("RMS"), options);

  std::size_t heartbeats = 0;
  double last_elapsed = 0.0;
  for (const std::string& line : sink.lines()) {
    const auto v = parse_or_die(line);
    if (v.find("type")->as_string() != "checker_heartbeat") {
      continue;
    }
    ++heartbeats;
    ASSERT_NE(v.find("elapsed_ms"), nullptr);
    const double elapsed = v.find("elapsed_ms")->as_number();
    EXPECT_GE(elapsed, last_elapsed);  // monotone along the run
    last_elapsed = elapsed;
  }
  EXPECT_GE(heartbeats, 1u);
}

TEST(CheckerExplore, ZeroHeartbeatEveryEmitsNoHeartbeats) {
  const spp::Instance dis = spp::disagree();
  obs::MemorySink sink;
  checker::ExploreOptions options;
  options.max_channel_length = 3;
  options.heartbeat_every = 0;
  options.obs.sink = &sink;
  checker::explore(dis, Model::parse("RMS"), options);
  for (const std::string& line : sink.lines()) {
    EXPECT_NE(parse_or_die(line).find("type")->as_string(),
              "checker_heartbeat");
  }
}

TEST(Campaign, RowsNestUnderTheCampaignAndEngineRunsUnderRows) {
  const spp::Instance good = spp::good_gadget();
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::SpanCollector collector;
    study::CampaignSpec spec;
    spec.instances = {{"GOOD", &good}};
    spec.models = {Model::parse("RMS")};
    spec.schedulers = {study::SchedulerKind::kRoundRobin,
                       study::SchedulerKind::kSynchronous};
    spec.threads = threads;
    spec.obs.spans = &collector;
    const auto result = study::run_campaign(spec);

    const auto records = collector.snapshot();
    ASSERT_EQ(count_spans(records, "campaign.run"), 1u);
    EXPECT_EQ(count_spans(records, "campaign.row"), result.rows.size());
    EXPECT_EQ(count_spans(records, "engine.run"), result.rows.size());

    const obs::SpanRecord* campaign = find_span(records, "campaign.run");
    for (const obs::SpanRecord& rec : records) {
      if (rec.name == "campaign.row") {
        EXPECT_EQ(rec.parent, campaign->id);
        EXPECT_EQ(parse_or_die(rec.args_json).find("instance")->as_string(),
                  "GOOD");
      } else if (rec.name == "engine.run") {
        const auto parent = std::find_if(
            records.begin(), records.end(),
            [&](const obs::SpanRecord& r) { return r.id == rec.parent; });
        ASSERT_NE(parent, records.end());
        EXPECT_EQ(parent->name, "campaign.row");
      }
    }
  }
}

TEST(SpanCollectorMerge, OffsetsIdsParentsAndTids) {
  obs::SpanCollector target;
  {
    obs::Span main_span = target.begin("main");
  }

  obs::SpanCollector shard;
  {
    obs::Span outer = shard.begin("outer");
    obs::Span inner = shard.begin("inner");
  }

  target.merge_from(shard);
  const auto records = target.snapshot();
  ASSERT_EQ(records.size(), 3u);

  // Ids stay unique after the merge.
  std::vector<std::uint32_t> ids;
  for (const auto& rec : records) {
    ids.push_back(rec.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

  // The shard's internal parent link survived the offset: "inner" still
  // points at "outer", and "outer" stayed a root.
  const obs::SpanRecord* outer = nullptr;
  const obs::SpanRecord* inner = nullptr;
  const obs::SpanRecord* main_rec = nullptr;
  for (const auto& rec : records) {
    if (rec.name == "outer") outer = &rec;
    if (rec.name == "inner") inner = &rec;
    if (rec.name == "main") main_rec = &rec;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(main_rec, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  // Same OS thread, but distinct collectors: merged records get a fresh
  // dense tid so timelines never collide.
  EXPECT_NE(outer->tid, main_rec->tid);
  EXPECT_EQ(inner->tid, outer->tid);
}

TEST(SpanCollectorMerge, RootsBegunUnderARootParentKeepItAcrossTheMerge) {
  obs::SpanCollector target;
  obs::SpanCollector shard;
  {
    obs::Span other = target.begin("other");  // target ids move past 1
  }
  obs::Span main_span = target.begin("main");
  EXPECT_EQ(target.open_span(), 2u);
  shard.set_root_parent(target.open_span());
  {
    obs::Span outer = shard.begin("outer");
    obs::Span inner = shard.begin("inner");
  }
  main_span.finish();
  EXPECT_EQ(target.open_span(), 0u);
  target.merge_from(shard);

  const auto records = target.snapshot();
  const obs::SpanRecord* outer = find_span(records, "outer");
  const obs::SpanRecord* inner = find_span(records, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 2u);  // "main", not re-based
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_FALSE(outer->adopted);
}

TEST(SpanCollectorMerge, NewSpansAfterMergeStayUnique) {
  obs::SpanCollector target;
  obs::SpanCollector shard;
  {
    obs::Span s = shard.begin("shard_span");
  }
  target.merge_from(shard);
  {
    obs::Span later = target.begin("after_merge");
  }
  const auto records = target.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].id, records[1].id);
  EXPECT_NE(records[0].tid, records[1].tid);
}

TEST(SpanCollectorMerge, RebasesTimestampsOntoTheTargetEpoch) {
  obs::SpanCollector target;  // earlier epoch
  obs::SpanCollector shard;
  {
    obs::Span s = shard.begin("work");
  }
  target.merge_from(shard);
  // The shard was created after the target, so the re-based timestamp
  // cannot underflow below the target's epoch.
  const auto records = target.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GE(records[0].start_us, 0u);
}

}  // namespace
}  // namespace commroute
