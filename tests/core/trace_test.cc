// Trace recorder unit tests: disabled no-op behavior, span pairing, typed
// arg round-trips, ring wraparound accounting, snapshot ordering, and the
// Chrome trace-event JSON exporter — including a golden-file schema test
// driven by a SimClock so every byte of the artifact is deterministic
// (thread ids excepted; the golden file holds a @TID@ placeholder).

#include "core/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../testing/test_util.h"
#include "util/clock.h"
#include "util/thread_util.h"

namespace kflush {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::Global()->ResetForTesting(); }
  void TearDown() override { Tracer::Global()->ResetForTesting(); }
};

TEST_F(TraceTest, DisabledEmitRecordsNothing) {
  Tracer* tracer = Tracer::Global();
  ASSERT_FALSE(tracer->enabled());
  KFLUSH_TRACE_INSTANT("test", "ignored", TraceArg::Int("x", 1));
  {
    TraceSpan span("test", "ignored_span");
    span.End({TraceArg::Bool("ok", true)});
  }
  EXPECT_EQ(tracer->events_emitted(), 0u);
  EXPECT_EQ(tracer->events_dropped(), 0u);
  EXPECT_TRUE(tracer->Snapshot().empty());
}

TEST_F(TraceTest, SpanEmitsBalancedBeginEnd) {
  Tracer* tracer = Tracer::Global();
  tracer->Start();
  {
    TraceSpan span("cat", "work", {TraceArg::Uint("in", 7)});
    KFLUSH_TRACE_INSTANT("cat", "mid");
  }  // destructor ends the span
  tracer->Stop();

  const std::vector<TraceEvent> events = tracer->Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, TraceEventType::kSpanBegin);
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_STREQ(events[0].category, "cat");
  EXPECT_EQ(events[1].type, TraceEventType::kInstant);
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_EQ(events[2].type, TraceEventType::kSpanEnd);
  EXPECT_STREQ(events[2].name, "work");
  // Begin and end carry the same tid, and time does not run backwards.
  EXPECT_EQ(events[0].tid, events[2].tid);
  EXPECT_LE(events[0].ts_micros, events[2].ts_micros);
}

TEST_F(TraceTest, SpanEndIsIdempotent) {
  Tracer* tracer = Tracer::Global();
  tracer->Start();
  {
    TraceSpan span("cat", "once");
    span.End({TraceArg::Str("outcome", "early")});
  }  // destructor must not emit a second end
  EXPECT_EQ(tracer->events_emitted(), 2u);
}

TEST_F(TraceTest, ArgsRoundTripAllKinds) {
  Tracer* tracer = Tracer::Global();
  tracer->Start();
  KFLUSH_TRACE_INSTANT("test", "typed", TraceArg::Int("i", -42),
                       TraceArg::Uint("u", 1ull << 63),
                       TraceArg::Double("d", 2.5),
                       TraceArg::Str("s", "hello"),
                       TraceArg::Bool("b", false));
  const std::vector<TraceEvent> events = tracer->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  ASSERT_EQ(e.num_args, 5u);
  EXPECT_STREQ(e.args[0].key, "i");
  EXPECT_EQ(e.args[0].kind, TraceArg::Kind::kInt64);
  EXPECT_EQ(e.args[0].value.i64, -42);
  EXPECT_STREQ(e.args[1].key, "u");
  EXPECT_EQ(e.args[1].kind, TraceArg::Kind::kUint64);
  EXPECT_EQ(e.args[1].value.u64, 1ull << 63);
  EXPECT_STREQ(e.args[2].key, "d");
  EXPECT_EQ(e.args[2].kind, TraceArg::Kind::kDouble);
  EXPECT_EQ(e.args[2].value.f64, 2.5);
  EXPECT_STREQ(e.args[3].key, "s");
  EXPECT_EQ(e.args[3].kind, TraceArg::Kind::kString);
  EXPECT_STREQ(e.args[3].value.str, "hello");
  EXPECT_STREQ(e.args[4].key, "b");
  EXPECT_EQ(e.args[4].kind, TraceArg::Kind::kString);  // bools encode as strings
  EXPECT_STREQ(e.args[4].value.str, "false");
}

TEST_F(TraceTest, ExcessArgsAreClamped) {
  Tracer* tracer = Tracer::Global();
  tracer->Start();
  tracer->Emit(TraceEventType::kInstant, "test", "wide",
               {TraceArg::Int("a0", 0), TraceArg::Int("a1", 1),
                TraceArg::Int("a2", 2), TraceArg::Int("a3", 3),
                TraceArg::Int("a4", 4), TraceArg::Int("a5", 5),
                TraceArg::Int("a6", 6), TraceArg::Int("a7", 7),
                TraceArg::Int("a8", 8), TraceArg::Int("a9", 9)});
  const std::vector<TraceEvent> events = tracer->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].num_args, kMaxTraceArgs);
  EXPECT_EQ(events[0].args[kMaxTraceArgs - 1].value.i64,
            static_cast<int64_t>(kMaxTraceArgs - 1));
}

TEST_F(TraceTest, WraparoundKeepsNewestAndCountsDrops) {
  Tracer* tracer = Tracer::Global();
  tracer->Start(/*capacity_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    KFLUSH_TRACE_INSTANT("test", "tick", TraceArg::Int("i", i));
  }
  EXPECT_EQ(tracer->events_emitted(), 20u);
  EXPECT_EQ(tracer->events_dropped(), 12u);

  const std::vector<TraceEvent> events = tracer->Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The ring keeps the newest events, in order.
  for (size_t j = 0; j < events.size(); ++j) {
    EXPECT_EQ(events[j].args[0].value.i64, static_cast<int64_t>(12 + j));
  }
}

TEST_F(TraceTest, SnapshotMergesThreadsSortedByTimestamp) {
  SimClock clock(1'000);
  Tracer* tracer = Tracer::Global();
  tracer->SetClockForTesting(&clock);
  tracer->Start();

  clock.Set(2'000);
  KFLUSH_TRACE_INSTANT("test", "late_from_main");
  clock.Set(1'500);
  std::thread worker(
      [] { KFLUSH_TRACE_INSTANT("test", "early_from_worker"); });
  worker.join();

  const std::vector<TraceEvent> events = tracer->Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // The worker's event carries the earlier timestamp and sorts first even
  // though it was emitted second, from another thread's ring.
  EXPECT_STREQ(events[0].name, "early_from_worker");
  EXPECT_EQ(events[0].ts_micros, 1'500u);
  EXPECT_STREQ(events[1].name, "late_from_main");
  EXPECT_EQ(events[1].ts_micros, 2'000u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ClearDropsEventsAndZeroesCounters) {
  Tracer* tracer = Tracer::Global();
  tracer->Start(/*capacity_per_thread=*/4);
  for (int i = 0; i < 10; ++i) KFLUSH_TRACE_INSTANT("test", "tick");
  ASSERT_GT(tracer->events_dropped(), 0u);
  tracer->Clear();
  EXPECT_EQ(tracer->events_emitted(), 0u);
  EXPECT_EQ(tracer->events_dropped(), 0u);
  EXPECT_TRUE(tracer->Snapshot().empty());
  // Recording continues after a clear.
  KFLUSH_TRACE_INSTANT("test", "after");
  EXPECT_EQ(tracer->Snapshot().size(), 1u);
}

TEST_F(TraceTest, StopKeepsEventsReadable) {
  Tracer* tracer = Tracer::Global();
  tracer->Start();
  KFLUSH_TRACE_INSTANT("test", "kept");
  tracer->Stop();
  KFLUSH_TRACE_INSTANT("test", "ignored");
  const std::vector<TraceEvent> events = tracer->Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept");
}

TEST_F(TraceTest, EventToJsonShapesAndEscaping) {
  TraceEvent e;
  e.ts_micros = 123;
  e.tid = 9;
  e.type = TraceEventType::kInstant;
  e.category = "cat";
  e.name = "quo\"te";
  e.num_args = 2;
  e.args[0] = TraceArg::Str("msg", "a\\b\n");
  e.args[1] = TraceArg::Double("d", 0.5);
  const std::string json = TraceExporter::EventToJson(e);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos)
      << "instants need a scope for Perfetto";
  EXPECT_NE(json.find("\"ts\":123"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":9"), std::string::npos);
  EXPECT_NE(json.find("quo\\\"te"), std::string::npos);
  EXPECT_NE(json.find("a\\\\b\\n"), std::string::npos);
  EXPECT_NE(json.find("\"d\":0.5"), std::string::npos);

  e.type = TraceEventType::kSpanBegin;
  EXPECT_NE(TraceExporter::EventToJson(e).find("\"ph\":\"B\""),
            std::string::npos);
  e.type = TraceEventType::kSpanEnd;
  EXPECT_NE(TraceExporter::EventToJson(e).find("\"ph\":\"E\""),
            std::string::npos);
}

TEST_F(TraceTest, EventToJsonFlowPhases) {
  // Flow events export as Chrome phases s/t/f sharing an "id"; the end
  // point carries bp:"e" so Perfetto binds it to the enclosing slice.
  TraceEvent e;
  e.ts_micros = 50;
  e.tid = 3;
  e.category = "net";
  e.name = "request";
  e.flow_id = 42;

  e.type = TraceEventType::kFlowStart;
  std::string json = TraceExporter::EventToJson(e);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find(",\"id\":42"), std::string::npos);
  EXPECT_EQ(json.find("\"bp\""), std::string::npos);

  e.type = TraceEventType::kFlowStep;
  json = TraceExporter::EventToJson(e);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find(",\"id\":42"), std::string::npos);
  EXPECT_EQ(json.find("\"bp\""), std::string::npos);

  e.type = TraceEventType::kFlowEnd;
  json = TraceExporter::EventToJson(e);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find(",\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST_F(TraceTest, FlowArcLinksAcrossThreads) {
  // The request-correlation arc the net path emits: flow begin on the
  // reactor thread, step + end on a worker — all sharing the request id.
  constexpr uint64_t kRequestId = 7'777;
  Tracer* tracer = Tracer::Global();
  tracer->Start();
  {
    TraceSpan ingest("net", "ingest");
    KFLUSH_TRACE_FLOW_BEGIN("net", "request", kRequestId,
                            TraceArg::Uint("records", 4));
  }
  std::thread worker([&] {
    TraceSpan digest("shard", "digest_batch");
    KFLUSH_TRACE_FLOW_STEP("net", "request", kRequestId);
    KFLUSH_TRACE_FLOW_END("net", "request", kRequestId);
  });
  worker.join();
  tracer->Stop();

  std::vector<TraceEvent> flows;
  for (const TraceEvent& e : tracer->Snapshot()) {
    if (e.type == TraceEventType::kFlowStart ||
        e.type == TraceEventType::kFlowStep ||
        e.type == TraceEventType::kFlowEnd) {
      flows.push_back(e);
    }
  }
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0].type, TraceEventType::kFlowStart);
  EXPECT_EQ(flows[1].type, TraceEventType::kFlowStep);
  EXPECT_EQ(flows[2].type, TraceEventType::kFlowEnd);
  for (const TraceEvent& e : flows) {
    EXPECT_EQ(e.flow_id, kRequestId);
    EXPECT_STREQ(e.name, "request");
  }
  // The arc genuinely crosses threads.
  EXPECT_NE(flows[0].tid, flows[1].tid);
  EXPECT_EQ(flows[1].tid, flows[2].tid);
}

TEST_F(TraceTest, WriteFileRoundTrip) {
  Tracer* tracer = Tracer::Global();
  tracer->Start();
  KFLUSH_TRACE_INSTANT("test", "persisted", TraceArg::Uint("n", 1));
  tracer->Stop();

  const std::string path =
      testing_util::UniqueTempPath("trace_write_file_roundtrip.json");
  ASSERT_TRUE(TraceExporter::WriteFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(content.str().find("persisted"), std::string::npos);
  EXPECT_NE(content.str().find("\"otherData\""), std::string::npos);

  EXPECT_FALSE(
      TraceExporter::WriteFile("/nonexistent-dir/trace.json").ok());
}

// --- Golden-file schema test -----------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  size_t pos = 0;
  while ((pos = s->find(from, pos)) != std::string::npos) {
    s->replace(pos, from.size(), to);
    pos += to.size();
  }
}

TEST_F(TraceTest, GoldenChromeTraceJson) {
  // A scripted flush-cycle vignette on a SimClock: the exported artifact
  // must match tests/core/testdata/trace_golden.json byte for byte (the
  // golden holds @TID@ where the emitting thread's logical id goes).
  SimClock clock(1'000);
  Tracer* tracer = Tracer::Global();
  tracer->SetClockForTesting(&clock);
  tracer->Start(/*capacity_per_thread=*/16);
  {
    TraceSpan cycle("flush", "cycle",
                    {TraceArg::Str("policy", "kflushing"),
                     TraceArg::Uint("bytes_needed", 4096)});
    clock.Advance(10);
    KFLUSH_TRACE_INSTANT("flush", "evict_victim", TraceArg::Int("phase", 2),
                         TraceArg::Uint("term", 7),
                         TraceArg::Int("heap_rank", 0),
                         TraceArg::Uint("order_key", 990),
                         TraceArg::Double("cost", 1.5),
                         TraceArg::Bool("entry_evicted", true));
    clock.Advance(5);
    cycle.End({TraceArg::Uint("bytes_freed", 4096)});
  }
  tracer->Stop();

  std::ostringstream actual;
  TraceExporter::WriteJson(tracer->Snapshot(), tracer->events_emitted(),
                           tracer->events_dropped(), actual);
  tracer->SetClockForTesting(nullptr);

  std::string expected = ReadWholeFile(std::string(KFLUSH_TEST_DATA_DIR) +
                                       "/trace_golden.json");
  ReplaceAll(&expected, "@TID@", std::to_string(ThisThreadId()));
  const std::string regen_path =
      testing_util::UniqueTempPath("trace_golden_actual.json");
  if (actual.str() != expected) {
    // Regeneration aid: the actual output with the tid swapped back to the
    // placeholder, ready to copy over the golden file.
    std::string regen = actual.str();
    ReplaceAll(&regen, "\"tid\":" + std::to_string(ThisThreadId()),
               "\"tid\":@TID@");
    std::ofstream(regen_path) << regen;
  }
  EXPECT_EQ(actual.str(), expected)
      << "golden mismatch; regenerated candidate at " << regen_path;
}

}  // namespace
}  // namespace kflush
