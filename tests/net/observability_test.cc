// End-to-end observability tests for the network path: stage-latency
// histograms that reconcile exactly to the acked-request count, the
// kStatsProm Prometheus exposition, kHealth lifecycle transitions, and
// the request-id flow arc linking the reactor thread to the shard
// digestion thread in the trace.

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/trace.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "testing/test_util.h"

namespace kflush {
namespace net {
namespace {

using testing_util::MakeBlog;
using testing_util::SmallStoreOptions;

constexpr const char* kStageHistograms[] = {
    "net.ingest_ack_micros.decode", "net.ingest_ack_micros.admission",
    "net.ingest_ack_micros.commit", "net.ingest_ack_micros.respond"};

ShardedSystemOptions SystemOptionsFor(size_t shards, size_t queue_capacity) {
  ShardedSystemOptions options;
  options.system.store = SmallStoreOptions(PolicyKind::kFifo, 1 << 20);
  options.system.ingest_queue_capacity = queue_capacity;
  options.num_shards = shards;
  return options;
}

std::unique_ptr<NetClient> MustConnect(const NetServer& server) {
  auto client = NetClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

// Every acked ingest lands exactly one sample in each of the four stage
// histograms — mixed with NACKed requests, which must land in none.
TEST(NetObservability, StageHistogramsReconcileToAckedRequests) {
  ShardedMicroblogSystem system(SystemOptionsFor(2, 64));
  system.Start();
  ServerOptions options;
  options.max_batch_records = 4;
  NetServer server(&system, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  uint64_t acks = 0;
  for (int i = 0; i < 12; ++i) {
    std::vector<Microblog> batch(
        i % 3 == 2 ? 5 : 2,  // every third batch oversized -> NACK
        MakeBlog(kInvalidMicroblogId, 0, {static_cast<KeywordId>(7 + i)}));
    auto reply = client->Ingest(batch);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply->type == MsgType::kIngestAck) ++acks;
  }
  ASSERT_EQ(acks, 8u);

  // The respond stamp is drained on the reactor thread after the write;
  // a follow-up round trip guarantees the loop has passed that point.
  ASSERT_TRUE(client->Ping().ok());
  // The commit stage is recorded by the digestion thread at durable
  // commit of the last sub-batch; wait for digestion to quiesce.
  while (system.digested() < system.routed_copies()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const MetricsSnapshot snap = server.metrics_registry()->Snapshot();
  EXPECT_EQ(snap.counter_or("net.ingest_acks"), acks);
  EXPECT_EQ(snap.counter_or("net.ingest_requests"), 12u);
  for (const char* name : kStageHistograms) {
    ASSERT_EQ(snap.histograms.count(name), 1u) << name;
    EXPECT_EQ(snap.histograms.at(name).count(), acks) << name;
  }
  server.Stop();
  system.Stop();
}

// The kStatsProm reply is a well-formed exposition containing the net
// families; the legacy JSON stats and the registry agree on every count.
TEST(NetObservability, StatsPromExpositionOverLoopback) {
  ShardedMicroblogSystem system(SystemOptionsFor(2, 64));
  system.Start();
  NetServer server(&system, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  std::vector<Microblog> batch(3, MakeBlog(kInvalidMicroblogId, 0, {9}));
  ASSERT_EQ(client->Ingest(batch)->type, MsgType::kIngestAck);
  TopKQuery query;
  query.terms = {9};
  ASSERT_TRUE(client->Query(query).ok());

  auto prom = client->StatsProm();
  ASSERT_TRUE(prom.ok()) << prom.status().ToString();
  EXPECT_NE(prom->find("# TYPE kflush_net_records_acked counter\n"
                       "kflush_net_records_acked 3\n"),
            std::string::npos)
      << *prom;
  EXPECT_NE(prom->find("# TYPE kflush_net_connections_live gauge\n"),
            std::string::npos);
  EXPECT_NE(
      prom->find("# TYPE kflush_net_ingest_ack_micros_decode histogram\n"),
      std::string::npos);
  EXPECT_NE(prom->find("kflush_net_ingest_ack_micros_decode_count 1\n"),
            std::string::npos);
  // Store-side families ride along (two shards -> aggregated + per-shard).
  EXPECT_NE(prom->find("kflush_ingest_inserted"), std::string::npos);
  EXPECT_NE(prom->find("kflush_shard0_"), std::string::npos);
  // The query's latency split, one sample per stage.
  for (const char* stage : {"postings", "disk", "merge", "materialize"}) {
    const std::string family =
        std::string("kflush_query_stage_micros_") + stage;
    EXPECT_NE(prom->find("# TYPE " + family + " histogram\n"),
              std::string::npos)
        << family;
    EXPECT_NE(prom->find(family + "_count 1\n"), std::string::npos) << family;
  }
  // No raw dotted names leak outside # HELP lines.
  EXPECT_EQ(prom->find("\nnet.records_acked"), std::string::npos);

  // The JSON stats view derives from the same registry counters.
  const NetServer::Stats stats = server.stats();
  EXPECT_EQ(stats.records_offered, 3u);
  EXPECT_EQ(stats.records_acked, 3u);
  EXPECT_EQ(stats.records_offered,
            stats.records_acked + stats.records_skipped +
                stats.records_nacked);
  server.Stop();
  system.Stop();
}

// kHealth reports kServing while up and kDraining once a protocol
// shutdown has been accepted.
TEST(NetObservability, HealthTransitionsServingToDraining) {
  ShardedMicroblogSystem system(SystemOptionsFor(1, 8));
  system.Start();
  NetServer server(&system, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  auto health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, ServingState::kServing);

  ASSERT_TRUE(client->Shutdown().ok());
  server.AwaitStop();
  EXPECT_EQ(server.health(), ServingState::kDraining);
  server.Stop();
  system.Stop();
}

// The trace holds a flow arc keyed by the wire request id: begin on the
// reactor thread at admission, a step on the shard digestion thread, an
// end at durable commit, and a respond-side step at the ack write — and
// the arc demonstrably crosses threads.
TEST(NetObservability, RequestFlowArcLinksReactorToDigestion) {
  Tracer* tracer = Tracer::Global();
  tracer->ResetForTesting();
  tracer->Start();

  ShardedMicroblogSystem system(SystemOptionsFor(2, 64));
  system.Start();
  NetServer server(&system, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server);

  std::vector<Microblog> batch(4, MakeBlog(kInvalidMicroblogId, 0, {11}));
  auto ack = client->Ingest(batch);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->type, MsgType::kIngestAck);
  ASSERT_TRUE(client->Ping().ok());  // reactor past the ack write
  while (system.digested() < system.routed_copies()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();
  system.Stop();
  tracer->Stop();

  // NetClient numbers requests from 1; the ingest was the first frame.
  constexpr uint64_t kIngestRequestId = 1;
  bool saw_start = false, saw_end = false;
  std::set<uint32_t> flow_tids;
  for (const TraceEvent& e : tracer->Snapshot()) {
    if (e.flow_id != kIngestRequestId) continue;
    if (e.type == TraceEventType::kFlowStart) saw_start = true;
    if (e.type == TraceEventType::kFlowEnd) saw_end = true;
    if (e.type == TraceEventType::kFlowStart ||
        e.type == TraceEventType::kFlowStep ||
        e.type == TraceEventType::kFlowEnd) {
      flow_tids.insert(e.tid);
    }
  }
  EXPECT_TRUE(saw_start) << "no flow begin at admission";
  EXPECT_TRUE(saw_end) << "no flow end at durable commit";
  EXPECT_GE(flow_tids.size(), 2u)
      << "flow arc never left the reactor thread";
  tracer->ResetForTesting();
}

}  // namespace
}  // namespace net
}  // namespace kflush
