// Metrics-conservation suite: the registry's cross-layer counters must
// balance exactly for every flushing policy. These are the accounting
// identities the paper's evaluation quietly relies on — if "flushed +
// resident" drifts from "ingested", every hit-ratio and memory figure
// built on those counters is suspect.
//
//   ingest.inserted        == flush.records_flushed + store.resident_records
//   flush.records_flushed  == sum over phases of flush.phaseN.records
//   flush.postings_dropped == sum over phases of flush.phaseN.postings
//                          == disk.postings_added
//   disk.records_written   == flush.records_flushed   (buffer fully drained)
//   query.executed         == query.memory_hits + query.memory_misses
//                          == sum of per-type/per-outcome latency counts
//                          == queries run, at every shard count (shard
//                             visits are not queries)
//   query.unproven_hits    <= query.memory_hits
//   query.stage_micros.<stage> count == query.executed, for every stage
//   sum of the stage sums  == sum of the latency sums (the stages
//                             partition each query's latency)
//   flush.stage_micros.<stage> count == flush.cycles, for every stage
//   sum of the flush stage sums == flush.cycle_micros sum (the stages
//                             partition each cycle's wall time)

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../testing/test_util.h"
#include "core/query_engine.h"
#include "core/sharded_store.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"
#include "policy/flush_policy.h"
#include "sim/experiment.h"

namespace kflush {
namespace {

// Store + engine + clock bundle (heap-held: SimClock's atomic makes the
// bundle non-movable), plus the ground truth of the queries it ran.
struct Workload {
  SimClock clock{1'000'000};
  std::unique_ptr<MicroblogStore> store;
  std::unique_ptr<QueryEngine> engine;
  uint64_t queries = 0;
  uint64_t hits = 0;  // results with memory_hit
};

// Streams a small seeded workload (enough inserts to force several flush
// cycles at a 2 MB budget) and a query mix through one store. When `audit`
// is given it is installed before the first insert, so the trail covers
// every flush cycle of the store's lifetime.
std::unique_ptr<Workload> RunWorkload(PolicyKind policy,
                                      EvictionAuditTrail* audit = nullptr) {
  auto owned = std::make_unique<Workload>();
  Workload& run = *owned;
  StoreOptions options;
  options.policy = policy;
  options.k = 10;
  options.memory_budget_bytes = 2 << 20;
  options.clock = &run.clock;
  run.store = std::make_unique<MicroblogStore>(options);
  run.engine = std::make_unique<QueryEngine>(run.store.get());
  if (audit != nullptr) run.store->policy()->set_audit_trail(audit);

  TweetGeneratorOptions stream;
  stream.seed = 20160516;
  stream.vocabulary_size = 10'000;
  stream.num_users = 2'000;
  TweetGenerator tweets(stream);
  for (int i = 0; i < 30'000; ++i) {
    Microblog blog = tweets.Next();
    run.clock.Set(blog.created_at);
    EXPECT_TRUE(run.store->Insert(std::move(blog)).ok());
  }
  EXPECT_GT(run.store->ingest_stats().flush_triggers, 0u)
      << PolicyKindName(policy) << ": workload never filled the budget";

  QueryWorkloadOptions workload;
  workload.seed = 99;
  QueryGenerator queries(workload, stream);
  for (int i = 0; i < 1'000; ++i) {
    run.clock.Advance(1);
    auto outcome = run.engine->Execute(queries.Next());
    EXPECT_TRUE(outcome.ok());
    ++run.queries;
    if (outcome.ok() && outcome->memory_hit) ++run.hits;
  }
  return owned;
}

// Samples in the six query.latency_micros.<type>.<hit|miss> histograms.
uint64_t LatencySamples(const MetricsSnapshot& snap) {
  uint64_t samples = 0;
  for (QueryType type : {QueryType::kSingle, QueryType::kAnd, QueryType::kOr}) {
    for (bool hit : {true, false}) {
      auto it = snap.histograms.find(QueryLatencySeries(type, hit));
      if (it != snap.histograms.end()) samples += it->second.count();
    }
  }
  return samples;
}

// Every query records each of its four stages once (0 when the stage did
// not run), and the stages partition its latency, so their sums add up to
// the latency histograms' sums exactly.
void ExpectStagesPartitionLatency(const MetricsSnapshot& snap,
                                  const std::string& label) {
  const uint64_t executed = snap.counter_or("query.executed");
  uint64_t stage_sum = 0;
  for (const char* stage : {"postings", "disk", "merge", "materialize"}) {
    const std::string name = std::string("query.stage_micros.") + stage;
    auto it = snap.histograms.find(name);
    ASSERT_NE(it, snap.histograms.end()) << label << " " << name;
    EXPECT_EQ(it->second.count(), executed) << label << " " << name;
    stage_sum += it->second.sum();
  }
  uint64_t latency_sum = 0;
  for (QueryType type : {QueryType::kSingle, QueryType::kAnd, QueryType::kOr}) {
    for (bool hit : {true, false}) {
      auto it = snap.histograms.find(QueryLatencySeries(type, hit));
      if (it != snap.histograms.end()) latency_sum += it->second.sum();
    }
  }
  EXPECT_EQ(stage_sum, latency_sum) << label;
}

// Every flush cycle records each of its four stages once (0 when the
// stage did not run), and the stages partition its wall time, so their
// sums add up to flush.cycle_micros's sum exactly.
void ExpectStagesPartitionCycles(const MetricsSnapshot& snap,
                                 const std::string& label) {
  const uint64_t cycles = snap.counter_or("flush.cycles");
  ASSERT_GT(cycles, 0u) << label << ": no flush cycle ran";
  uint64_t stage_sum = 0;
  for (const char* stage : {"select", "index", "drop", "drain"}) {
    const std::string name = std::string("flush.stage_micros.") + stage;
    auto it = snap.histograms.find(name);
    ASSERT_NE(it, snap.histograms.end()) << label << " " << name;
    EXPECT_EQ(it->second.count(), cycles) << label << " " << name;
    stage_sum += it->second.sum();
  }
  auto cycle = snap.histograms.find("flush.cycle_micros");
  ASSERT_NE(cycle, snap.histograms.end()) << label;
  EXPECT_EQ(cycle->second.count(), cycles) << label;
  EXPECT_EQ(stage_sum, cycle->second.sum()) << label;
}

uint64_t SumPhases(const MetricsSnapshot& snap, const std::string& field) {
  uint64_t sum = 0;
  for (int i = 1; i <= 3; ++i) {
    sum += snap.counter_or("flush.phase" + std::to_string(i) + "." + field);
  }
  return sum;
}

TEST(MetricsConservationTest, RecordsIngestedEqualFlushedPlusResident) {
  for (PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
        PolicyKind::kKFlushingMK}) {
    auto run = RunWorkload(policy);
    const MetricsSnapshot snap = run->store->metrics_registry()->Snapshot();
    EXPECT_EQ(snap.counter_or("ingest.inserted"),
              snap.counter_or("flush.records_flushed") +
                  static_cast<uint64_t>(snap.gauges.at("store.resident_records")))
        << PolicyKindName(policy);
  }
}

TEST(MetricsConservationTest, PhaseBreakdownSumsToCycleTotals) {
  for (PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
        PolicyKind::kKFlushingMK}) {
    auto run = RunWorkload(policy);
    const MetricsSnapshot snap = run->store->metrics_registry()->Snapshot();
    EXPECT_EQ(snap.counter_or("flush.records_flushed"),
              SumPhases(snap, "records"))
        << PolicyKindName(policy);
    EXPECT_EQ(snap.counter_or("flush.record_bytes_flushed"),
              SumPhases(snap, "record_bytes"))
        << PolicyKindName(policy);
    EXPECT_EQ(snap.counter_or("flush.postings_dropped"),
              SumPhases(snap, "postings"))
        << PolicyKindName(policy);
    EXPECT_GT(snap.counter_or("flush.phase1.runs"), 0u)
        << PolicyKindName(policy);
  }
}

// Ingest-only sharded run (enough inserts for several cycles per shard).
MetricsSnapshot ShardedIngestSnapshot(PolicyKind policy, size_t shards) {
  TweetGeneratorOptions stream;
  stream.seed = 20160516;
  stream.vocabulary_size = 3000;
  stream.num_users = 1500;
  SimClock clock(stream.start_time);
  ShardedStoreOptions options;
  options.store.memory_budget_bytes = 256 * 1024;
  options.store.flush_fraction = 0.2;
  options.store.k = 10;
  options.store.policy = policy;
  options.store.auto_flush = true;
  options.store.clock = &clock;
  options.num_shards = shards;
  ShardedMicroblogStore store(options);
  TweetGenerator tweets(stream);
  for (int i = 0; i < 10'000; ++i) {
    Microblog blog = tweets.Next();
    clock.Set(blog.created_at);
    EXPECT_TRUE(store.Insert(std::move(blog)).ok());
  }
  return store.AggregatedMetrics();
}

TEST(MetricsConservationTest, FlushStagesPartitionEveryCycle) {
  for (PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
        PolicyKind::kKFlushingMK}) {
    const std::string name = PolicyKindName(policy);
    auto run = RunWorkload(policy);
    ExpectStagesPartitionCycles(run->store->metrics_registry()->Snapshot(),
                                name + " single store");
    for (size_t shards : {size_t{1}, testing_util::TestShardCount()}) {
      ExpectStagesPartitionCycles(
          ShardedIngestSnapshot(policy, shards),
          name + " " + std::to_string(shards) + " shards");
    }
  }
}

TEST(MetricsConservationTest, EveryDroppedPostingAndRecordReachesDisk) {
  for (PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
        PolicyKind::kKFlushingMK}) {
    auto run = RunWorkload(policy);
    const MetricsSnapshot snap = run->store->metrics_registry()->Snapshot();
    EXPECT_EQ(snap.counter_or("disk.postings_added"),
              snap.counter_or("flush.postings_dropped"))
        << PolicyKindName(policy);
    EXPECT_EQ(snap.counter_or("disk.records_written"),
              snap.counter_or("flush.records_flushed"))
        << PolicyKindName(policy)
        << ": flush buffer not fully drained to disk";
    // No byte-level identity here: flush.record_bytes_flushed counts the
    // in-memory footprint, disk.record_bytes_written the serialized size.
    EXPECT_GT(snap.counter_or("disk.record_bytes_written"), 0u)
        << PolicyKindName(policy);
  }
}

TEST(MetricsConservationTest, QueryHitsPlusMissesEqualQueries) {
  for (PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
        PolicyKind::kKFlushingMK}) {
    auto run = RunWorkload(policy);
    const MetricsSnapshot snap = run->store->metrics_registry()->Snapshot();
    const uint64_t executed = snap.counter_or("query.executed");
    EXPECT_EQ(executed, run->queries) << PolicyKindName(policy);
    EXPECT_EQ(snap.counter_or("query.memory_hits"), run->hits)
        << PolicyKindName(policy);
    EXPECT_EQ(executed, snap.counter_or("query.memory_hits") +
                            snap.counter_or("query.memory_misses"))
        << PolicyKindName(policy);
    // Per-type/per-outcome latency histograms partition the queries.
    EXPECT_EQ(LatencySamples(snap), run->queries) << PolicyKindName(policy);

    // The hit-ratio view derived from those histograms agrees.
    const QueryMetricsSnapshot qm = QueryMetricsFromRegistry(snap);
    EXPECT_EQ(qm.queries, run->queries) << PolicyKindName(policy);
    EXPECT_EQ(qm.memory_hits, run->hits) << PolicyKindName(policy);
    uint64_t by_type = 0, hits_by_type = 0;
    for (int i = 0; i < 3; ++i) {
      by_type += qm.queries_by_type[i];
      hits_by_type += qm.hits_by_type[i];
    }
    EXPECT_EQ(by_type, qm.queries) << PolicyKindName(policy);
    EXPECT_EQ(hits_by_type, qm.memory_hits) << PolicyKindName(policy);
    EXPECT_EQ(qm.disk_term_reads, snap.counter_or("disk.term_queries"))
        << PolicyKindName(policy);
    ExpectStagesPartitionLatency(snap, PolicyKindName(policy));
  }
}

// The shard oracle's keyword stream through a sharded store, then
// correlated queries through its engine (every type, OR groups spanning
// shards). Each query must be recorded exactly once, in the registry of
// the shard owning its first term.
void ExpectFanOutCountedOnce(size_t shards) {
  TweetGeneratorOptions stream;
  stream.seed = 20160516;
  stream.vocabulary_size = 3000;
  stream.num_users = 1500;
  SimClock clock(stream.start_time);
  ShardedStoreOptions options;
  options.store.memory_budget_bytes = 256 * 1024;
  options.store.flush_fraction = 0.2;
  options.store.k = 10;
  options.store.policy = PolicyKind::kKFlushing;
  options.store.auto_flush = true;
  options.store.clock = &clock;
  options.num_shards = shards;
  ShardedMicroblogStore store(options);
  TweetGenerator tweets(stream);
  for (int i = 0; i < 20'000; ++i) {
    Microblog blog = tweets.Next();
    clock.Set(blog.created_at);
    ASSERT_TRUE(store.Insert(std::move(blog)).ok());
  }

  QueryWorkloadOptions workload;
  workload.seed = 777;
  workload.kind = WorkloadKind::kCorrelated;
  QueryGenerator queries(workload, stream);
  constexpr uint64_t kQueries = 3'000;
  uint64_t hits = 0;
  std::vector<uint64_t> led_by(shards, 0);  // queries per first-term owner
  for (uint64_t q = 0; q < kQueries; ++q) {
    clock.Advance(1);
    const TopKQuery query = queries.Next();
    auto outcome = store.engine()->Execute(query);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->memory_hit) ++hits;
    ++led_by[store.router().ShardForTerm(query.terms[0])];
  }

  const MetricsSnapshot snap = store.AggregatedMetrics();
  EXPECT_EQ(snap.counter_or("query.executed"), kQueries);
  EXPECT_EQ(snap.counter_or("query.memory_hits"), hits);
  EXPECT_EQ(snap.counter_or("query.memory_misses"), kQueries - hits);
  EXPECT_LE(snap.counter_or("query.unproven_hits"), hits);
  EXPECT_EQ(LatencySamples(snap), kQueries);
  ExpectStagesPartitionLatency(snap, std::to_string(shards) + " shards");
  const QueryMetricsSnapshot qm = QueryMetricsFromRegistry(snap);
  EXPECT_EQ(qm.queries, kQueries);
  EXPECT_EQ(qm.memory_hits, hits);
  EXPECT_GT(qm.queries_by_type[static_cast<int>(QueryType::kAnd)], 0u);
  for (size_t i = 0; i < shards; ++i) {
    EXPECT_EQ(store.shard(i)->metrics_registry()->Snapshot().counter_or(
                  "query.executed"),
              led_by[i])
        << "shard " << i;
  }
}

TEST(MetricsConservationTest, FanOutQueriesCountedOnceAtOneShard) {
  ExpectFanOutCountedOnce(1);
}

TEST(MetricsConservationTest, FanOutQueriesCountedOnceAtTestShards) {
  ExpectFanOutCountedOnce(testing_util::TestShardCount());
}

TEST(MetricsConservationTest, EvictionAuditReconcilesAcrossFullWorkload) {
  // The audit trail is one more accounting view over the same flush work;
  // after thousands of inserts and many real flush cycles its per-phase
  // sums must still match PhaseStats to the byte, for every policy.
  for (PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
        PolicyKind::kKFlushingMK}) {
    EvictionAuditTrail audit;
    auto run = RunWorkload(policy, &audit);
    ASSERT_GT(audit.size(), 0u) << PolicyKindName(policy);
    const Status s = ReconcileAuditWithStats(audit.Records(),
                                             run->store->policy()->stats());
    EXPECT_TRUE(s.ok()) << PolicyKindName(policy) << ": " << s.ToString();

    // The audit's byte total is the flush layer's contribution to the
    // registry's freed-bytes counter.
    uint64_t audited_bytes = 0;
    for (const EvictionAuditRecord& r : audit.Records()) {
      audited_bytes += r.bytes_freed;
    }
    const MetricsSnapshot snap = run->store->metrics_registry()->Snapshot();
    EXPECT_EQ(audited_bytes, SumPhases(snap, "bytes_freed"))
        << PolicyKindName(policy);
  }
}

TEST(MetricsConservationTest, ExperimentAuditModeReconciles) {
  // The sim/experiment plumbing behind `kflushctl trace`: audit_evictions
  // wires a trail through the whole experiment and reports reconciliation
  // in the result.
  ExperimentConfig config;
  config.store.policy = PolicyKind::kKFlushing;
  config.store.memory_budget_bytes = 2 << 20;
  config.store.k = 10;
  config.stream.vocabulary_size = 5'000;
  config.stream.num_users = 1'000;
  config.steady_state_flushes = 2;
  config.num_queries = 500;
  config.audit_evictions = true;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.eviction_audit.size(), 0u);
  EXPECT_TRUE(result.audit_reconciliation.ok())
      << result.audit_reconciliation.ToString();
}

}  // namespace
}  // namespace kflush
