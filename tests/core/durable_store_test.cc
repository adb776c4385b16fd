// Durable store round trips: restart recovery through the WAL + segment
// tier, the memory-prefix invariant after recovery, id resumption,
// recovery stats, WAL compaction, and the durability metric series.
// The adversarial (kill-at-random-points) coverage is
// tests/integration/crash_recovery_oracle_test.cc; these are the
// deterministic clean-shutdown and post-flush recovery paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "../testing/test_util.h"
#include "core/query_engine.h"
#include "core/sharded_store.h"
#include "core/sharded_system.h"
#include "storage/wal.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::RemoveTree;
using testing_util::SmallStoreOptions;

class DurableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::UniqueTempPath("kflush_durable_store_test");
    RemoveTree(dir_);
  }
  void TearDown() override { RemoveTree(dir_); }

  StoreOptions DurableOptions(PolicyKind policy = PolicyKind::kKFlushing,
                              size_t budget = 256 * 1024) {
    StoreOptions opts = SmallStoreOptions(policy, budget);
    opts.durability.enabled = true;
    opts.durability.dir = dir_;
    return opts;
  }

  /// Top-k ids for a single-term query, best first.
  std::vector<MicroblogId> QueryIds(MicroblogStore* store, TermId term,
                                    uint32_t k) {
    QueryEngine engine(store);
    TopKQuery q;
    q.terms = {term};
    q.type = QueryType::kSingle;
    q.k = k;
    auto result = engine.Execute(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<MicroblogId> ids;
    if (result.ok()) {
      for (const auto& blog : result->results) ids.push_back(blog.id);
    }
    return ids;
  }

  std::string dir_;
};

TEST_F(DurableStoreTest, DisabledByDefault) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  EXPECT_TRUE(store.durability_status().ok());
  EXPECT_EQ(store.wal(), nullptr);
  EXPECT_TRUE(store.CommitDurable().ok());  // no-op, not an error
}

TEST_F(DurableStoreTest, RestartRecoversMemoryResidentRecords) {
  std::vector<MicroblogId> before;
  {
    MicroblogStore store(DurableOptions());
    ASSERT_TRUE(store.durability_status().ok())
        << store.durability_status().ToString();
    ASSERT_NE(store.wal(), nullptr);
    for (int i = 1; i <= 10; ++i) {
      // Ids assigned by the store, so id resumption is observable below.
      ASSERT_TRUE(store
                      .Insert(MakeBlog(kInvalidMicroblogId, 1000 + i, {7}, i,
                                       "durable " + std::to_string(i)))
                      .ok());
    }
    ASSERT_TRUE(store.CommitDurable().ok());
    before = QueryIds(&store, 7, 10);
    ASSERT_EQ(before.size(), 10u);
  }  // clean shutdown: the destructor's final commit seals the WAL

  MicroblogStore recovered(DurableOptions());
  ASSERT_TRUE(recovered.durability_status().ok())
      << recovered.durability_status().ToString();
  const StoreRecoveryStats stats = recovered.recovery_stats();
  EXPECT_EQ(stats.wal_records_recovered, 10u);
  EXPECT_EQ(stats.records_reinserted_memory, 10u);
  EXPECT_EQ(stats.records_recovered_to_disk, 0u);
  EXPECT_EQ(recovered.recovered_max_id(), 10u);
  EXPECT_EQ(QueryIds(&recovered, 7, 10), before);

  // A post-restart insert picks up after the recovered ids, and the
  // recovered record body is intact.
  ASSERT_TRUE(
      recovered.Insert(MakeBlog(kInvalidMicroblogId, 2000, {7})).ok());
  const std::vector<MicroblogId> after = QueryIds(&recovered, 7, 11);
  ASSERT_EQ(after.size(), 11u);
  EXPECT_EQ(after[0], 11u);  // newest record got the next id
  std::optional<Microblog> blog = recovered.raw_store()->Get(3);
  ASSERT_TRUE(blog.has_value());
  EXPECT_EQ(blog->text, "durable 3");
}

TEST_F(DurableStoreTest, RestartAfterFlushServesIdenticalAnswers) {
  for (PolicyKind policy : testing_util::AllPolicies()) {
    RemoveTree(dir_);
    std::vector<MicroblogId> before;
    {
      MicroblogStore store(DurableOptions(policy, 64 * 1024));
      ASSERT_TRUE(store.durability_status().ok()) << PolicyKindName(policy);
      for (int i = 1; i <= 300; ++i) {
        Microblog blog;
        blog.created_at = 1000 + i;
        blog.user_id = 1 + (i % 7);
        blog.keywords = {static_cast<KeywordId>(i % 5)};
        blog.text = "flush-then-recover filler text for realistic size";
        ASSERT_TRUE(store.Insert(std::move(blog)).ok());
      }
      ASSERT_GT(store.FlushOnce(), 0u);  // pushes a tail onto segments
      ASSERT_TRUE(store.CommitDurable().ok());
      EXPECT_GT(store.disk()->NumRecords(), 0u) << PolicyKindName(policy);
      before = QueryIds(&store, 2, 40);
      ASSERT_FALSE(before.empty());
    }

    MicroblogStore recovered(DurableOptions(policy, 64 * 1024));
    ASSERT_TRUE(recovered.durability_status().ok())
        << PolicyKindName(policy) << ": "
        << recovered.durability_status().ToString();
    // The answers — spanning memory and disk — are byte-identical to the
    // pre-restart store's.
    EXPECT_EQ(QueryIds(&recovered, 2, 40), before) << PolicyKindName(policy);
    const StoreRecoveryStats stats = recovered.recovery_stats();
    EXPECT_GT(stats.wal_records_recovered, 0u) << PolicyKindName(policy);
    // Flushed records were already segment-durable: compaction kept only
    // the memory-resident tail.
    EXPECT_LT(stats.wal_entries_retained, stats.wal_records_recovered)
        << PolicyKindName(policy);
  }
}

TEST_F(DurableStoreTest, WalCompactionShrinksReplayOnNextRestart) {
  {
    MicroblogStore store(DurableOptions(PolicyKind::kFifo, 64 * 1024));
    testing_util::FillRoundRobin(&store, 300, 5);
    ASSERT_GT(store.FlushOnce(), 0u);
    ASSERT_TRUE(store.CommitDurable().ok());
  }
  uint64_t retained = 0;
  {
    MicroblogStore once(DurableOptions(PolicyKind::kFifo, 64 * 1024));
    ASSERT_TRUE(once.durability_status().ok());
    retained = once.recovery_stats().wal_entries_retained;
    EXPECT_LT(retained, once.recovery_stats().wal_records_recovered);
  }
  // The compacted WAL replays exactly the retained entries (plus nothing:
  // the second restart ingested nothing new).
  MicroblogStore twice(DurableOptions(PolicyKind::kFifo, 64 * 1024));
  ASSERT_TRUE(twice.durability_status().ok());
  EXPECT_EQ(twice.recovery_stats().wal_records_recovered, retained);
}

TEST_F(DurableStoreTest, MetricsExportIncludesDurabilitySeries) {
  MicroblogStore store(DurableOptions());
  ASSERT_TRUE(store.durability_status().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        store.Insert(MakeBlog(kInvalidMicroblogId, 1000 + i, {1})).ok());
  }
  ASSERT_TRUE(store.CommitDurable().ok());
  const MetricsSnapshot snap = store.metrics_registry()->Snapshot();
  EXPECT_EQ(snap.counter_or("wal.records_appended"), 20u);
  EXPECT_GT(snap.counter_or("wal.bytes_appended"), 0u);
  EXPECT_GE(snap.counter_or("wal.commits"), 1u);
  EXPECT_GE(snap.counter_or("wal.fsyncs"), 1u);
  EXPECT_EQ(snap.counter_or("wal.records_recovered"), 0u);  // fresh dir
  ASSERT_NE(snap.histograms.find("wal.fsync_micros"), snap.histograms.end());
  EXPECT_GE(snap.histograms.at("wal.fsync_micros").count(), 1u);
  EXPECT_EQ(snap.counter_or("flush_buffer.requeues"), 0u);
}

TEST_F(DurableStoreTest, EveryCommitLevelSyncsOnTheInsertPath) {
  StoreOptions opts = DurableOptions();
  opts.durability.level = DurabilityLevel::kEveryCommit;
  MicroblogStore store(opts);
  ASSERT_TRUE(store.durability_status().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        store.Insert(MakeBlog(kInvalidMicroblogId, 1000 + i, {1})).ok());
  }
  EXPECT_GE(store.wal()->stats().fsyncs, 5u);
}

TEST_F(DurableStoreTest, ShardedStoreResumesCentralIdsAfterRestart) {
  const size_t shards = 2;
  {
    ShardedStoreOptions opts;
    opts.store = SmallStoreOptions(PolicyKind::kKFlushing, 512 * 1024);
    opts.store.durability.enabled = true;
    opts.store.durability.dir = dir_;
    opts.num_shards = shards;
    ShardedMicroblogStore store(opts);
    ASSERT_TRUE(store.DurabilityStatus().ok())
        << store.DurabilityStatus().ToString();
    for (int i = 1; i <= 12; ++i) {
      ASSERT_TRUE(store
                      .Insert(MakeBlog(kInvalidMicroblogId, 1000 + i,
                                       {static_cast<KeywordId>(i % 6)}))
                      .ok());
    }
    ASSERT_TRUE(store.CommitDurableAll().ok());
  }

  ShardedStoreOptions opts;
  opts.store = SmallStoreOptions(PolicyKind::kKFlushing, 512 * 1024);
  opts.store.durability.enabled = true;
  opts.store.durability.dir = dir_;
  opts.num_shards = shards;
  ShardedMicroblogStore recovered(opts);
  ASSERT_TRUE(recovered.DurabilityStatus().ok());
  uint64_t recovered_records = 0;
  MicroblogId max_recovered = 0;
  for (size_t i = 0; i < shards; ++i) {
    recovered_records +=
        recovered.shard(i)->recovery_stats().records_reinserted_memory;
    max_recovered =
        std::max(max_recovered, recovered.shard(i)->recovered_max_id());
  }
  EXPECT_GE(recovered_records, 12u);  // multi-term records copy per shard
  EXPECT_EQ(max_recovered, 12u);

  // Central stamping resumed past every recovered id.
  Microblog probe = MakeBlog(kInvalidMicroblogId, 5000, {1});
  ASSERT_TRUE(recovered.Insert(probe).ok());
  TopKQuery q;
  q.terms = {1};
  q.type = QueryType::kSingle;
  q.k = 20;
  auto result = recovered.engine()->Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->results.empty());
  EXPECT_EQ(result->results[0].id, 13u);
}

TEST_F(DurableStoreTest, SystemShutdownThenRestartLosesNothing) {
  // The threaded deployment at one shard: Submit → digestion thread → WAL
  // (group commit per digested batch) → Stop drains. A restart must see
  // every digested record even though none were flushed.
  ShardedSystemOptions opts;
  opts.system.store = SmallStoreOptions(PolicyKind::kKFlushing, 512 * 1024);
  opts.system.store.durability.enabled = true;
  opts.system.store.durability.dir = dir_;
  opts.num_shards = 1;
  {
    ShardedMicroblogSystem system(opts);
    ASSERT_TRUE(system.DurabilityStatus().ok());
    system.Start();
    std::vector<Microblog> batch;
    for (int i = 1; i <= 50; ++i) {
      batch.push_back(MakeBlog(kInvalidMicroblogId, 1000 + i, {3}));
      if (batch.size() == 10) {
        ASSERT_TRUE(system.Submit(std::move(batch)));
        batch.clear();
      }
    }
    system.Stop();
    EXPECT_EQ(system.digested(), 50u);
  }

  ShardedMicroblogSystem recovered(opts);
  ASSERT_TRUE(recovered.DurabilityStatus().ok());
  EXPECT_EQ(recovered.shard_store(0)->recovery_stats().wal_records_recovered,
            50u);
  TopKQuery q;
  q.terms = {3};
  q.type = QueryType::kSingle;
  q.k = 50;
  auto result = recovered.Query(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->results.size(), 50u);
}

TEST_F(DurableStoreTest, DirectoryOpensOnlyAtTheShardCountThatWroteIt) {
  auto options = [&](size_t shards) {
    ShardedStoreOptions opts;
    opts.store = SmallStoreOptions(PolicyKind::kKFlushing, 512 * 1024);
    opts.store.durability.enabled = true;
    opts.store.durability.dir = dir_;
    opts.num_shards = shards;
    return opts;
  };
  auto answer = [](ShardedMicroblogStore* store, TermId term) {
    TopKQuery q;
    q.terms = {term};
    q.type = QueryType::kSingle;
    q.k = 20;
    auto result = store->engine()->Execute(q);
    EXPECT_TRUE(result.ok());
    std::vector<MicroblogId> ids;
    for (const Microblog& blog : result->results) ids.push_back(blog.id);
    return ids;
  };
  std::vector<std::vector<MicroblogId>> before;
  {
    ShardedMicroblogStore store(options(2));
    ASSERT_TRUE(store.DurabilityStatus().ok());
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(store
                      .Insert(MakeBlog(kInvalidMicroblogId, 1000 + i,
                                       {static_cast<KeywordId>(i % 6)}))
                      .ok());
    }
    ASSERT_TRUE(store.CommitDurableAll().ok());
    for (TermId t = 0; t < 6; ++t) before.push_back(answer(&store, t));
  }

  for (size_t wrong : {1u, 4u}) {
    ShardedMicroblogStore reopened(options(wrong));
    const Status status = reopened.DurabilityStatus();
    ASSERT_FALSE(status.ok()) << "reopened a 2-shard directory at " << wrong;
    // The message names both shard counts.
    EXPECT_NE(status.ToString().find("holds 2 shard"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.ToString().find("opened with " + std::to_string(wrong)),
              std::string::npos)
        << status.ToString();
    // Nothing was created: still exactly the writer's two shard dirs.
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/wal.log"));
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/shard-2"));
  }

  ShardedMicroblogStore reopened(options(2));
  ASSERT_TRUE(reopened.DurabilityStatus().ok())
      << reopened.DurabilityStatus().ToString();
  for (TermId t = 0; t < 6; ++t) EXPECT_EQ(answer(&reopened, t), before[t]);
}

TEST_F(DurableStoreTest, SingleStoreDirectoryDoesNotOpenSharded) {
  {
    MicroblogStore store(DurableOptions());
    ASSERT_TRUE(store.Insert(MakeBlog(kInvalidMicroblogId, 1000, {1})).ok());
  }
  ShardedStoreOptions opts;
  opts.store = DurableOptions();
  opts.num_shards = 1;
  ShardedMicroblogStore sharded(opts);
  EXPECT_FALSE(sharded.DurabilityStatus().ok());
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/shard-0"));
}

}  // namespace
}  // namespace kflush
