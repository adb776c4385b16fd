// The threaded single node: ShardedMicroblogSystem at one shard, whose
// MicroblogSystem unit digests and flushes in the background.

#include <gtest/gtest.h>

#include "core/sharded_system.h"

#include "../testing/test_util.h"
#include "gen/tweet_generator.h"

namespace kflush {
namespace {

ShardedSystemOptions SmallSystem(PolicyKind policy) {
  ShardedSystemOptions opts;
  opts.system.store = testing_util::SmallStoreOptions(policy, 128 * 1024, 5);
  opts.system.ingest_queue_capacity = 16;
  opts.num_shards = 1;
  return opts;
}

TEST(MicroblogSystemTest, DigestsSubmittedBatches) {
  ShardedMicroblogSystem system(SmallSystem(PolicyKind::kKFlushing));
  system.Start();
  TweetGeneratorOptions gopts;
  gopts.vocabulary_size = 100;
  TweetGenerator gen(gopts);
  for (int b = 0; b < 10; ++b) {
    std::vector<Microblog> batch;
    gen.FillBatch(100, &batch);
    ASSERT_TRUE(system.Submit(std::move(batch)));
  }
  system.Stop();
  EXPECT_EQ(system.digested(), 1000u);
  EXPECT_GT(system.shard_store(0)->raw_store()->size(), 0u);
}

TEST(MicroblogSystemTest, BackgroundFlusherBoundsMemory) {
  ShardedSystemOptions opts = SmallSystem(PolicyKind::kKFlushing);
  ShardedMicroblogSystem system(opts);
  system.Start();
  TweetGeneratorOptions gopts;
  gopts.vocabulary_size = 500;
  TweetGenerator gen(gopts);
  // Push several budgets' worth of data.
  for (int b = 0; b < 30; ++b) {
    std::vector<Microblog> batch;
    gen.FillBatch(200, &batch);
    ASSERT_TRUE(system.Submit(std::move(batch)));
  }
  system.Stop();
  EXPECT_EQ(system.digested(), 6000u);
  // Memory stayed within the stall ceiling.
  EXPECT_LE(system.shard_store(0)->tracker().DataUsed(),
            static_cast<size_t>(opts.system.store.memory_budget_bytes *
                                kIngestStallFactor * 1.1));
  // Flushes actually ran and data reached disk.
  EXPECT_GT(system.shard_store(0)->ingest_stats().flush_triggers, 0u);
  EXPECT_GT(system.shard_store(0)->disk()->NumRecords(), 0u);
}

TEST(MicroblogSystemTest, QueriesRunConcurrentlyWithIngest) {
  ShardedMicroblogSystem system(SmallSystem(PolicyKind::kKFlushing));
  system.Start();
  TweetGeneratorOptions gopts;
  gopts.vocabulary_size = 50;
  TweetGenerator gen(gopts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_ok{0};
  std::thread query_thread([&] {
    while (!stop.load()) {
      TopKQuery q;
      q.terms = {static_cast<TermId>(queries_ok.load() % 50)};
      q.type = QueryType::kSingle;
      auto result = system.Query(q);
      if (result.ok()) queries_ok.fetch_add(1);
    }
  });

  for (int b = 0; b < 20; ++b) {
    std::vector<Microblog> batch;
    gen.FillBatch(200, &batch);
    ASSERT_TRUE(system.Submit(std::move(batch)));
  }
  system.Stop();
  stop.store(true);
  query_thread.join();
  EXPECT_GT(queries_ok.load(), 0u);
  EXPECT_EQ(system.digested(), 4000u);
}

TEST(MicroblogSystemTest, StartAndStopAreIdempotent) {
  ShardedMicroblogSystem system(SmallSystem(PolicyKind::kFifo));
  system.Start();
  system.Start();  // no-op
  std::vector<Microblog> batch;
  TweetGeneratorOptions gopts;
  TweetGenerator gen(gopts);
  gen.FillBatch(10, &batch);
  ASSERT_TRUE(system.Submit(std::move(batch)));
  system.Stop();
  system.Stop();  // no-op
  EXPECT_EQ(system.digested(), 10u);
  EXPECT_FALSE(system.Submit({}));  // closed
}

TEST(MicroblogSystemTest, AllPoliciesSurviveStress) {
  for (PolicyKind policy : testing_util::AllPolicies()) {
    ShardedMicroblogSystem system(SmallSystem(policy));
    system.Start();
    TweetGeneratorOptions gopts;
    gopts.seed = 7;
    gopts.vocabulary_size = 300;
    TweetGenerator gen(gopts);
    for (int b = 0; b < 15; ++b) {
      std::vector<Microblog> batch;
      gen.FillBatch(200, &batch);
      ASSERT_TRUE(system.Submit(std::move(batch)));
    }
    system.Stop();
    EXPECT_EQ(system.digested(), 3000u) << PolicyKindName(policy);
  }
}

}  // namespace
}  // namespace kflush
