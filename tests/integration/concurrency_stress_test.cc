// Concurrency stress: hammer each policy with parallel producers, query
// threads, and the background flusher simultaneously, then verify the
// store's structural invariants survived.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/sharded_system.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"

namespace kflush {
namespace {

class ConcurrencyStressTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(ConcurrencyStressTest, ParallelIngestFlushQuery) {
  SystemOptions options;
  options.store.memory_budget_bytes = 2 << 20;
  options.store.k = 10;
  options.store.policy = GetParam();
  options.ingest_queue_capacity = 32;
  ShardedMicroblogSystem system(ShardedSystemOptions{options, 1});
  system.Start();

  TweetGeneratorOptions stream;
  stream.seed = 11;
  stream.vocabulary_size = 5'000;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  std::atomic<uint64_t> queries_done{0};

  // Three query threads with different workloads.
  std::vector<std::thread> query_threads;
  for (int t = 0; t < 3; ++t) {
    query_threads.emplace_back([&, t] {
      QueryWorkloadOptions wopts;
      wopts.seed = 100 + static_cast<uint64_t>(t);
      wopts.kind = t == 0 ? WorkloadKind::kUniform : WorkloadKind::kCorrelated;
      QueryGenerator queries(wopts, stream);
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = system.Query(queries.Next());
        if (!result.ok()) query_errors.fetch_add(1);
        queries_done.fetch_add(1);
      }
    });
  }

  // Two producers.
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      TweetGeneratorOptions my_stream = stream;
      my_stream.seed = stream.seed + static_cast<uint64_t>(p) + 1;
      TweetGenerator gen(my_stream);
      for (int batch = 0; batch < 40; ++batch) {
        std::vector<Microblog> blogs;
        gen.FillBatch(500, &blogs);
        if (!system.Submit(std::move(blogs))) return;
      }
    });
  }

  for (auto& t : producers) t.join();
  system.Stop();
  stop.store(true);
  for (auto& t : query_threads) t.join();

  EXPECT_EQ(system.digested(), 2u * 40 * 500);
  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_GT(queries_done.load(), 0u);

  MicroblogStore* store = system.shard_store(0);
  // Invariant: no orphaned records (pcount must stay positive).
  size_t orphans = 0;
  store->raw_store()->ForEach(
      [&](const Microblog&, uint32_t pcount, uint32_t) {
        if (pcount == 0) ++orphans;
      });
  EXPECT_EQ(orphans, 0u);
  // Invariant: raw-store accounting balances with the tracker.
  EXPECT_EQ(store->tracker().ComponentUsed(MemoryComponent::kRawStore),
            store->raw_store()->MemoryBytes());
  // Invariant: memory stayed bounded.
  EXPECT_LT(store->tracker().DataUsed(),
            options.store.memory_budget_bytes * 2);
  // Invariant: every in-memory index reference resolves to a live record.
  std::vector<size_t> sizes;
  store->policy()->CollectEntrySizes(&sizes);
  size_t postings = 0;
  for (size_t s : sizes) postings += s;
  EXPECT_GE(postings, store->raw_store()->size());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ConcurrencyStressTest,
                         ::testing::Values(PolicyKind::kFifo, PolicyKind::kLru,
                                           PolicyKind::kKFlushing,
                                           PolicyKind::kKFlushingMK),
                         [](const auto& info) {
                           switch (info.param) {
                             case PolicyKind::kFifo:
                               return "Fifo";
                             case PolicyKind::kLru:
                               return "Lru";
                             case PolicyKind::kKFlushing:
                               return "KFlushing";
                             default:
                               return "KFlushingMK";
                           }
                         });

}  // namespace
}  // namespace kflush
