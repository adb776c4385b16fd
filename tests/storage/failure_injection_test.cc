// Failure injection: a disk tier that fails on demand. The store must
// survive flush-path I/O errors without crashing, deadlocking, or
// corrupting its in-memory state — degraded answers, not broken ones.

#include <gtest/gtest.h>

#include <atomic>

#include "../testing/test_util.h"
#include "core/query_engine.h"
#include "storage/sim_disk_store.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::SmallStoreOptions;

/// Decorator that injects failures into a SimDiskStore.
class FlakyDiskStore : public DiskStore {
 public:
  std::atomic<bool> fail_postings{false};
  std::atomic<bool> fail_batches{false};
  std::atomic<bool> fail_queries{false};

  Status AddPostings(TermId term, const std::vector<Posting>& run) override {
    if (fail_postings.load()) return Status::IOError("injected");
    return inner_.AddPostings(term, run);
  }
  Status WriteBatch(const RecordBatch& batch) override {
    if (fail_batches.load()) return Status::IOError("injected");
    return inner_.WriteBatch(batch);
  }
  Status QueryTerm(TermId term, size_t limit,
                   std::vector<Posting>* out) override {
    if (fail_queries.load()) return Status::IOError("injected");
    return inner_.QueryTerm(term, limit, out);
  }
  Status GetRecord(MicroblogId id, Microblog* out) override {
    return inner_.GetRecord(id, out);
  }
  DiskStats stats() const override { return inner_.stats(); }
  size_t NumRecords() const override { return inner_.NumRecords(); }
  size_t NumPostings() const override { return inner_.NumPostings(); }

 private:
  SimDiskStore inner_;
};

TEST(FailureInjectionTest, FlushSurvivesPostingFailures) {
  FlakyDiskStore disk;
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, 5);
  opts.disk = &disk;
  MicroblogStore store(opts);
  for (MicroblogId id = 1; id <= 30; ++id) {
    ASSERT_TRUE(store.Insert(MakeBlog(id, id * 10, {1})).ok());
  }
  disk.fail_postings.store(true);
  const size_t used_before = store.tracker().DataUsed();
  const size_t freed = store.FlushOnce();
  // Memory is still reclaimed even though the disk lost the postings.
  EXPECT_GT(freed, 0u);
  EXPECT_LT(store.tracker().DataUsed(), used_before);
}

TEST(FailureInjectionTest, FlushSurvivesBatchWriteFailure) {
  FlakyDiskStore disk;
  StoreOptions opts = SmallStoreOptions(PolicyKind::kFifo, 1 << 20, 5);
  opts.disk = &disk;
  MicroblogStore store(opts);
  testing_util::FillRoundRobin(&store, 200, 10);
  disk.fail_batches.store(true);
  EXPECT_GT(store.FlushOnce(), 0u);
  // The store remains usable for ingest and flush afterwards.
  disk.fail_batches.store(false);
  testing_util::FillRoundRobin(&store, 100, 10, /*start_ts=*/100000);
  EXPECT_GT(store.FlushOnce(), 0u);
  EXPECT_GT(disk.NumRecords(), 0u);
}

TEST(FailureInjectionTest, QueryPropagatesDiskReadErrors) {
  FlakyDiskStore disk;
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, 5);
  opts.disk = &disk;
  MicroblogStore store(opts);
  QueryEngine engine(&store);
  // Only 2 postings in memory: the query must go to disk and hit the
  // injected error, which surfaces as a Status rather than a wrong
  // answer.
  ASSERT_TRUE(store.Insert(MakeBlog(1, 10, {1})).ok());
  ASSERT_TRUE(store.Insert(MakeBlog(2, 20, {1})).ok());
  disk.fail_queries.store(true);
  TopKQuery q;
  q.terms = {1};
  q.type = QueryType::kSingle;
  auto result = engine.Execute(q);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  // Metrics must not count the failed query.
  EXPECT_EQ(
      QueryMetricsFromRegistry(store.metrics_registry()->Snapshot()).queries,
      0u);
  // And the engine recovers once the disk does.
  disk.fail_queries.store(false);
  auto retry = engine.Execute(q);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->results.size(), 2u);
}

TEST(FailureInjectionTest, AllPoliciesSurviveFlakyFlushes) {
  for (PolicyKind policy : testing_util::AllPolicies()) {
    FlakyDiskStore disk;
    StoreOptions opts = SmallStoreOptions(policy, 256 << 10, 5);
    opts.disk = &disk;
    opts.auto_flush = true;
    MicroblogStore store(opts);
    // Toggle failures while streaming enough to trigger several flushes.
    for (int i = 0; i < 3000; ++i) {
      disk.fail_postings.store(i % 3 == 0);
      disk.fail_batches.store(i % 5 == 0);
      Microblog blog;
      blog.created_at = 1000 + static_cast<Timestamp>(i);
      blog.keywords = {static_cast<KeywordId>(i % 50)};
      blog.text = "failure injection filler text for realistic size";
      ASSERT_TRUE(store.Insert(std::move(blog)).ok()) << PolicyKindName(policy);
    }
    EXPECT_GT(store.ingest_stats().flush_triggers, 0u)
        << PolicyKindName(policy);
    // Memory stayed bounded despite the chaos.
    EXPECT_LT(store.tracker().DataUsed(), (256u << 10) * 2)
        << PolicyKindName(policy);
  }
}

}  // namespace
}  // namespace kflush
