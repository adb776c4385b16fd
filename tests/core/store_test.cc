#include "core/store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "../testing/test_util.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::SmallStoreOptions;

TEST(MicroblogStoreTest, InsertAssignsIdsAndTimestamps) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  Microblog blog;
  blog.keywords = {1};
  ASSERT_TRUE(store.Insert(blog).ok());
  ASSERT_TRUE(store.Insert(blog).ok());
  EXPECT_EQ(store.ingest_stats().inserted, 2u);
  EXPECT_EQ(store.raw_store()->size(), 2u);
  // Ids are monotone from 1.
  EXPECT_TRUE(store.raw_store()->Contains(1));
  EXPECT_TRUE(store.raw_store()->Contains(2));
}

TEST(MicroblogStoreTest, ExplicitIdsRespected) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  ASSERT_TRUE(store.Insert(MakeBlog(777, 10, {1})).ok());
  EXPECT_TRUE(store.raw_store()->Contains(777));
}

TEST(MicroblogStoreTest, NoTermsArrivalsAreSkipped) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  Microblog blog;  // no keywords
  ASSERT_TRUE(store.Insert(blog).ok());
  EXPECT_EQ(store.ingest_stats().inserted, 0u);
  EXPECT_EQ(store.ingest_stats().skipped_no_terms, 1u);
  EXPECT_EQ(store.raw_store()->size(), 0u);
}

TEST(MicroblogStoreTest, PcountMatchesTermCount) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  ASSERT_TRUE(store.Insert(MakeBlog(1, 10, {1, 2, 3})).ok());
  EXPECT_EQ(store.raw_store()->Pcount(1), 3u);
}

TEST(MicroblogStoreTest, InsertTextTokenizesAndInterns) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  ASSERT_TRUE(store.InsertText("big news #obama #rally", 5, 100).ok());
  EXPECT_EQ(store.dictionary()->size(), 2u);
  EXPECT_NE(store.TermForKeyword("obama"), kInvalidTermId);
  EXPECT_EQ(store.TermForKeyword("never-seen"), kInvalidTermId);
  EXPECT_EQ(store.raw_store()->size(), 1u);
}

TEST(MicroblogStoreTest, AutoFlushTriggersWhenFull) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing,
                                        /*budget=*/32 * 1024);
  opts.auto_flush = true;
  MicroblogStore store(opts);
  // Pour in data well beyond the budget; auto-flush must bound memory.
  testing_util::FillRoundRobin(&store, 1000, 20);
  EXPECT_GT(store.ingest_stats().flush_triggers, 0u);
  EXPECT_LT(store.tracker().DataUsed(), 2 * opts.memory_budget_bytes);
  EXPECT_GT(store.disk()->NumRecords(), 0u);
}

TEST(MicroblogStoreTest, ManualFlushFreesBudgetFraction) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kFifo, 64 * 1024);
  MicroblogStore store(opts);
  testing_util::FillRoundRobin(&store, 400, 20);
  const size_t used_before = store.tracker().DataUsed();
  const size_t freed = store.FlushOnce();
  EXPECT_GE(freed, store.FlushBudgetBytes());
  EXPECT_LT(store.tracker().DataUsed(), used_before);
}

TEST(MicroblogStoreTest, SetKForwardsToPolicy) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  EXPECT_EQ(store.k(), 5u);
  store.SetK(9);
  EXPECT_EQ(store.k(), 9u);
  EXPECT_EQ(store.policy()->k(), 9u);
}

TEST(MicroblogStoreTest, SpatialAttributeIndexesTiles) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing);
  opts.attribute = AttributeKind::kSpatial;
  MicroblogStore store(opts);
  Microblog blog;
  blog.has_location = true;
  blog.location = {44.97, -93.26};
  ASSERT_TRUE(store.Insert(blog).ok());
  const TermId tile = store.TermForLocation(44.97, -93.26);
  ASSERT_NE(tile, kInvalidTermId);
  EXPECT_EQ(store.policy()->EntrySize(tile), 1u);
  // Non-geotagged arrivals are skipped under the spatial attribute.
  Microblog no_loc;
  no_loc.keywords = {1};
  ASSERT_TRUE(store.Insert(no_loc).ok());
  EXPECT_EQ(store.ingest_stats().skipped_no_terms, 1u);
}

TEST(MicroblogStoreTest, UserAttributeIndexesAuthors) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing);
  opts.attribute = AttributeKind::kUser;
  MicroblogStore store(opts);
  for (int i = 0; i < 3; ++i) {
    Microblog blog;
    blog.user_id = 42;
    ASSERT_TRUE(store.Insert(blog).ok());
  }
  EXPECT_EQ(store.policy()->EntrySize(store.TermForUser(42)), 3u);
}

TEST(MicroblogStoreTest, TermForLocationRequiresSpatialAttribute) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  EXPECT_EQ(store.TermForLocation(1.0, 2.0), kInvalidTermId);
}

TEST(MicroblogStoreTest, PopularityRankingOrdersByScore) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing);
  opts.ranking = RankingKind::kPopularity;
  MicroblogStore store(opts);
  // Older celebrity post vs. slightly newer nobody post.
  Microblog celebrity = MakeBlog(1, 1000, {7});
  celebrity.follower_count = 1'000'000;
  Microblog nobody = MakeBlog(2, 2000, {7});
  nobody.follower_count = 0;
  ASSERT_TRUE(store.Insert(celebrity).ok());
  ASSERT_TRUE(store.Insert(nobody).ok());
  std::vector<Posting> postings;
  store.policy()->QueryTerm(7, 2, &postings);
  EXPECT_EQ(testing_util::IdsOf(postings),
            (std::vector<MicroblogId>{1, 2}));  // celebrity first
}

TEST(MicroblogStoreTest, ExternalClockUsed) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing);
  SimClock clock(5000);
  opts.clock = &clock;
  MicroblogStore store(opts);
  Microblog blog;
  blog.keywords = {1};
  ASSERT_TRUE(store.Insert(blog).ok());
  EXPECT_EQ(store.raw_store()->Get(1)->created_at, 5000u);
}

TEST(MicroblogStoreTest, ConcurrentFlushOnceCoalesces) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kFifo, 64 * 1024);
  MicroblogStore store(opts);
  testing_util::FillRoundRobin(&store, 200, 10);
  std::atomic<size_t> total_freed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back(
        [&] { total_freed.fetch_add(store.FlushOnce()); });
  }
  for (auto& t : threads) t.join();
  // At least one thread flushed; extra concurrent triggers coalesced.
  EXPECT_GT(total_freed.load(), 0u);
}

}  // namespace
}  // namespace kflush
