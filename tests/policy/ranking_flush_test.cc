// kFlushing under a non-temporal ranking (paper §IV-B): scores are fixed
// on arrival, posting lists stay score-ordered, and Phase 1 trims the
// *lowest-scored* postings — which under popularity ranking are not the
// oldest ones.

#include <gtest/gtest.h>

#include "../testing/test_util.h"
#include "core/query_engine.h"
#include "core/store.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::SmallStoreOptions;

constexpr uint32_t kK = 3;

TEST(RankingFlushTest, Phase1TrimsLowestScoredNotOldest) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, kK);
  opts.ranking = RankingKind::kPopularity;
  // Isolate Phase 1 (Phases 2/3 would evict the only entry wholesale at
  // this tiny data volume).
  opts.enable_phase2 = false;
  opts.enable_phase3 = false;
  MicroblogStore store(opts);

  // One early celebrity post and five later nobody posts on keyword 7.
  Microblog celebrity = MakeBlog(1, 1000, {7});
  celebrity.follower_count = 10'000'000;
  ASSERT_TRUE(store.Insert(celebrity).ok());
  for (MicroblogId id = 2; id <= 6; ++id) {
    Microblog nobody = MakeBlog(id, id * 1000, {7});
    nobody.follower_count = 0;
    ASSERT_TRUE(store.Insert(nobody).ok());
  }
  ASSERT_EQ(store.policy()->EntrySize(7), 6u);

  store.FlushOnce();  // Phase 1 trims the entry to k = 3

  std::vector<Posting> postings;
  store.policy()->QueryTerm(7, kK, &postings);
  const std::vector<MicroblogId> ids = testing_util::IdsOf(postings);
  ASSERT_EQ(ids.size(), kK);
  // The old celebrity post outranks the newer nobodies and must survive;
  // a temporal policy would have flushed it first.
  EXPECT_EQ(ids[0], 1u);
  // Survivors after it: the most recent nobodies.
  EXPECT_EQ(ids[1], 6u);
  EXPECT_EQ(ids[2], 5u);
  // The trimmed lowest-scored posts are queryable via the disk tier.
  std::vector<Posting> disk_postings;
  ASSERT_TRUE(store.disk()->QueryTerm(7, 100, &disk_postings).ok());
  EXPECT_EQ(disk_postings.size(), 3u);
}

TEST(RankingFlushTest, QueryAnswersFollowRankingAcrossMemoryAndDisk) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, kK);
  opts.ranking = RankingKind::kPopularity;
  MicroblogStore store(opts);
  QueryEngine engine(&store);

  for (MicroblogId id = 1; id <= 10; ++id) {
    Microblog blog = MakeBlog(id, id * 1000, {7});
    // Alternate famous / unknown authors.
    blog.follower_count = (id % 2 == 0) ? 5'000'000 : 0;
    ASSERT_TRUE(store.Insert(blog).ok());
  }
  store.FlushOnce();

  TopKQuery q;
  q.terms = {7};
  q.type = QueryType::kSingle;
  q.k = 8;
  auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), 8u);
  // Merged memory+disk answer must be globally score-descending.
  PopularityRanking ranking;
  for (size_t i = 1; i < result->results.size(); ++i) {
    EXPECT_GE(ranking.Score(result->results[i - 1]),
              ranking.Score(result->results[i]));
  }
  // The five famous authors outrank every unknown.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result->results[i].id % 2, 0u) << "position " << i;
  }
}

TEST(RankingFlushTest, FifoSegmentsMergeCorrectlyUnderPopularity) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kFifo, 1 << 20, kK);
  opts.ranking = RankingKind::kPopularity;
  MicroblogStore store(opts);
  // Interleave famous/unknown across enough volume to span segments.
  for (MicroblogId id = 1; id <= 200; ++id) {
    Microblog blog = MakeBlog(id, id * 1000, {7},
                              /*user=*/1, std::string(300, 'x'));
    blog.follower_count = (id % 10 == 0) ? 1'000'000 : 0;
    ASSERT_TRUE(store.Insert(blog).ok());
  }
  std::vector<Posting> postings;
  store.policy()->QueryTerm(7, 5, &postings);
  const std::vector<MicroblogId> ids = testing_util::IdsOf(postings);
  ASSERT_EQ(ids.size(), 5u);
  // All five best-ranked are famous (multiples of 10), newest first.
  for (MicroblogId id : ids) {
    EXPECT_EQ(id % 10, 0u);
  }
  EXPECT_EQ(ids[0], 200u);
}

}  // namespace
}  // namespace kflush
