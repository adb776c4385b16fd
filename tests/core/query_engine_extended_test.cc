// Extended query-engine coverage: bounding-box area search, three-plus
// keyword AND/OR queries, popularity-ranked queries, and running the
// whole store on the file-backed disk tier.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "../testing/test_util.h"
#include "core/query_engine.h"
#include "model/attribute.h"
#include "storage/segment.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::MakeGeoBlog;
using testing_util::SmallStoreOptions;

constexpr uint32_t kK = 5;

TEST(SearchAreaTest, FindsRecordsInsideBox) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, kK);
  opts.attribute = AttributeKind::kSpatial;
  MicroblogStore store(opts);
  QueryEngine engine(&store);
  // Cluster of posts near (40.0, -90.0), plus far-away noise.
  for (MicroblogId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(store
                    .Insert(MakeGeoBlog(id, id * 10, 40.0 + 0.001 * id,
                                        -90.0 + 0.001 * id))
                    .ok());
  }
  for (MicroblogId id = 100; id <= 110; ++id) {
    ASSERT_TRUE(store.Insert(MakeGeoBlog(id, id, 10.0, 10.0)).ok());
  }
  auto result = engine.SearchArea(39.9, -90.1, 40.2, -89.8, /*k=*/10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->results.empty());
  for (const Microblog& blog : result->results) {
    EXPECT_GE(blog.location.lat, 39.9);
    EXPECT_LE(blog.location.lat, 40.2);
    EXPECT_NE(blog.id, 100u);
  }
  // Most recent first.
  EXPECT_EQ(result->results[0].id, 20u);
}

TEST(SearchAreaTest, FillsToKWhenBoundaryTileIsDominatedByOutsiders) {
  // Regression: the partial-tile post-filter drops records after top-k
  // materialization. If the newest records in a boundary tile sit outside
  // the box, a naive fetch of k returns only outsiders and under-fills the
  // answer even though k matching records are in memory. The over-fetch
  // loop must widen until the box's top-k is filled.
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, kK);
  opts.attribute = AttributeKind::kSpatial;
  MicroblogStore store(opts);
  QueryEngine engine(&store);

  const double in_lat = 40.010, in_lon = -90.005;    // inside the box
  const double out_lat = 40.030, out_lon = -89.990;  // same tile, outside
  SpatialGridMapper mapper;
  ASSERT_EQ(mapper.TileFor(in_lat, in_lon), mapper.TileFor(out_lat, out_lon))
      << "test geometry broke: both points must share one grid tile";

  // 10 older in-box records, then 20 newer same-tile outsiders that
  // dominate every recency-ranked prefix of the tile's posting list.
  for (MicroblogId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(store.Insert(MakeGeoBlog(id, id * 10, in_lat, in_lon)).ok());
  }
  for (MicroblogId id = 101; id <= 120; ++id) {
    ASSERT_TRUE(
        store.Insert(MakeGeoBlog(id, 1000 + id, out_lat, out_lon)).ok());
  }

  auto result = engine.SearchArea(40.008, -90.010, 40.013, -90.000, kK);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->results.size(), kK);
  for (const Microblog& blog : result->results) {
    EXPECT_LE(blog.id, 10u);
  }
  EXPECT_EQ(result->results[0].id, 10u);  // most recent in-box first
}

TEST(SearchAreaTest, RejectsNonSpatialStore) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing));
  QueryEngine engine(&store);
  auto result = engine.SearchArea(1, 1, 2, 2);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(SearchAreaTest, RejectsOversizedBox) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing);
  opts.attribute = AttributeKind::kSpatial;
  MicroblogStore store(opts);
  QueryEngine engine(&store);
  auto result =
      engine.SearchArea(-80, -170, 80, 170, /*k=*/5, /*max_tiles=*/16);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(SearchAreaTest, RejectsInvertedBox) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing);
  opts.attribute = AttributeKind::kSpatial;
  MicroblogStore store(opts);
  QueryEngine engine(&store);
  auto result = engine.SearchArea(42.0, -90.0, 40.0, -89.0);
  EXPECT_FALSE(result.ok());
}

TEST(MultiKeywordTest, ThreeWayAnd) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, 2));
  QueryEngine engine(&store);
  // Records with all three keywords; some with only two.
  for (MicroblogId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(store.Insert(MakeBlog(id, id * 10, {1, 2, 3})).ok());
  }
  ASSERT_TRUE(store.Insert(MakeBlog(10, 500, {1, 2})).ok());
  TopKQuery q;
  q.terms = {1, 2, 3};
  q.type = QueryType::kAnd;
  auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);
  ASSERT_EQ(result->results.size(), 2u);
  for (const Microblog& blog : result->results) {
    EXPECT_EQ(blog.keywords.size(), 3u);
  }
}

TEST(MultiKeywordTest, ThreeWayOrUnionsAll) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, 2));
  QueryEngine engine(&store);
  ASSERT_TRUE(store.Insert(MakeBlog(1, 10, {1})).ok());
  ASSERT_TRUE(store.Insert(MakeBlog(2, 20, {2})).ok());
  ASSERT_TRUE(store.Insert(MakeBlog(3, 30, {3})).ok());
  ASSERT_TRUE(store.Insert(MakeBlog(4, 40, {1})).ok());
  ASSERT_TRUE(store.Insert(MakeBlog(5, 50, {2})).ok());
  ASSERT_TRUE(store.Insert(MakeBlog(6, 60, {3})).ok());
  TopKQuery q;
  q.terms = {1, 2, 3};
  q.type = QueryType::kOr;
  auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);  // all three terms have >= k=2
  ASSERT_EQ(result->results.size(), 2u);
  EXPECT_EQ(result->results[0].id, 6u);
  EXPECT_EQ(result->results[1].id, 5u);
}

TEST(PopularityRankedQueriesTest, CelebrityOutranksRecency) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, 3);
  opts.ranking = RankingKind::kPopularity;
  MicroblogStore store(opts);
  QueryEngine engine(&store);
  Microblog celebrity = MakeBlog(1, 1000, {7});
  celebrity.follower_count = 1'000'000;
  Microblog recent1 = MakeBlog(2, 2000, {7});
  Microblog recent2 = MakeBlog(3, 3000, {7});
  ASSERT_TRUE(store.Insert(celebrity).ok());
  ASSERT_TRUE(store.Insert(recent1).ok());
  ASSERT_TRUE(store.Insert(recent2).ok());
  TopKQuery q;
  q.terms = {7};
  q.type = QueryType::kSingle;
  auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), 3u);
  EXPECT_EQ(result->results[0].id, 1u);  // boosted to the top
}

TEST(FileDiskBackedStoreTest, MissPathReadsFromRealFiles) {
  const std::string dir = testing_util::UniqueTempPath("kflush_engine_disk");
  testing_util::RemoveTree(dir);
  auto disk = SegmentDiskStore::OpenOrRecover(dir, DurabilityLevel::kBatch);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  StoreOptions opts = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, kK);
  opts.disk = disk->get();
  MicroblogStore store(opts);
  QueryEngine engine(&store);

  for (MicroblogId id = 1; id <= 30; ++id) {
    ASSERT_TRUE(store.Insert(MakeBlog(id, id * 10, {1})).ok());
  }
  store.FlushOnce();  // seals the tail of keyword 1 into a segment file

  TopKQuery q;
  q.terms = {1};
  q.type = QueryType::kSingle;
  q.k = 25;
  auto result = engine.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->memory_hit);
  ASSERT_EQ(result->results.size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(result->results[i].id, 30 - i);
  }
  EXPECT_GT(result->from_disk, 0u);
  EXPECT_GT(disk->get()->stats().records_read, 0u);
  testing_util::RemoveTree(dir);
}

}  // namespace
}  // namespace kflush
