#include "storage/raw_store.h"

#include <gtest/gtest.h>

#include <thread>

#include "../testing/test_util.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;

TEST(RawDataStoreTest, PutGetRoundTrip) {
  RawDataStore store;
  ASSERT_TRUE(store.Put(MakeBlog(1, 100, {5, 6}), 2).ok());
  EXPECT_TRUE(store.Contains(1));
  auto blog = store.Get(1);
  ASSERT_TRUE(blog.has_value());
  EXPECT_EQ(blog->created_at, 100u);
  EXPECT_EQ(blog->keywords, (std::vector<KeywordId>{5, 6}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(RawDataStoreTest, DuplicatePutFails) {
  RawDataStore store;
  ASSERT_TRUE(store.Put(MakeBlog(1, 100, {5}), 1).ok());
  Status s = store.Put(MakeBlog(1, 200, {6}), 1);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store.Get(1)->created_at, 100u);  // original intact
}

TEST(RawDataStoreTest, GetMissing) {
  RawDataStore store;
  EXPECT_FALSE(store.Get(42).has_value());
  EXPECT_FALSE(store.Contains(42));
}

TEST(RawDataStoreTest, TermsOfMatchesEveryAttribute) {
  RawDataStore store;
  Microblog blog = MakeBlog(1, 100, {5, 6}, 7, "some text #five #six");
  blog.has_location = true;
  blog.location = {40.7, -74.0};
  ASSERT_TRUE(store.Put(blog, 2).ok());
  for (AttributeKind kind : {AttributeKind::kKeyword, AttributeKind::kSpatial,
                             AttributeKind::kUser}) {
    SCOPED_TRACE(AttributeKindName(kind));
    const std::unique_ptr<AttributeExtractor> extractor = MakeAttribute(kind);
    std::vector<TermId> want;
    extractor->ExtractTerms(blog, &want);
    std::vector<TermId> got = {99};  // cleared first
    EXPECT_TRUE(store.TermsOf(1, *extractor, &got));
    EXPECT_EQ(got, want);
    EXPECT_FALSE(store.TermsOf(2, *extractor, &got));
    EXPECT_TRUE(got.empty());
  }
  // The read leaves the record whole.
  EXPECT_EQ(store.Get(1)->text, blog.text);
}

TEST(RawDataStoreTest, PcountLifecycle) {
  RawDataStore store;
  ASSERT_TRUE(store.Put(MakeBlog(1, 100, {1, 2, 3}), 3).ok());
  EXPECT_EQ(store.Pcount(1), 3u);
  // While other references remain, Release keeps the record and appends
  // nothing.
  RecordBatch batch;
  EXPECT_EQ(store.Release(1, &batch), 0u);
  EXPECT_EQ(store.Pcount(1), 2u);
  EXPECT_EQ(store.Release(1, &batch), 0u);
  EXPECT_EQ(store.Pcount(1), 1u);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_TRUE(batch.empty());
  // An absent id is a no-op and reports zero.
  EXPECT_EQ(store.Release(99, &batch), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(store.Pcount(99), 0u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(RawDataStoreTest, TopKCountLifecycle) {
  RawDataStore store;
  ASSERT_TRUE(store.Put(MakeBlog(1, 100, {1}), 1).ok());
  EXPECT_EQ(store.TopKCount(1), 0u);
  store.IncrementTopK(1);
  store.IncrementTopK(1);
  EXPECT_EQ(store.TopKCount(1), 2u);
  EXPECT_EQ(store.DecrementTopK(1), 1u);
  EXPECT_EQ(store.DecrementTopK(1), 0u);
  EXPECT_EQ(store.DecrementTopK(1), 0u);  // saturates
  store.IncrementTopK(42);                 // missing: no-op
  EXPECT_EQ(store.TopKCount(42), 0u);
}

TEST(RawDataStoreTest, LastReleaseRemovesRecordAndAppendsItsBytes) {
  MemoryTracker tracker(1 << 20);
  RawDataStore store(&tracker);
  Microblog blog = MakeBlog(1, 100, {1, 2}, 7, "some text payload");
  blog.has_location = true;
  blog.location = GeoPoint{40.5, -73.25};
  blog.follower_count = 42;
  const size_t bytes = RawDataStore::RecordBytes(blog);
  ASSERT_TRUE(store.Put(blog, 2).ok());
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kRawStore), bytes);

  RecordBatch batch;
  EXPECT_EQ(store.Release(1, &batch), 0u);
  EXPECT_EQ(store.Release(1, &batch), bytes);  // exactly its RecordBytes
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_EQ(store.MemoryBytes(), 0u);
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kRawStore), 0u);

  // The appended bytes decode to the stored record.
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.footprint_bytes(), blog.FootprintBytes());
  const uint8_t* blob = batch.Find(1);
  ASSERT_NE(blob, nullptr);
  Microblog decoded;
  DecodeRecord(blob, &decoded);
  EXPECT_EQ(decoded.id, blog.id);
  EXPECT_EQ(decoded.created_at, blog.created_at);
  EXPECT_EQ(decoded.user_id, blog.user_id);
  EXPECT_EQ(decoded.follower_count, blog.follower_count);
  EXPECT_TRUE(decoded.has_location);
  EXPECT_EQ(decoded.location.lat, blog.location.lat);
  EXPECT_EQ(decoded.location.lon, blog.location.lon);
  EXPECT_EQ(decoded.keywords, blog.keywords);
  EXPECT_EQ(decoded.text, blog.text);

  // Gone: a further release is a no-op.
  EXPECT_EQ(store.Release(1, &batch), 0u);
  EXPECT_EQ(batch.size(), 1u);
}

TEST(RawDataStoreTest, MemoryBytesTracksContents) {
  RawDataStore store;
  EXPECT_EQ(store.MemoryBytes(), 0u);
  Microblog a = MakeBlog(1, 1, {1});
  Microblog b = MakeBlog(2, 2, {1, 2}, 1, std::string(100, 'x'));
  store.Put(a, 1).ok();
  store.Put(b, 2).ok();
  EXPECT_EQ(store.MemoryBytes(),
            RawDataStore::RecordBytes(a) + RawDataStore::RecordBytes(b));
}

TEST(RawDataStoreTest, ConcurrentPutsAndRemoves) {
  RawDataStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const MicroblogId id =
            static_cast<MicroblogId>(t) * kPerThread + static_cast<MicroblogId>(i);
        ASSERT_TRUE(store.Put(MakeBlog(id, id, {1}), 1).ok());
      }
      // Release (and so remove) every other record.
      RecordBatch batch;
      for (int i = 0; i < kPerThread; i += 2) {
        const MicroblogId id =
            static_cast<MicroblogId>(t) * kPerThread + static_cast<MicroblogId>(i);
        ASSERT_GT(store.Release(id, &batch), 0u);
      }
      ASSERT_EQ(batch.size(), static_cast<size_t>(kPerThread / 2));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.size(), static_cast<size_t>(kThreads) * kPerThread / 2);
}

}  // namespace
}  // namespace kflush
