#include "storage/record_batch.h"

#include <gtest/gtest.h>

#include "../testing/test_util.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;

void ExpectSameRecord(const Microblog& got, const Microblog& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.created_at, want.created_at);
  EXPECT_EQ(got.user_id, want.user_id);
  EXPECT_EQ(got.follower_count, want.follower_count);
  EXPECT_EQ(got.has_location, want.has_location);
  EXPECT_EQ(got.location.lat, want.location.lat);
  EXPECT_EQ(got.location.lon, want.location.lon);
  EXPECT_EQ(got.keywords, want.keywords);
  EXPECT_EQ(got.text, want.text);
}

TEST(RecordBatchTest, RoundTripsEveryShape) {
  Microblog empty_text = MakeBlog(1, 10, {4, 5}, 2, "");
  Microblog no_keywords = MakeBlog(2, 20, {}, 3, "no tags here");
  Microblog located = MakeBlog(3, 30, {6}, 4, "somewhere");
  located.has_location = true;
  located.location = GeoPoint{-33.75, 151.125};
  located.follower_count = 1234;
  const std::vector<Microblog> blogs = {empty_text, no_keywords, located};

  const RecordBatch batch(blogs);
  ASSERT_EQ(batch.size(), blogs.size());
  size_t footprint = 0;
  size_t i = 0;
  Microblog decoded;
  batch.ForEach([&](const uint8_t* blob) {
    ASSERT_LT(i, blogs.size());
    EXPECT_EQ(EncodedRecordId(blob), blogs[i].id);
    EXPECT_EQ(EncodedLength(blob), EncodedRecordBytes(blogs[i]));
    EXPECT_EQ(EncodedFootprintBytes(blob), blogs[i].FootprintBytes());
    EXPECT_EQ(batch.Find(blogs[i].id), blob);
    DecodeRecord(blob, &decoded);  // reuses the previous record's capacity
    ExpectSameRecord(decoded, blogs[i]);
    footprint += blogs[i].FootprintBytes();
    ++i;
  });
  EXPECT_EQ(i, blogs.size());
  EXPECT_EQ(batch.footprint_bytes(), footprint);
  EXPECT_EQ(batch.Find(99), nullptr);
}

TEST(RecordBatchTest, AppendKeepsOrderBytesAndAddresses) {
  Microblog a = MakeBlog(1, 10, {1}, 1, "first");
  Microblog b = MakeBlog(2, 20, {2, 3}, 1, "second");
  Microblog c = MakeBlog(3, 30, {}, 1, "");
  RecordBatch head{a};
  RecordBatch tail;
  // A blob appended as raw bytes, the way the raw store hands one over.
  std::vector<uint8_t> blob(EncodedRecordBytes(b));
  EncodeRecord(b, blob.data());
  const uint8_t* copy = tail.Append(blob.data());
  tail.Add(c);
  head.Append(tail);
  EXPECT_EQ(tail.Find(2), copy);
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(head.footprint_bytes(),
            a.FootprintBytes() + b.FootprintBytes() + c.FootprintBytes());
  std::vector<Microblog> decoded;
  head.ForEach([&](const uint8_t* p) {
    decoded.emplace_back();
    DecodeRecord(p, &decoded.back());
  });
  ASSERT_EQ(decoded.size(), 3u);
  ExpectSameRecord(decoded[0], a);
  ExpectSameRecord(decoded[1], b);
  ExpectSameRecord(decoded[2], c);

  // Blobs never move as the batch grows past a slice, and a blob larger
  // than a slice gets one of its own.
  RecordBatch grown;
  const uint8_t* first = grown.Append(blob.data());
  const Microblog big = MakeBlog(4, 40, {5}, 1, std::string(100 * 1024, 'x'));
  for (MicroblogId id = 10; id < 2000; ++id) {
    grown.Add(MakeBlog(id, id, {1}, 1, std::string(64, 'y')));
  }
  grown.Add(big);
  EXPECT_EQ(grown.Find(2), first);
  EXPECT_GE(grown.capacity_bytes(), 100u * 1024);
  Microblog read;
  DecodeRecord(grown.Find(4), &read);
  ExpectSameRecord(read, big);
  DecodeRecord(grown.Find(1999), &read);
  EXPECT_EQ(read.created_at, 1999u);
}

}  // namespace
}  // namespace kflush
