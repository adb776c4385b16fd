#include "storage/flush_buffer.h"

#include <gtest/gtest.h>

#include "../testing/test_util.h"
#include "storage/sim_disk_store.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;

/// Appends one record the way a flush run does (under the buffer lock).
void Add(FlushBuffer* buffer, const Microblog& blog) {
  buffer->Append([&](RecordBatch* batch) { batch->Add(blog); });
}

TEST(FlushBufferTest, StartsEmpty) {
  FlushBuffer buffer;
  EXPECT_EQ(buffer.count(), 0u);
  EXPECT_EQ(buffer.bytes(), 0u);
}

TEST(FlushBufferTest, AddAccumulatesAndCharges) {
  MemoryTracker tracker(1 << 20);
  FlushBuffer buffer(&tracker);
  Microblog blog = MakeBlog(1, 1, {1}, 1, "buffered payload");
  const size_t bytes = blog.FootprintBytes();
  Add(&buffer, blog);
  EXPECT_EQ(buffer.count(), 1u);
  EXPECT_EQ(buffer.bytes(), bytes);
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kFlushBuffer), bytes);
  Microblog read;
  ASSERT_TRUE(buffer.Get(1, &read));
  EXPECT_EQ(read.text, "buffered payload");
  EXPECT_FALSE(buffer.Get(2, &read));
}

TEST(FlushBufferTest, DrainWritesOneBatchAndReleases) {
  MemoryTracker tracker(1 << 20);
  FlushBuffer buffer(&tracker);
  SimDiskStore disk;
  for (MicroblogId id = 1; id <= 5; ++id) {
    Add(&buffer, MakeBlog(id, id, {1}));
  }
  EXPECT_GT(buffer.capacity_bytes(), 0u);
  ASSERT_TRUE(buffer.DrainTo(&disk).ok());
  EXPECT_EQ(buffer.count(), 0u);
  EXPECT_EQ(buffer.bytes(), 0u);
  EXPECT_EQ(buffer.capacity_bytes(), 0u);  // the batch gave its memory back
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kFlushBuffer), 0u);
  EXPECT_EQ(disk.NumRecords(), 5u);
  EXPECT_EQ(disk.stats().write_batches, 1u);  // single batched write
  Microblog read;
  EXPECT_FALSE(buffer.Get(3, &read));
  ASSERT_TRUE(disk.GetRecord(3, &read).ok());
  EXPECT_EQ(read.created_at, 3u);
}

TEST(FlushBufferTest, DrainEmptyIsNoop) {
  FlushBuffer buffer;
  SimDiskStore disk;
  ASSERT_TRUE(buffer.DrainTo(&disk).ok());
  EXPECT_EQ(disk.stats().write_batches, 0u);
}

TEST(FlushBufferTest, PeakBytesTracksHighWater) {
  FlushBuffer buffer;
  SimDiskStore disk;
  Add(&buffer, MakeBlog(1, 1, {1}, 1, std::string(500, 'a')));
  const size_t peak1 = buffer.peak_bytes();
  ASSERT_TRUE(buffer.DrainTo(&disk).ok());
  Add(&buffer, MakeBlog(2, 2, {1}, 1, "tiny"));
  EXPECT_EQ(buffer.peak_bytes(), peak1);  // smaller refill keeps the peak
  Add(&buffer, MakeBlog(3, 3, {1}, 1, std::string(2000, 'b')));
  EXPECT_GT(buffer.peak_bytes(), peak1);
}

/// Fails every WriteBatch until told otherwise, remembering the ids of
/// each batch it was handed; delegates the rest.
class FailingDiskStore : public SimDiskStore {
 public:
  bool fail = true;
  std::vector<std::vector<MicroblogId>> attempts;
  Status WriteBatch(const RecordBatch& batch) override {
    attempts.emplace_back();
    batch.ForEach([this](const uint8_t* blob) {
      attempts.back().push_back(EncodedRecordId(blob));
    });
    if (fail) return Status::IOError("injected write failure");
    return SimDiskStore::WriteBatch(batch);
  }
};

TEST(FlushBufferTest, FailedDrainRequeuesAndKeepsCharge) {
  MemoryTracker tracker(1 << 20);
  FlushBuffer buffer(&tracker);
  FailingDiskStore disk;
  for (MicroblogId id = 1; id <= 4; ++id) {
    Add(&buffer, MakeBlog(id, id * 10, {1}, 1, "record " + std::to_string(id)));
  }
  const size_t charged = tracker.ComponentUsed(MemoryComponent::kFlushBuffer);
  ASSERT_GT(charged, 0u);

  // The old DrainTo released the tracker charge up front and destroyed the
  // batch on failure — silent data loss. Now the records come back, the
  // memory accounting stays, and the failure is visible in requeues().
  Status status = buffer.DrainTo(&disk);
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(buffer.count(), 4u);
  EXPECT_EQ(buffer.bytes(), charged);
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kFlushBuffer), charged);
  EXPECT_EQ(buffer.requeues(), 1u);
  EXPECT_EQ(disk.NumRecords(), 0u);
  Microblog read;
  ASSERT_TRUE(buffer.Get(2, &read));  // still readable
  EXPECT_EQ(read.text, "record 2");

  // Once the disk heals, the retry drains everything in original order.
  disk.fail = false;
  ASSERT_TRUE(buffer.DrainTo(&disk).ok());
  EXPECT_EQ(buffer.count(), 0u);
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kFlushBuffer), 0u);
  EXPECT_EQ(disk.NumRecords(), 4u);
  ASSERT_EQ(disk.attempts.size(), 2u);
  EXPECT_EQ(disk.attempts[1], (std::vector<MicroblogId>{1, 2, 3, 4}));
  Microblog blog;
  for (MicroblogId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(disk.GetRecord(id, &blog).ok());
    EXPECT_EQ(blog.text, "record " + std::to_string(id));
  }
}

TEST(FlushBufferTest, RequeuePreservesOrderAheadOfNewArrivals) {
  FlushBuffer buffer;
  FailingDiskStore disk;
  Add(&buffer, MakeBlog(1, 10, {1}));
  Add(&buffer, MakeBlog(2, 20, {1}));
  EXPECT_TRUE(buffer.DrainTo(&disk).IsIOError());
  Add(&buffer, MakeBlog(3, 30, {1}));  // arrives after the failed drain
  disk.fail = false;
  ASSERT_TRUE(buffer.DrainTo(&disk).ok());
  // The requeued originals precede the post-failure arrival in the one
  // batch the retry writes.
  EXPECT_EQ(disk.NumRecords(), 3u);
  EXPECT_EQ(disk.stats().write_batches, 1u);
  ASSERT_EQ(disk.attempts.size(), 2u);
  EXPECT_EQ(disk.attempts[1], (std::vector<MicroblogId>{1, 2, 3}));
}

/// Reads the buffer from inside the write, as a concurrent query would.
class ProbingDiskStore : public SimDiskStore {
 public:
  const FlushBuffer* buffer = nullptr;
  bool found_during_write = false;
  Status WriteBatch(const RecordBatch& batch) override {
    Microblog read;
    batch.ForEach([&](const uint8_t* blob) {
      found_during_write = buffer->Get(EncodedRecordId(blob), &read);
    });
    return SimDiskStore::WriteBatch(batch);
  }
};

TEST(FlushBufferTest, BatchStaysReadableUntilWriteAcknowledged) {
  FlushBuffer buffer;
  ProbingDiskStore disk;
  disk.buffer = &buffer;
  Add(&buffer, MakeBlog(1, 10, {1}));
  ASSERT_TRUE(buffer.DrainTo(&disk).ok());
  EXPECT_TRUE(disk.found_during_write);
  Microblog read;
  EXPECT_FALSE(buffer.Get(1, &read));
}

TEST(FlushBufferTest, DestructorReleasesCharges) {
  MemoryTracker tracker(1 << 20);
  {
    FlushBuffer buffer(&tracker);
    Add(&buffer, MakeBlog(1, 1, {1}));
    EXPECT_GT(tracker.ComponentUsed(MemoryComponent::kFlushBuffer), 0u);
  }
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kFlushBuffer), 0u);
}

}  // namespace
}  // namespace kflush
