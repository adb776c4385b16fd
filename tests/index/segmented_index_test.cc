#include "index/segmented_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../testing/test_util.h"

namespace kflush {
namespace {

using testing_util::IdsOf;

TEST(SegmentedIndexTest, StartsWithOneSegment) {
  SegmentedIndex index;
  EXPECT_EQ(index.NumSegments(), 1u);
  EXPECT_EQ(index.NumTerms(), 0u);
}

TEST(SegmentedIndexTest, QueryMergesAcrossSegments) {
  SegmentedIndex index;
  index.Insert(1, 10, 1.0, 1);
  index.Insert(1, 11, 2.0, 2);
  index.SealActiveSegment();
  index.Insert(1, 12, 3.0, 3);
  index.Insert(1, 13, 4.0, 4);
  EXPECT_EQ(index.NumSegments(), 2u);
  EXPECT_EQ(index.EntrySize(1), 4u);

  std::vector<Posting> out;
  EXPECT_EQ(index.Query(1, 3, &out), 3u);
  EXPECT_EQ(IdsOf(out), (std::vector<MicroblogId>{13, 12, 11}));
  EXPECT_DOUBLE_EQ(out[0].score, 4.0);
}

TEST(SegmentedIndexTest, QueryMergesInterleavedScores) {
  // Non-temporal ranking can interleave across segments.
  SegmentedIndex index;
  index.Insert(1, 10, 5.0, 1);
  index.Insert(1, 11, 1.0, 1);
  index.SealActiveSegment();
  index.Insert(1, 12, 3.0, 2);
  std::vector<Posting> out;
  index.Query(1, 10, &out);
  EXPECT_EQ(IdsOf(out), (std::vector<MicroblogId>{10, 12, 11}));
}

TEST(SegmentedIndexTest, FlushOldestReportsEveryPosting) {
  SegmentedIndex index;
  index.Insert(1, 10, 1.0, 1);
  index.Insert(2, 10, 1.0, 1);
  index.Insert(2, 11, 2.0, 2);
  index.SealActiveSegment();
  index.Insert(1, 12, 3.0, 3);

  std::unique_ptr<InvertedIndex> oldest = index.PopOldestSegment();
  EXPECT_GT(oldest->MemoryBytes(), 0u);
  std::vector<Posting> postings;
  oldest->Peek(1, 10, &postings);
  EXPECT_EQ(IdsOf(postings), (std::vector<MicroblogId>{10}));
  EXPECT_EQ(oldest->EntrySize(2), 2u);
  // Newer segment unaffected.
  EXPECT_EQ(index.EntrySize(1), 1u);
  EXPECT_EQ(index.EntrySize(2), 0u);
}

TEST(SegmentedIndexTest, FlushLastSegmentLeavesFreshActive) {
  SegmentedIndex index;
  index.Insert(1, 10, 1.0, 1);
  EXPECT_EQ(index.PopOldestSegment()->EntrySize(1), 1u);
  EXPECT_EQ(index.NumSegments(), 1u);
  EXPECT_EQ(index.EntrySize(1), 0u);
  // Still usable.
  index.Insert(5, 50, 1.0, 1);
  EXPECT_EQ(index.EntrySize(5), 1u);
}

TEST(SegmentedIndexTest, TermsWithAtLeastAggregatesSegments) {
  SegmentedIndex index;
  // Term 1: 2 postings in old segment + 2 in new = 4 total.
  index.Insert(1, 10, 1.0, 1);
  index.Insert(1, 11, 2.0, 1);
  index.SealActiveSegment();
  index.Insert(1, 12, 3.0, 2);
  index.Insert(1, 13, 4.0, 2);
  index.Insert(2, 14, 5.0, 2);
  EXPECT_EQ(index.NumTermsWithAtLeast(4), 1u);
  EXPECT_EQ(index.NumTermsWithAtLeast(1), 2u);
  EXPECT_EQ(index.NumTerms(), 2u);
  EXPECT_EQ(index.TotalPostings(), 5u);
}

TEST(SegmentedIndexTest, MemoryChargedToTracker) {
  MemoryTracker tracker(1 << 20);
  SegmentedIndex index(&tracker);
  index.Insert(1, 10, 1.0, 1);
  EXPECT_GT(tracker.ComponentUsed(MemoryComponent::kIndex), 0u);
  EXPECT_EQ(index.MemoryBytes(),
            tracker.ComponentUsed(MemoryComponent::kIndex));
  index.PopOldestSegment().reset();
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kIndex), 0u);
}

TEST(SegmentedIndexTest, ManySegmentsFlushInOrder) {
  SegmentedIndex index;
  for (int seg = 0; seg < 5; ++seg) {
    index.Insert(100 + seg, static_cast<MicroblogId>(seg),
                 static_cast<double>(seg), seg);
    index.SealActiveSegment();
  }
  EXPECT_EQ(index.NumSegments(), 6u);
  // Oldest-first: segment holding term 100 goes first.
  EXPECT_EQ(index.PopOldestSegment()->EntrySize(100), 1u);
  EXPECT_EQ(index.PopOldestSegment()->EntrySize(101), 1u);
  EXPECT_EQ(index.NumSegments(), 4u);
}

}  // namespace
}  // namespace kflush
