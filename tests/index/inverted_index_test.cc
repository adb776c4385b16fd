#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace kflush {
namespace {

TEST(InvertedIndexTest, InsertCreatesEntryAndCharges) {
  MemoryTracker tracker(1 << 20);
  InvertedIndex index(&tracker);
  auto res = index.Insert(7, 1, 100.0, 50, /*k=*/3);
  EXPECT_EQ(res.size_after, 1u);
  EXPECT_EQ(res.insert_pos, 0u);
  EXPECT_EQ(index.NumEntries(), 1u);
  EXPECT_EQ(index.TotalPostings(), 1u);
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kIndex),
            InvertedIndex::kBytesPerEntry + PostingList::kBytesPerPosting);
}

TEST(InvertedIndexTest, QueryReturnsBestRankedAndStampsTime) {
  InvertedIndex index;
  for (MicroblogId id = 1; id <= 5; ++id) {
    index.Insert(7, id, static_cast<double>(id), id * 10, 0);
  }
  std::vector<Posting> out;
  EXPECT_EQ(index.Query(7, 3, /*now=*/999, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].id, 5 - i);
    EXPECT_DOUBLE_EQ(out[i].score, static_cast<double>(5 - i));
  }
  EntryMeta meta;
  ASSERT_TRUE(index.GetEntryMeta(7, &meta));
  EXPECT_EQ(meta.last_query, 999u);
  EXPECT_EQ(meta.last_arrival, 50u);
}

TEST(InvertedIndexTest, PeekDoesNotStampQueryTime) {
  InvertedIndex index;
  index.Insert(7, 1, 1.0, 10, 0);
  std::vector<Posting> out;
  index.Peek(7, 1, &out);
  EntryMeta meta;
  ASSERT_TRUE(index.GetEntryMeta(7, &meta));
  EXPECT_EQ(meta.last_query, 0u);
}

TEST(InvertedIndexTest, QueryOnMissingTermIsEmpty) {
  InvertedIndex index;
  std::vector<Posting> out;
  EXPECT_EQ(index.Query(404, 10, 1, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(InvertedIndexTest, ChargeTransitionsOnInsert) {
  InvertedIndex index;
  const size_t k = 3;
  std::vector<MicroblogId> charges, uncharges;
  auto on_charge = [&](MicroblogId id) { charges.push_back(id); };
  auto on_uncharge = [&](MicroblogId id) { uncharges.push_back(id); };
  // Fill to exactly k: every insert charged, no displacement.
  for (MicroblogId id = 1; id <= 3; ++id) {
    index.Insert(1, id, static_cast<double>(id), 1, k, on_charge, on_uncharge);
  }
  EXPECT_EQ(charges, (std::vector<MicroblogId>{1, 2, 3}));
  EXPECT_TRUE(uncharges.empty());
  // The 4th (best-ranked) insert displaces the now-(k+1)-th: id 1.
  charges.clear();
  auto res = index.Insert(1, 4, 4.0, 2, k, on_charge, on_uncharge);
  EXPECT_EQ(res.size_after, 4u);
  EXPECT_EQ(charges, (std::vector<MicroblogId>{4}));
  EXPECT_EQ(uncharges, (std::vector<MicroblogId>{1}));
  // Insert beyond top-k: no transitions.
  charges.clear();
  uncharges.clear();
  auto res2 = index.Insert(1, 5, 0.5, 3, k, on_charge, on_uncharge);
  EXPECT_EQ(res2.insert_pos, 4u);
  EXPECT_TRUE(charges.empty());
  EXPECT_TRUE(uncharges.empty());
}

TEST(InvertedIndexTest, TrimBeyondKReleasesBytes) {
  MemoryTracker tracker(1 << 20);
  InvertedIndex index(&tracker);
  for (MicroblogId id = 1; id <= 10; ++id) {
    index.Insert(1, id, static_cast<double>(id), 1, 0);
  }
  const size_t before = tracker.ComponentUsed(MemoryComponent::kIndex);
  std::vector<Posting> trimmed;
  EXPECT_EQ(index.TrimBeyondK(1, 4, nullptr, &trimmed), 6u);
  EXPECT_EQ(before - tracker.ComponentUsed(MemoryComponent::kIndex),
            6 * PostingList::kBytesPerPosting);
  EXPECT_EQ(index.EntrySize(1), 4u);
}

TEST(InvertedIndexTest, RemoveMatchingDeletesEmptyEntry) {
  MemoryTracker tracker(1 << 20);
  InvertedIndex index(&tracker);
  index.Insert(1, 1, 1.0, 1, 0);
  index.Insert(1, 2, 2.0, 1, 0);
  size_t removed = index.RemoveMatching(1, 1, nullptr, nullptr);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(index.NumEntries(), 0u);
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kIndex), 0u);
}

TEST(InvertedIndexTest, RemoveMatchingPartialKeepsEntry) {
  InvertedIndex index;
  for (MicroblogId id = 1; id <= 4; ++id) {
    index.Insert(1, id, static_cast<double>(id), 1, 0);
  }
  size_t removed = index.RemoveMatching(
      1, 2, [](MicroblogId id) { return id % 2 == 0; }, nullptr);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(index.EntrySize(1), 2u);
  EXPECT_TRUE(index.ContainsId(1, 1));
  EXPECT_TRUE(index.ContainsId(1, 3));
}

TEST(InvertedIndexTest, RemoveIdReturnsPostingAndErasesEmptyEntry) {
  InvertedIndex index;
  index.Insert(3, 9, 42.0, 1, /*k=*/5);
  Posting removed;
  bool was_charged = false;
  EXPECT_TRUE(index.RemoveId(3, 9, 5, &removed, &was_charged));
  EXPECT_EQ(removed.id, 9u);
  EXPECT_DOUBLE_EQ(removed.score, 42.0);
  EXPECT_TRUE(was_charged);
  EXPECT_EQ(index.NumEntries(), 0u);
  EXPECT_FALSE(index.RemoveId(3, 9, 5, nullptr, nullptr));
}

TEST(InvertedIndexTest, ForEachEntryVisitsAll) {
  InvertedIndex index;
  for (TermId term = 0; term < 100; ++term) {
    index.Insert(term, term + 1, 1.0, term, 0);
  }
  std::set<TermId> seen;
  index.ForEachEntry([&](const EntryMeta& meta) {
    seen.insert(meta.term);
    EXPECT_EQ(meta.count, 1u);
  });
  EXPECT_EQ(seen.size(), 100u);
}

TEST(InvertedIndexTest, NumEntriesWithAtLeast) {
  InvertedIndex index;
  for (TermId term = 0; term < 10; ++term) {
    for (size_t i = 0; i <= term; ++i) {
      index.Insert(term, term * 100 + i, static_cast<double>(i), 1, 0);
    }
  }
  // term t has t+1 postings.
  EXPECT_EQ(index.NumEntriesWithAtLeast(1), 10u);
  EXPECT_EQ(index.NumEntriesWithAtLeast(5), 6u);
  EXPECT_EQ(index.NumEntriesWithAtLeast(10), 1u);
  EXPECT_EQ(index.NumEntriesWithAtLeast(11), 0u);
}

TEST(InvertedIndexTest, PeekReturnsScores) {
  InvertedIndex index;
  index.Insert(1, 10, 5.0, 1, 0);
  index.Insert(1, 11, 7.0, 1, 0);
  std::vector<Posting> postings;
  EXPECT_EQ(index.Peek(1, 10, &postings), 2u);
  EXPECT_EQ(postings[0].id, 11u);
  EXPECT_DOUBLE_EQ(postings[0].score, 7.0);
}

TEST(InvertedIndexTest, ClearReleasesEverything) {
  MemoryTracker tracker(1 << 20);
  InvertedIndex index(&tracker);
  for (TermId t = 0; t < 50; ++t) {
    index.Insert(t, t, 1.0, 1, 0);
  }
  index.Clear();
  EXPECT_EQ(index.NumEntries(), 0u);
  EXPECT_EQ(index.TotalPostings(), 0u);
  EXPECT_EQ(tracker.ComponentUsed(MemoryComponent::kIndex), 0u);
}

TEST(InvertedIndexTest, ManyTermsAcrossShards) {
  InvertedIndex index;
  constexpr TermId kTerms = 10000;
  for (TermId t = 0; t < kTerms; ++t) {
    index.Insert(t, t, static_cast<double>(t), 1, 0);
  }
  EXPECT_EQ(index.NumEntries(), kTerms);
  EXPECT_EQ(index.TotalPostings(), kTerms);
  for (TermId t : {TermId{0}, TermId{137}, TermId{9999}}) {
    EXPECT_EQ(index.EntrySize(t), 1u);
  }
}

}  // namespace
}  // namespace kflush
