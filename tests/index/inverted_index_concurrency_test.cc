// Concurrency fuzz for the sharded inverted index: parallel inserters,
// queriers, and a trimmer thread on overlapping terms; afterwards the
// index's internal counters must balance exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "index/inverted_index.h"
#include "util/random.h"

namespace kflush {
namespace {

TEST(InvertedIndexConcurrencyTest, ParallelInsertQueryTrim) {
  InvertedIndex index;
  constexpr int kInserters = 4;
  constexpr int kPerThread = 20000;
  constexpr TermId kTerms = 64;
  std::atomic<bool> stop{false};

  std::vector<std::thread> inserters;
  std::atomic<uint64_t> inserted{0};
  for (int t = 0; t < kInserters; ++t) {
    inserters.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        const MicroblogId id =
            static_cast<MicroblogId>(t) * kPerThread + static_cast<MicroblogId>(i) + 1;
        index.Insert(rng.Uniform(kTerms), id, static_cast<double>(id),
                     static_cast<Timestamp>(id), 20);
        inserted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread querier([&] {
    Rng rng(99);
    std::vector<Posting> out;
    while (!stop.load(std::memory_order_relaxed)) {
      out.clear();
      index.Query(rng.Uniform(kTerms), 20, 1, &out);
      // Returned lists must be score-descending (score == id here).
      for (size_t i = 1; i < out.size(); ++i) {
        ASSERT_GT(out[i - 1].id, out[i].id);
        ASSERT_GT(out[i - 1].score, out[i].score);
      }
    }
  });

  std::atomic<uint64_t> trimmed_total{0};
  std::thread trimmer([&] {
    Rng rng(7);
    std::vector<Posting> trimmed;
    while (!stop.load(std::memory_order_relaxed)) {
      trimmed.clear();
      trimmed_total.fetch_add(
          index.TrimBeyondK(rng.Uniform(kTerms), 20, nullptr, &trimmed),
          std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  for (auto& t : inserters) t.join();
  stop.store(true);
  querier.join();
  trimmer.join();

  // Exact balance: inserted == still-indexed + trimmed.
  EXPECT_EQ(inserted.load(), index.TotalPostings() + trimmed_total.load());
  // Memory accounting balances with structure counts.
  EXPECT_EQ(index.MemoryBytes(),
            index.NumEntries() * InvertedIndex::kBytesPerEntry +
                index.TotalPostings() * PostingList::kBytesPerPosting);
  // Every entry is within k of the last trim or grew afterwards; either
  // way the per-term invariant "entry size == sum of survivors" holds.
  size_t recount = 0;
  index.ForEachEntry([&](const EntryMeta& meta) { recount += meta.count; });
  EXPECT_EQ(recount, index.TotalPostings());
}

TEST(InvertedIndexConcurrencyTest, ParallelRemoveEntries) {
  InvertedIndex index;
  constexpr TermId kTerms = 256;
  for (TermId t = 0; t < kTerms; ++t) {
    for (MicroblogId id = 0; id < 10; ++id) {
      index.Insert(t, t * 100 + id, static_cast<double>(id), 1, 0);
    }
  }
  std::atomic<uint64_t> removed{0};
  std::vector<std::thread> removers;
  for (int t = 0; t < 4; ++t) {
    removers.emplace_back([&, t] {
      for (TermId term = static_cast<TermId>(t); term < kTerms; term += 4) {
        removed.fetch_add(
            index.RemoveMatching(term, 0, nullptr, nullptr),
            std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : removers) t.join();
  EXPECT_EQ(removed.load(), kTerms * 10);
  EXPECT_EQ(index.NumEntries(), 0u);
  EXPECT_EQ(index.TotalPostings(), 0u);
  EXPECT_EQ(index.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace kflush
