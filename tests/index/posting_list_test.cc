#include "index/posting_list.h"

#include <gtest/gtest.h>

#include "../testing/test_util.h"
#include "util/random.h"

namespace kflush {
namespace {

std::vector<MicroblogId> Ids(const PostingList& list) {
  std::vector<Posting> top;
  list.Top(list.size(), &top);
  return testing_util::IdsOf(top);
}

bool IsSortedDescending(const PostingList& list) {
  for (size_t i = 1; i < list.size(); ++i) {
    if (list.at(i - 1).score < list.at(i).score) return false;
  }
  return true;
}

TEST(PostingListTest, InsertAtHeadForIncreasingScores) {
  PostingList list;
  for (MicroblogId id = 1; id <= 5; ++id) {
    auto res = list.Insert(id, static_cast<double>(id));
    EXPECT_EQ(res.insert_pos, 0u);
    EXPECT_EQ(res.size_after, id);
  }
  EXPECT_EQ(Ids(list), (std::vector<MicroblogId>{5, 4, 3, 2, 1}));
}

TEST(PostingListTest, MidListInsertKeepsOrder) {
  PostingList list;
  list.Insert(1, 10.0);
  list.Insert(2, 30.0);
  auto res = list.Insert(3, 20.0);
  EXPECT_EQ(res.insert_pos, 1u);
  EXPECT_EQ(Ids(list), (std::vector<MicroblogId>{2, 3, 1}));
}

TEST(PostingListTest, EqualScoresNewestFirstViaFastPath) {
  PostingList list;
  list.Insert(1, 5.0);
  auto res = list.Insert(2, 5.0);
  EXPECT_EQ(res.insert_pos, 0u);
  EXPECT_EQ(Ids(list), (std::vector<MicroblogId>{2, 1}));
}

TEST(PostingListTest, RandomInsertsStaySorted) {
  Rng rng(99);
  PostingList list;
  for (MicroblogId id = 0; id < 500; ++id) {
    list.Insert(id, rng.NextDouble() * 100.0);
    ASSERT_TRUE(IsSortedDescending(list));
  }
  EXPECT_EQ(list.size(), 500u);
}

TEST(PostingListTest, TopRespectsLimit) {
  PostingList list;
  for (MicroblogId id = 1; id <= 10; ++id) {
    list.Insert(id, static_cast<double>(id));
  }
  std::vector<Posting> out;
  EXPECT_EQ(list.Top(3, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].id, 10 - i);
    EXPECT_DOUBLE_EQ(out[i].score, static_cast<double>(10 - i));
  }
  out.clear();
  EXPECT_EQ(list.Top(100, &out), 10u);
}

TEST(PostingListTest, TrimBeyondKRemovesTail) {
  PostingList list;
  for (MicroblogId id = 1; id <= 10; ++id) {
    list.Insert(id, static_cast<double>(id));
  }
  std::vector<Posting> trimmed;
  EXPECT_EQ(list.TrimBeyondK(4, nullptr, &trimmed), 6u);
  EXPECT_EQ(list.size(), 4u);
  EXPECT_EQ(Ids(list), (std::vector<MicroblogId>{10, 9, 8, 7}));
  // Trimmed ids are the tail (ids 6..1), each exactly once.
  EXPECT_EQ(trimmed.size(), 6u);
  for (const Posting& p : trimmed) {
    EXPECT_LE(p.id, 6u);
  }
}

TEST(PostingListTest, TrimNoopWhenAtOrBelowK) {
  PostingList list;
  list.Insert(1, 1.0);
  list.Insert(2, 2.0);
  std::vector<Posting> trimmed;
  EXPECT_EQ(list.TrimBeyondK(2, nullptr, &trimmed), 0u);
  EXPECT_EQ(list.TrimBeyondK(5, nullptr, &trimmed), 0u);
  EXPECT_EQ(list.size(), 2u);
}

TEST(PostingListTest, TrimWithFilterKeepsProtectedPostings) {
  PostingList list;
  for (MicroblogId id = 1; id <= 8; ++id) {
    list.Insert(id, static_cast<double>(id));
  }
  // Protect even ids from trimming.
  std::vector<Posting> trimmed;
  const size_t n = list.TrimBeyondK(
      3, [](MicroblogId id) { return id % 2 == 1; }, &trimmed);
  EXPECT_EQ(n, 3u);  // ids 5, 3, 1 trimmed; 4, 2 protected
  EXPECT_EQ(Ids(list), (std::vector<MicroblogId>{8, 7, 6, 4, 2}));
  // Top-3 positions untouched.
  EXPECT_TRUE(list.IsInTopK(8, 3));
  EXPECT_TRUE(list.IsInTopK(6, 3));
  EXPECT_FALSE(list.IsInTopK(4, 3));
}

TEST(PostingListTest, TrimFilterKeepingEverythingLeavesListIntact) {
  PostingList list;
  for (MicroblogId id = 1; id <= 6; ++id) {
    list.Insert(id, static_cast<double>(id));
  }
  std::vector<Posting> trimmed;
  EXPECT_EQ(list.TrimBeyondK(2, [](MicroblogId) { return false; }, &trimmed),
            0u);
  EXPECT_EQ(list.size(), 6u);
  EXPECT_EQ(Ids(list), (std::vector<MicroblogId>{6, 5, 4, 3, 2, 1}));
}

TEST(PostingListTest, RemoveIfReportsChargedMembership) {
  PostingList list;
  for (MicroblogId id = 1; id <= 6; ++id) {
    list.Insert(id, static_cast<double>(id), /*k=*/3);
  }
  EXPECT_EQ(list.charged(), 3u);
  std::vector<std::pair<MicroblogId, bool>> removed;
  const size_t n = list.RemoveIf(
      3, nullptr, [&](const Posting& p, bool charged) {
        removed.push_back({p.id, charged});
      });
  EXPECT_EQ(n, 6u);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.charged(), 0u);
  // ids 6,5,4 held the charged top-3 positions; 3,2,1 beyond.
  for (const auto& [id, charged] : removed) {
    EXPECT_EQ(charged, id >= 4) << "id=" << id;
  }
}

TEST(PostingListTest, ChargedPrefixFollowsInsertsAndKChanges) {
  PostingList list;
  std::vector<MicroblogId> charges, uncharges;
  auto on_charge = [&](MicroblogId id) { charges.push_back(id); };
  auto on_uncharge = [&](MicroblogId id) { uncharges.push_back(id); };

  // Growing to k: every insert is charged, none uncharged.
  for (MicroblogId id = 1; id <= 3; ++id) {
    list.Insert(id, static_cast<double>(id), /*k=*/3, on_charge, on_uncharge);
  }
  EXPECT_EQ(charges, (std::vector<MicroblogId>{1, 2, 3}));
  EXPECT_TRUE(uncharges.empty());
  EXPECT_EQ(list.charged(), 3u);

  // A best-ranked insert past k charges itself and evicts the posting that
  // fell to position k.
  charges.clear();
  list.Insert(4, 4.0, /*k=*/3, on_charge, on_uncharge);
  EXPECT_EQ(charges, (std::vector<MicroblogId>{4}));
  EXPECT_EQ(uncharges, (std::vector<MicroblogId>{1}));

  // A beyond-k insert changes nothing.
  charges.clear();
  uncharges.clear();
  list.Insert(5, 0.5, /*k=*/3, on_charge, on_uncharge);
  EXPECT_TRUE(charges.empty());
  EXPECT_TRUE(uncharges.empty());

  // k shrinks: Rebalance revokes the demoted postings' charges...
  list.Rebalance(1, on_charge, on_uncharge);
  EXPECT_EQ(list.charged(), 1u);
  EXPECT_EQ(uncharges, (std::vector<MicroblogId>{2, 3}));
  // ...and k growing back re-charges them.
  uncharges.clear();
  list.Rebalance(4, on_charge, on_uncharge);
  EXPECT_EQ(list.charged(), 4u);
  // List is [4, 3, 2, 1, 5] by score; 4 kept its charge, 3/2/1 regain one.
  EXPECT_EQ(charges, (std::vector<MicroblogId>{3, 2, 1}));
  EXPECT_TRUE(uncharges.empty());
}

TEST(PostingListTest, TrimRevokesStaleChargesBeforeFilter) {
  PostingList list;
  for (MicroblogId id = 1; id <= 6; ++id) {
    list.Insert(id, static_cast<double>(id), /*k=*/5);
  }
  EXPECT_EQ(list.charged(), 5u);
  // k shrank to 2 since the charges were granted: trimming must revoke
  // the stale charges on trimmed AND kept tail postings, then re-align.
  std::vector<MicroblogId> uncharges;
  std::vector<Posting> trimmed;
  const size_t n = list.TrimBeyondK(
      2, [](MicroblogId id) { return id % 2 == 1; }, &trimmed, {},
      [&](MicroblogId id) { uncharges.push_back(id); });
  EXPECT_EQ(n, 2u);  // 3 and 1 trimmed; 4 and 2 kept beyond k
  EXPECT_EQ(list.charged(), 2u);
  // Stale charges on 2 (kept), 3 (trimmed), 4 (kept) revoked, back first.
  EXPECT_EQ(uncharges, (std::vector<MicroblogId>{2, 3, 4}));
}

TEST(PostingListTest, RemoveIfPartial) {
  PostingList list;
  for (MicroblogId id = 1; id <= 6; ++id) {
    list.Insert(id, static_cast<double>(id));
  }
  const size_t n = list.RemoveIf(
      2, [](MicroblogId id) { return id % 2 == 0; }, nullptr);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(Ids(list), (std::vector<MicroblogId>{5, 3, 1}));
}

TEST(PostingListTest, RemoveSingleId) {
  PostingList list;
  for (MicroblogId id = 1; id <= 5; ++id) {
    list.Insert(id, static_cast<double>(id), /*k=*/2);
  }
  Posting removed;
  bool was_charged = false;
  EXPECT_TRUE(list.Remove(5, 2, &removed, &was_charged));
  EXPECT_EQ(removed.id, 5u);
  EXPECT_DOUBLE_EQ(removed.score, 5.0);
  EXPECT_TRUE(was_charged);
  EXPECT_TRUE(list.Remove(1, 2, &removed, &was_charged));
  EXPECT_FALSE(was_charged);
  EXPECT_FALSE(list.Remove(42, 2, nullptr, nullptr));
  EXPECT_EQ(list.size(), 3u);
}

TEST(PostingListTest, ContainsAndIsInTopK) {
  PostingList list;
  for (MicroblogId id = 1; id <= 5; ++id) {
    list.Insert(id, static_cast<double>(id));
  }
  EXPECT_TRUE(list.Contains(3));
  EXPECT_FALSE(list.Contains(9));
  EXPECT_TRUE(list.IsInTopK(5, 1));
  EXPECT_FALSE(list.IsInTopK(4, 1));
  EXPECT_TRUE(list.IsInTopK(4, 2));
}

// Property sweep: after TrimBeyondK(k) with no filter, size == min(size, k)
// and survivors are exactly the k best-scored postings.
class TrimPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrimPropertyTest, TrimKeepsExactlyTopK) {
  const auto [n, k] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 1000 + k));
  PostingList list;
  std::vector<std::pair<double, MicroblogId>> all;
  for (int i = 0; i < n; ++i) {
    const double score = rng.NextDouble() * 1e6;
    list.Insert(static_cast<MicroblogId>(i), score);
    all.push_back({score, static_cast<MicroblogId>(i)});
  }
  std::vector<Posting> trimmed;
  list.TrimBeyondK(static_cast<size_t>(k), nullptr, &trimmed);
  const size_t expect_size = std::min<size_t>(n, k);
  ASSERT_EQ(list.size(), expect_size);
  ASSERT_EQ(trimmed.size(), static_cast<size_t>(n) - expect_size);
  // Survivors = top-k by score.
  std::sort(all.begin(), all.end(), std::greater<>());
  std::vector<MicroblogId> expect_ids;
  for (size_t i = 0; i < expect_size; ++i) expect_ids.push_back(all[i].second);
  std::vector<MicroblogId> got = Ids(list);
  std::sort(got.begin(), got.end());
  std::sort(expect_ids.begin(), expect_ids.end());
  EXPECT_EQ(got, expect_ids);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TrimPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 5, 20, 100, 1000),
                       ::testing::Values(1, 5, 20, 100)));

}  // namespace
}  // namespace kflush
