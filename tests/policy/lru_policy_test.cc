#include "policy/lru_policy.h"

#include <gtest/gtest.h>

#include <thread>

#include "../testing/policy_harness.h"

namespace kflush {
namespace {

using testing_util::PolicyHarness;

constexpr uint32_t kK = 5;

TEST(LruPolicyTest, TracksEveryInsertedRecord) {
  PolicyHarness h;
  auto policy = h.Make(PolicyKind::kLru, kK);
  auto* lru = static_cast<LruPolicy*>(policy.get());
  for (MicroblogId id = 1; id <= 10; ++id) h.Ingest(policy.get(), id, {1});
  EXPECT_EQ(lru->LruListSize(), 10u);
  EXPECT_EQ(policy->AuxMemoryBytes(), 10 * LruPolicy::kBytesPerNode);
}

TEST(LruPolicyTest, EvictsColdestFirst) {
  PolicyHarness h;
  auto policy = h.Make(PolicyKind::kLru, kK);
  for (MicroblogId id = 1; id <= 10; ++id) h.Ingest(policy.get(), id, {1});
  // Flush a little: the oldest-inserted, never-accessed records go first.
  const size_t small = 2 * RawDataStore::RecordBytes(
                               testing_util::MakeBlog(1, 1, {1}));
  policy->Flush(small);
  EXPECT_FALSE(h.raw().Contains(1));
  EXPECT_TRUE(h.raw().Contains(10));
}

TEST(LruPolicyTest, ResultAccessProtectsFromEviction) {
  PolicyHarness h;
  auto policy = h.Make(PolicyKind::kLru, kK);
  for (MicroblogId id = 1; id <= 10; ++id) h.Ingest(policy.get(), id, {1});
  // Touch the two oldest records as query results.
  policy->OnResultAccess({1, 2});
  const size_t small = 2 * RawDataStore::RecordBytes(
                               testing_util::MakeBlog(1, 1, {1}));
  policy->Flush(small);
  // 1 and 2 were moved to the MRU head; 3 and 4 are now coldest.
  EXPECT_TRUE(h.raw().Contains(1));
  EXPECT_TRUE(h.raw().Contains(2));
  EXPECT_FALSE(h.raw().Contains(3));
}

TEST(LruPolicyTest, EvictionRemovesFromAllEntries) {
  PolicyHarness h;
  auto policy = h.Make(PolicyKind::kLru, kK);
  h.Ingest(policy.get(), 1, {1, 2, 3});
  h.Ingest(policy.get(), 2, {1});
  const size_t one = RawDataStore::RecordBytes(
      testing_util::MakeBlog(1, 1, {1, 2, 3}));
  policy->Flush(one);
  // Record 1 (coldest) evicted from every entry it appeared in.
  EXPECT_FALSE(h.raw().Contains(1));
  EXPECT_EQ(policy->EntrySize(1), 1u);
  EXPECT_EQ(policy->EntrySize(2), 0u);
  EXPECT_EQ(policy->EntrySize(3), 0u);
  EXPECT_EQ(h.disk().NumPostings(), 3u);
  EXPECT_EQ(h.disk().NumRecords(), 1u);
}

TEST(LruPolicyTest, FlushEverythingThenContinue) {
  PolicyHarness h;
  auto policy = h.Make(PolicyKind::kLru, kK);
  auto* lru = static_cast<LruPolicy*>(policy.get());
  for (MicroblogId id = 1; id <= 5; ++id) h.Ingest(policy.get(), id, {1});
  policy->Flush(~size_t{0} >> 1);
  EXPECT_EQ(h.raw().size(), 0u);
  EXPECT_EQ(lru->LruListSize(), 0u);
  EXPECT_EQ(policy->AuxMemoryBytes(), 0u);
  h.Ingest(policy.get(), 6, {1});
  EXPECT_EQ(policy->EntrySize(1), 1u);
}

TEST(LruPolicyTest, KFilledAndSizes) {
  PolicyHarness h;
  auto policy = h.Make(PolicyKind::kLru, kK);
  for (MicroblogId id = 1; id <= 7; ++id) h.Ingest(policy.get(), id, {1});
  h.Ingest(policy.get(), 8, {2});
  EXPECT_EQ(policy->NumKFilledTerms(), 1u);
  EXPECT_EQ(policy->NumTerms(), 2u);
}

TEST(LruPolicyTest, ConcurrentAccessAndInsertKeepsListConsistent) {
  PolicyHarness h;
  auto policy = h.Make(PolicyKind::kLru, kK);
  auto* lru = static_cast<LruPolicy*>(policy.get());
  for (MicroblogId id = 1; id <= 1000; ++id) {
    h.Ingest(policy.get(), id, {static_cast<KeywordId>(id % 10)});
  }
  std::thread touch_thread([&] {
    for (int round = 0; round < 200; ++round) {
      std::vector<MicroblogId> ids;
      for (MicroblogId id = 1; id <= 50; ++id) ids.push_back(id);
      policy->OnResultAccess(ids);
    }
  });
  std::thread query_thread([&] {
    std::vector<Posting> out;
    for (int round = 0; round < 200; ++round) {
      out.clear();
      policy->QueryTerm(round % 10, kK, &out);
      policy->OnResultAccess(testing_util::IdsOf(out));
    }
  });
  touch_thread.join();
  query_thread.join();
  EXPECT_EQ(lru->LruListSize(), 1000u);
}

}  // namespace
}  // namespace kflush
