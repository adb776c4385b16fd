// Cross-policy property suite: invariants every flushing policy must
// preserve through arbitrary ingest/flush/query interleavings.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "../testing/policy_harness.h"
#include "util/random.h"

namespace kflush {
namespace {

using testing_util::PolicyHarness;

constexpr uint32_t kK = 5;

class PolicyInvariantsTest : public ::testing::TestWithParam<PolicyKind> {
 protected:
  /// Runs a randomized workload: skewed multi-keyword ingest interleaved
  /// with queries and flushes. Records ground truth per term.
  void RunWorkload(FlushPolicy* policy, PolicyHarness* h, int rounds) {
    Rng rng(2024);
    MicroblogId next_id = 1;
    for (int round = 0; round < rounds; ++round) {
      // Ingest a burst with Zipf-ish keyword choice over 30 keywords.
      for (int i = 0; i < 40; ++i) {
        std::vector<KeywordId> kws;
        const uint32_t nkw = rng.OneNPlusGeometric(0.4, 3);
        while (kws.size() < nkw) {
          // Skewed: half the mass on keywords 0-2.
          KeywordId kw = rng.Bernoulli(0.5)
                             ? static_cast<KeywordId>(rng.Uniform(3))
                             : static_cast<KeywordId>(rng.Uniform(30));
          if (std::find(kws.begin(), kws.end(), kw) == kws.end()) {
            kws.push_back(kw);
          }
        }
        for (KeywordId kw : kws) truth_[kw].insert(next_id);
        h->Ingest(policy, next_id, kws);
        ++next_id;
      }
      // Query a few keywords.
      for (int q = 0; q < 5; ++q) {
        h->Query(policy, rng.Uniform(30), kK);
      }
      // Flush every other round.
      if (round % 2 == 1) {
        policy->Flush(4096);
      }
    }
  }

  std::map<TermId, std::set<MicroblogId>> truth_;
};

TEST_P(PolicyInvariantsTest, RawStoreAccountingMatchesTracker) {
  PolicyHarness h;
  auto policy = h.Make(GetParam(), kK, /*fifo_segment_bytes=*/8 * 1024);
  RunWorkload(policy.get(), &h, 10);
  EXPECT_EQ(h.tracker().ComponentUsed(MemoryComponent::kRawStore),
            h.raw().MemoryBytes());
}

TEST_P(PolicyInvariantsTest, NoUnreferencedRecordSurvivesFlush) {
  PolicyHarness h;
  auto policy = h.Make(GetParam(), kK, /*fifo_segment_bytes=*/8 * 1024);
  RunWorkload(policy.get(), &h, 10);
  policy->Flush(16 * 1024);
  h.raw().ForEach([](const Microblog& blog, uint32_t pcount, uint32_t) {
    EXPECT_GT(pcount, 0u) << "orphaned record " << blog.id;
  });
}

TEST_P(PolicyInvariantsTest, MemoryUnionDiskCoversEveryPosting) {
  // Completeness: for every term, every id ever inserted under it is
  // either in the in-memory entry or registered as a disk posting — the
  // property that makes miss-path answers exact (paper §VI).
  PolicyHarness h;
  auto policy = h.Make(GetParam(), kK, /*fifo_segment_bytes=*/8 * 1024);
  RunWorkload(policy.get(), &h, 10);
  for (const auto& [term, ids] : truth_) {
    std::vector<Posting> mem;
    policy->QueryTerm(term, ~size_t{0}, &mem);
    std::vector<Posting> disk;
    ASSERT_TRUE(h.disk().QueryTerm(term, ~size_t{0}, &disk).ok());
    std::set<MicroblogId> covered;
    for (const Posting& p : mem) covered.insert(p.id);
    for (const Posting& p : disk) covered.insert(p.id);
    for (MicroblogId id : ids) {
      EXPECT_TRUE(covered.count(id) > 0)
          << "term " << term << " lost id " << id;
    }
  }
}

TEST_P(PolicyInvariantsTest, FlushedRecordPayloadsReachDisk) {
  PolicyHarness h;
  auto policy = h.Make(GetParam(), kK, /*fifo_segment_bytes=*/8 * 1024);
  RunWorkload(policy.get(), &h, 10);
  // Every id ever ingested is either memory-resident or on disk.
  std::set<MicroblogId> all_ids;
  for (const auto& [term, ids] : truth_) {
    all_ids.insert(ids.begin(), ids.end());
  }
  size_t missing = 0;
  for (MicroblogId id : all_ids) {
    if (h.raw().Contains(id)) continue;
    Microblog blog;
    if (!h.disk().GetRecord(id, &blog).ok()) ++missing;
  }
  EXPECT_EQ(missing, 0u);
}

TEST_P(PolicyInvariantsTest, FlushFreesRequestedBytesWhenAvailable) {
  PolicyHarness h;
  auto policy = h.Make(GetParam(), kK, /*fifo_segment_bytes=*/8 * 1024);
  RunWorkload(policy.get(), &h, 8);
  const size_t data_before = h.tracker().DataUsed();
  const size_t need = data_before / 4;
  const size_t freed = policy->Flush(need);
  EXPECT_GE(freed, need);
  EXPECT_LE(h.tracker().DataUsed(), data_before - need);
}

TEST_P(PolicyInvariantsTest, QueryNeverReturnsFlushedIds) {
  PolicyHarness h;
  auto policy = h.Make(GetParam(), kK, /*fifo_segment_bytes=*/8 * 1024);
  RunWorkload(policy.get(), &h, 10);
  for (TermId term = 0; term < 30; ++term) {
    std::vector<Posting> postings;
    policy->QueryTerm(term, ~size_t{0}, &postings);
    for (MicroblogId id : testing_util::IdsOf(postings)) {
      EXPECT_TRUE(h.raw().Contains(id))
          << "policy " << policy->name() << " term " << term
          << " returned evicted id " << id;
    }
  }
}

TEST_P(PolicyInvariantsTest, QueryResultsAreRankDescending) {
  PolicyHarness h;
  auto policy = h.Make(GetParam(), kK, /*fifo_segment_bytes=*/8 * 1024);
  RunWorkload(policy.get(), &h, 6);
  for (TermId term = 0; term < 30; ++term) {
    std::vector<Posting> postings;
    policy->QueryTerm(term, ~size_t{0}, &postings);
    Timestamp prev = ~Timestamp{0};
    for (const Posting& p : postings) {
      auto blog = h.raw().Get(p.id);
      ASSERT_TRUE(blog.has_value());
      EXPECT_LE(blog->created_at, prev);
      // The posting carries the score fixed at arrival (temporal here).
      EXPECT_DOUBLE_EQ(p.score, static_cast<double>(blog->created_at));
      prev = blog->created_at;
    }
  }
}

TEST_P(PolicyInvariantsTest, RepeatedFullDrainIsStable) {
  PolicyHarness h;
  auto policy = h.Make(GetParam(), kK, /*fifo_segment_bytes=*/8 * 1024);
  RunWorkload(policy.get(), &h, 4);
  // Drain everything, twice (the second must be a harmless no-op).
  policy->Flush(~size_t{0} >> 1);
  const size_t after_first = h.raw().size();
  policy->Flush(~size_t{0} >> 1);
  EXPECT_LE(h.raw().size(), after_first);
  // System still works after total drain.
  h.Ingest(policy.get(), 999999, {1});
  std::vector<Posting> postings;
  policy->QueryTerm(1, kK, &postings);
  EXPECT_FALSE(postings.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariantsTest,
    ::testing::Values(PolicyKind::kFifo, PolicyKind::kLru,
                      PolicyKind::kKFlushing, PolicyKind::kKFlushingMK),
    [](const auto& info) {
      switch (info.param) {
        case PolicyKind::kFifo:
          return std::string("Fifo");
        case PolicyKind::kLru:
          return std::string("Lru");
        case PolicyKind::kKFlushing:
          return std::string("KFlushing");
        case PolicyKind::kKFlushingMK:
          return std::string("KFlushingMK");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace kflush
