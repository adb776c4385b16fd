// Parameterized parity suite: the accounting disk (SimDiskStore) and the
// file-backed tier the durable deployment ships (SegmentDiskStore) must
// behave identically through the DiskStore interface.

#include "storage/disk_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "../testing/test_util.h"
#include "storage/segment.h"
#include "storage/sim_disk_store.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::RemoveTree;

// kFile is SegmentDiskStore: sealed segment files in a fresh directory.
enum class StoreType { kSim, kFile };

class DiskStoreTest : public ::testing::TestWithParam<StoreType> {
 protected:
  void SetUp() override {
    if (GetParam() == StoreType::kSim) {
      store_ = std::make_unique<SimDiskStore>();
    } else {
      dir_ = testing_util::UniqueTempPath("kflush_disk_test");
      RemoveTree(dir_);
      auto opened =
          SegmentDiskStore::OpenOrRecover(dir_, DurabilityLevel::kBatch);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      store_ = std::move(opened).value();
    }
  }

  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) RemoveTree(dir_);
  }

  std::unique_ptr<DiskStore> store_;
  std::string dir_;
};

TEST_P(DiskStoreTest, EmptyQueries) {
  std::vector<Posting> out;
  ASSERT_TRUE(store_->QueryTerm(5, 10, &out).ok());
  EXPECT_TRUE(out.empty());
  Microblog blog;
  EXPECT_TRUE(store_->GetRecord(1, &blog).IsNotFound());
  EXPECT_EQ(store_->NumRecords(), 0u);
  EXPECT_EQ(store_->NumPostings(), 0u);
}

TEST_P(DiskStoreTest, PostingsComeBackScoreOrdered) {
  ASSERT_TRUE(store_->AddPostings(1, {{10, 5.0}}).ok());
  ASSERT_TRUE(store_->AddPostings(1, {{11, 9.0}}).ok());
  ASSERT_TRUE(store_->AddPostings(1, {{12, 7.0}}).ok());
  std::vector<Posting> out;
  ASSERT_TRUE(store_->QueryTerm(1, 10, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 11u);
  EXPECT_EQ(out[1].id, 12u);
  EXPECT_EQ(out[2].id, 10u);
}

TEST_P(DiskStoreTest, QueryTermRespectsLimit) {
  for (MicroblogId id = 0; id < 20; ++id) {
    ASSERT_TRUE(
        store_->AddPostings(1, {{id, static_cast<double>(id)}}).ok());
  }
  std::vector<Posting> out;
  ASSERT_TRUE(store_->QueryTerm(1, 5, &out).ok());
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].id, 19u);
}

TEST_P(DiskStoreTest, DuplicatePostingIgnored) {
  ASSERT_TRUE(store_->AddPostings(1, {{10, 5.0}}).ok());
  ASSERT_TRUE(store_->AddPostings(1, {{10, 5.0}}).ok());
  EXPECT_EQ(store_->NumPostings(), 1u);
}

TEST_P(DiskStoreTest, WriteBatchThenGetRecord) {
  std::vector<Microblog> batch;
  batch.push_back(MakeBlog(1, 100, {1, 2}, 7, "first record"));
  batch.push_back(MakeBlog(2, 200, {3}, 8, "second record"));
  ASSERT_TRUE(store_->WriteBatch(std::move(batch)).ok());
  EXPECT_EQ(store_->NumRecords(), 2u);

  Microblog blog;
  ASSERT_TRUE(store_->GetRecord(2, &blog).ok());
  EXPECT_EQ(blog.created_at, 200u);
  EXPECT_EQ(blog.text, "second record");
  ASSERT_TRUE(store_->GetRecord(1, &blog).ok());
  EXPECT_EQ(blog.keywords, (std::vector<KeywordId>{1, 2}));
}

TEST_P(DiskStoreTest, MultipleBatchesAccumulate) {
  for (int b = 0; b < 5; ++b) {
    std::vector<Microblog> batch;
    for (int i = 0; i < 10; ++i) {
      batch.push_back(MakeBlog(static_cast<MicroblogId>(b * 10 + i + 1),
                               100, {1}, 1, "batch record " + std::to_string(b)));
    }
    ASSERT_TRUE(store_->WriteBatch(std::move(batch)).ok());
  }
  EXPECT_EQ(store_->NumRecords(), 50u);
  Microblog blog;
  ASSERT_TRUE(store_->GetRecord(37, &blog).ok());
  EXPECT_EQ(blog.text, "batch record 3");
  EXPECT_EQ(store_->stats().write_batches, 5u);
  EXPECT_EQ(store_->stats().records_written, 50u);
}

TEST_P(DiskStoreTest, StatsCountAccesses) {
  ASSERT_TRUE(store_->AddPostings(1, {{10, 5.0}}).ok());
  std::vector<Posting> out;
  ASSERT_TRUE(store_->QueryTerm(1, 10, &out).ok());
  ASSERT_TRUE(store_->QueryTerm(2, 10, &out).ok());
  const DiskStats stats = store_->stats();
  EXPECT_EQ(stats.postings_added, 1u);
  EXPECT_EQ(stats.term_queries, 2u);
}

TEST_P(DiskStoreTest, RunsRegisterLikeOnePostingRuns) {
  // Each shape goes in as one AddPostings call under one term and as
  // one-posting runs under another; both terms already hold postings the
  // run interleaves with. The lists and postings_added must agree.
  const std::vector<std::vector<Posting>> shapes = {
      {{1, 1.0}, {2, 2.0}, {3, 3.0}, {4, 4.0}, {5, 5.0}},     // ascending
      {{5, 5.0}, {4, 4.0}, {3, 3.0}, {2, 2.0}, {1, 1.0}},     // descending
      {{3, 3.0}, {1, 1.0}, {5, 5.0}, {2, 2.0}, {4, 4.0}},     // interleaved
      {{5, 7.0}, {3, 7.0}, {1, 7.0}, {4, 7.0}, {2, 7.0}},     // equal scores
      {{10, 5.0}, {11, 6.0}, {10, 5.0}, {11, 6.0}, {12, 4.0}},  // duplicates
  };
  TermId term = 1;
  for (const std::vector<Posting>& run : shapes) {
    const TermId whole = term++;
    const TermId single = term++;
    for (TermId t : {whole, single}) {
      ASSERT_TRUE(store_->AddPostings(t, {{100, 2.5}, {101, 9.0}}).ok());
    }
    const uint64_t before = store_->stats().postings_added;
    ASSERT_TRUE(store_->AddPostings(whole, run).ok());
    const uint64_t added_whole = store_->stats().postings_added - before;
    for (const Posting& posting : run) {
      ASSERT_TRUE(store_->AddPostings(single, {posting}).ok());
    }
    const uint64_t added_single =
        store_->stats().postings_added - before - added_whole;
    EXPECT_EQ(added_whole, added_single) << "term " << whole;
    std::vector<Posting> a, b;
    ASSERT_TRUE(store_->QueryTerm(whole, 100, &a).ok());
    ASSERT_TRUE(store_->QueryTerm(single, 100, &b).ok());
    ASSERT_EQ(a.size(), b.size()) << "term " << whole;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "term " << whole << " rank " << i;
      EXPECT_EQ(a[i].score, b[i].score) << "term " << whole << " rank " << i;
      if (i > 0) {
        EXPECT_TRUE(RanksBefore(a[i - 1], a[i]));
      }
    }
  }
}

TEST_P(DiskStoreTest, EmptyBatchIsOk) {
  ASSERT_TRUE(store_->WriteBatch({}).ok());
  EXPECT_EQ(store_->NumRecords(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, DiskStoreTest,
                         ::testing::Values(StoreType::kSim, StoreType::kFile),
                         [](const auto& info) {
                           return info.param == StoreType::kSim ? "Sim"
                                                                : "File";
                         });

}  // namespace
}  // namespace kflush
