// SegmentDiskStore: sealed-segment write/read round trips, catalog and
// term-index rebuild on OpenOrRecover, torn-segment salvage + reseal,
// headerless-file removal, sequence resumption after restart, writes
// after recovery, and open failures surfacing as errors.

#include "storage/segment.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

#include "../testing/test_util.h"
#include "model/attribute.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::RecordsEqual;
using testing_util::RemoveTree;

double ScoreByCreatedAt(const Microblog& blog) {
  return static_cast<double>(blog.created_at);
}

class SegmentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::UniqueTempPath("kflush_segment_test");
    RemoveTree(dir_);
  }
  void TearDown() override { RemoveTree(dir_); }

  std::unique_ptr<SegmentDiskStore> OpenFresh(
      const AttributeExtractor* extractor = nullptr) {
    auto opened = SegmentDiskStore::OpenOrRecover(
        dir_, DurabilityLevel::kBatch, extractor,
        extractor != nullptr
            ? std::function<double(const Microblog&)>(ScoreByCreatedAt)
            : nullptr);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  long FileSize(const std::string& path) {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size)
                                          : -1;
  }

  std::string dir_;
};

TEST_F(SegmentStoreTest, FreshDirectoryOpensEmpty) {
  auto store = OpenFresh();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->NumRecords(), 0u);
  EXPECT_EQ(store->NumSegments(), 0u);
  EXPECT_EQ(store->MaxRecordId(), 0u);
}

TEST_F(SegmentStoreTest, WriteBatchSealsOneSegmentPerBatch) {
  auto store = OpenFresh();
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store
                  ->WriteBatch({MakeBlog(1, 10, {1}, 7, "alpha"),
                                MakeBlog(2, 20, {2}, 8, "beta")})
                  .ok());
  ASSERT_TRUE(store->WriteBatch({MakeBlog(3, 30, {1}, 9, "gamma")}).ok());
  EXPECT_EQ(store->NumSegments(), 2u);
  EXPECT_EQ(store->NumRecords(), 3u);
  EXPECT_EQ(store->MaxRecordId(), 3u);
  const DiskStats stats = store->stats();
  EXPECT_EQ(stats.records_written, 3u);
  EXPECT_EQ(stats.write_batches, 2u);
  EXPECT_EQ(stats.fsyncs, 2u);  // one per sealed segment at kBatch

  Microblog blog;
  ASSERT_TRUE(store->GetRecord(2, &blog).ok());
  EXPECT_TRUE(RecordsEqual(blog, MakeBlog(2, 20, {2}, 8, "beta")));
  EXPECT_TRUE(store->Contains(3));
  EXPECT_FALSE(store->Contains(99));
  EXPECT_TRUE(store->GetRecord(99, &blog).IsNotFound());
}

TEST_F(SegmentStoreTest, RecoveryRebuildsCatalogAndTermIndex) {
  {
    auto store = OpenFresh();
    ASSERT_NE(store, nullptr);
    std::vector<Microblog> batch;
    for (MicroblogId id = 1; id <= 10; ++id) {
      batch.push_back(MakeBlog(id, id * 10, {5}, id,
                               "segment record " + std::to_string(id)));
    }
    ASSERT_TRUE(store->WriteBatch(std::move(batch)).ok());
    ASSERT_TRUE(store->WriteBatch({MakeBlog(11, 500, {9})}).ok());
  }

  KeywordAttribute extractor;
  auto reopened = OpenFresh(&extractor);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->NumRecords(), 11u);
  EXPECT_EQ(reopened->NumSegments(), 2u);
  EXPECT_EQ(reopened->MaxRecordId(), 11u);
  const DiskStats stats = reopened->stats();
  EXPECT_EQ(stats.records_recovered, 11u);
  EXPECT_EQ(stats.records_written, 0u);  // recovery is not a write
  EXPECT_EQ(stats.torn_bytes_truncated, 0u);

  std::vector<Posting> postings;
  ASSERT_TRUE(reopened->QueryTerm(5, 100, &postings).ok());
  ASSERT_EQ(postings.size(), 10u);
  EXPECT_EQ(postings[0].id, 10u);  // best score (most recent) first
  double max_score = 0;
  ASSERT_TRUE(reopened->MaxTermScore(5, &max_score));
  EXPECT_EQ(max_score, 100.0);
  EXPECT_FALSE(reopened->MaxTermScore(12345, &max_score));

  Microblog blog;
  ASSERT_TRUE(reopened->GetRecord(7, &blog).ok());
  EXPECT_EQ(blog.text, "segment record 7");
}

TEST_F(SegmentStoreTest, TornSegmentIsSalvagedAndResealed) {
  {
    auto store = OpenFresh();
    ASSERT_NE(store, nullptr);
    std::vector<Microblog> batch;
    for (MicroblogId id = 1; id <= 5; ++id) {
      batch.push_back(MakeBlog(id, id * 10, {1}, id,
                               "salvage record " + std::to_string(id)));
    }
    ASSERT_TRUE(store->WriteBatch(std::move(batch)).ok());
  }
  const std::string seg_path = dir_ + "/seg-000001.kseg";
  const long sealed_size = FileSize(seg_path);
  ASSERT_GT(sealed_size, 0);
  // Cut off the footer and bite into the final record frame: the shape a
  // crash between the body flush and the seal leaves behind.
  ASSERT_EQ(::truncate(seg_path.c_str(), sealed_size - 30), 0);

  auto recovered = OpenFresh();
  ASSERT_NE(recovered, nullptr);
  EXPECT_LT(recovered->NumRecords(), 5u);
  EXPECT_GE(recovered->NumRecords(), 1u);
  EXPECT_GT(recovered->stats().torn_bytes_truncated, 0u);
  const size_t salvaged = recovered->NumRecords();
  Microblog blog;
  for (MicroblogId id = 1; id <= salvaged; ++id) {
    ASSERT_TRUE(recovered->GetRecord(id, &blog).ok()) << "id " << id;
    EXPECT_EQ(blog.text, "salvage record " + std::to_string(id));
  }
  recovered.reset();

  // The reseal is durable: a second recovery sees a clean, sealed
  // segment with the same salvaged records and nothing torn.
  auto again = OpenFresh();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->NumRecords(), salvaged);
  EXPECT_EQ(again->stats().torn_bytes_truncated, 0u);
}

TEST_F(SegmentStoreTest, HeaderlessSegmentFileIsRemoved) {
  {
    auto store = OpenFresh();
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->WriteBatch({MakeBlog(1, 10, {1})}).ok());
  }
  // A crash during segment creation can leave a file shorter than the
  // header (or with a foreign magic): nothing in it is salvageable.
  const std::string stub_path = dir_ + "/seg-000002.kseg";
  std::FILE* f = std::fopen(stub_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("JUNK", f);
  std::fclose(f);

  auto recovered = OpenFresh();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->NumRecords(), 1u);
  EXPECT_EQ(recovered->NumSegments(), 1u);
  EXPECT_EQ(recovered->stats().torn_bytes_truncated, 4u);
  struct stat st;
  EXPECT_NE(::stat(stub_path.c_str(), &st), 0);  // stub deleted
}

TEST_F(SegmentStoreTest, SequenceResumesPastRecoveredSegments) {
  {
    auto store = OpenFresh();
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->WriteBatch({MakeBlog(1, 10, {1})}).ok());
    ASSERT_TRUE(store->WriteBatch({MakeBlog(2, 20, {1})}).ok());
  }
  auto recovered = OpenFresh();
  ASSERT_NE(recovered, nullptr);
  ASSERT_TRUE(recovered->WriteBatch({MakeBlog(3, 30, {1})}).ok());
  EXPECT_EQ(recovered->NumSegments(), 3u);
  // The new batch landed in seg-000003, not on top of a recovered one.
  EXPECT_GT(FileSize(dir_ + "/seg-000003.kseg"), 0);
  recovered.reset();

  auto final_check = OpenFresh();
  ASSERT_NE(final_check, nullptr);
  EXPECT_EQ(final_check->NumRecords(), 3u);
  EXPECT_EQ(final_check->MaxRecordId(), 3u);
}

TEST_F(SegmentStoreTest, PostingsOrderAndDuplicatesMatchDiskContract) {
  auto store = OpenFresh();
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->AddPostings(1, {{10, 5.0}}).ok());
  ASSERT_TRUE(store->AddPostings(1, {{11, 9.0}}).ok());
  ASSERT_TRUE(store->AddPostings(1, {{12, 7.0}}).ok());
  ASSERT_TRUE(store->AddPostings(1, {{10, 5.0}}).ok());  // duplicate ignored
  EXPECT_EQ(store->NumPostings(), 3u);
  std::vector<Posting> out;
  ASSERT_TRUE(store->QueryTerm(1, 2, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 11u);
  EXPECT_EQ(out[1].id, 12u);
  double max_score = 0;
  ASSERT_TRUE(store->MaxTermScore(1, &max_score));
  EXPECT_EQ(max_score, 9.0);
}

TEST_F(SegmentStoreTest, LargeRecordsRoundTrip) {
  auto store = OpenFresh();
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(
      store->WriteBatch({MakeBlog(1, 1, {}, 1, std::string(64 * 1024, 'q'))})
          .ok());
  Microblog blog;
  ASSERT_TRUE(store->GetRecord(1, &blog).ok());
  EXPECT_EQ(blog.text.size(), 64u * 1024);
  store.reset();

  auto reopened = OpenFresh();
  ASSERT_NE(reopened, nullptr);
  ASSERT_TRUE(reopened->GetRecord(1, &blog).ok());
  EXPECT_EQ(blog.text, std::string(64 * 1024, 'q'));
}

TEST_F(SegmentStoreTest, OpenFailsOnBadPath) {
  // A directory cannot be created beneath a regular file (not even by
  // root), so the open must fail with an error instead of a store.
  const std::string file = dir_ + ".file";
  std::FILE* f = std::fopen(file.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  auto opened = SegmentDiskStore::OpenOrRecover(file + "/segments",
                                                DurabilityLevel::kBatch);
  std::remove(file.c_str());
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status().ToString();
}

TEST_F(SegmentStoreTest, RecoveredStoreAcceptsNewWrites) {
  {
    auto store = OpenFresh();
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->WriteBatch({MakeBlog(1, 10, {1})}).ok());
  }
  auto reopened = OpenFresh();
  ASSERT_NE(reopened, nullptr);
  ASSERT_TRUE(reopened->WriteBatch({MakeBlog(2, 20, {1})}).ok());
  EXPECT_EQ(reopened->NumRecords(), 2u);
  Microblog blog;
  EXPECT_TRUE(reopened->GetRecord(1, &blog).ok());
  EXPECT_TRUE(reopened->GetRecord(2, &blog).ok());
}

TEST_F(SegmentStoreTest, RecoveryDoesNotInflateWriteCounters) {
  {
    auto store = OpenFresh();
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(
        store->WriteBatch({MakeBlog(1, 10, {1}), MakeBlog(2, 20, {1})}).ok());
    EXPECT_EQ(store->stats().records_written, 2u);
  }
  // Repeated open/recover cycles: recovered records are counted as
  // recovered, never re-counted as written.
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto reopened = OpenFresh();
    ASSERT_NE(reopened, nullptr);
    const DiskStats stats = reopened->stats();
    EXPECT_EQ(stats.records_recovered, 2u + cycle);
    EXPECT_EQ(stats.records_written, 0u);
    EXPECT_EQ(stats.record_bytes_written, 0u);
    ASSERT_TRUE(reopened
                    ->WriteBatch({MakeBlog(static_cast<MicroblogId>(3 + cycle),
                                           30, {1})})
                    .ok());
    EXPECT_EQ(reopened->stats().records_written, 1u);
  }
}

}  // namespace
}  // namespace kflush
