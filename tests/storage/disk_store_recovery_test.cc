// Restart recovery of the file-backed disk tier (SegmentDiskStore), seen
// from a caller that only opens a directory and reads it back: a missing
// directory opens empty, the record catalog and (given an extractor +
// score function) the term index are rebuilt, and trailing junk after a
// sealed segment is cut off without losing the records before it.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>

#include "../testing/test_util.h"
#include "model/attribute.h"
#include "storage/segment.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::RemoveTree;

class FileDiskStoreRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::UniqueTempPath("kflush_recovery_test");
    RemoveTree(dir_);
  }
  void TearDown() override { RemoveTree(dir_); }

  Result<std::unique_ptr<SegmentDiskStore>> Open(
      const AttributeExtractor* extractor = nullptr,
      const std::function<double(const Microblog&)>& score_fn = nullptr) {
    return SegmentDiskStore::OpenOrRecover(dir_, DurabilityLevel::kBatch,
                                           extractor, score_fn);
  }

  long FileSize(const std::string& path) {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size)
                                          : -1;
  }

  std::string dir_;
};

TEST_F(FileDiskStoreRecoveryTest, MissingFileOpensEmpty) {
  auto store = Open();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->NumRecords(), 0u);
  EXPECT_EQ((*store)->stats().records_recovered, 0u);
  struct stat st;
  EXPECT_EQ(::stat(dir_.c_str(), &st), 0);  // the directory was created
  EXPECT_TRUE(S_ISDIR(st.st_mode));
}

TEST_F(FileDiskStoreRecoveryTest, RecoversRecordCatalog) {
  {
    auto store = Open();
    ASSERT_TRUE(store.ok());
    std::vector<Microblog> batch;
    for (MicroblogId id = 1; id <= 20; ++id) {
      batch.push_back(MakeBlog(id, id * 10, {static_cast<KeywordId>(id % 3)},
                               id, "record " + std::to_string(id)));
    }
    ASSERT_TRUE((*store)->WriteBatch(std::move(batch)).ok());
  }  // close

  auto reopened = Open();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumRecords(), 20u);
  Microblog blog;
  ASSERT_TRUE((*reopened)->GetRecord(7, &blog).ok());
  EXPECT_EQ(blog.text, "record 7");
  EXPECT_EQ(blog.created_at, 70u);
}

TEST_F(FileDiskStoreRecoveryTest, RebuildsTermIndexWithExtractor) {
  {
    auto store = Open();
    ASSERT_TRUE(store.ok());
    std::vector<Microblog> batch;
    for (MicroblogId id = 1; id <= 10; ++id) {
      batch.push_back(MakeBlog(id, id * 10, {5}));
    }
    batch.push_back(MakeBlog(11, 500, {9}));
    ASSERT_TRUE((*store)->WriteBatch(std::move(batch)).ok());
  }

  KeywordAttribute extractor;
  auto reopened = Open(&extractor, [](const Microblog& blog) {
    return static_cast<double>(blog.created_at);
  });
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  std::vector<Posting> postings;
  ASSERT_TRUE((*reopened)->QueryTerm(5, 100, &postings).ok());
  ASSERT_EQ(postings.size(), 10u);
  EXPECT_EQ(postings[0].id, 10u);  // best score (most recent) first
  postings.clear();
  ASSERT_TRUE((*reopened)->QueryTerm(9, 100, &postings).ok());
  EXPECT_EQ(postings.size(), 1u);
}

TEST_F(FileDiskStoreRecoveryTest, TornTailIsTruncatedNotFatal) {
  {
    auto store = Open();
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->WriteBatch({MakeBlog(1, 10, {1}),
                                      MakeBlog(2, 20, {1})}).ok());
  }
  const std::string seg_path = dir_ + "/seg-000001.kseg";
  const long sealed_size = FileSize(seg_path);
  ASSERT_GT(sealed_size, 0);
  // Junk after the sealing footer: the length prefix promises more bytes
  // than the crash left behind. Recovery must keep the valid records and
  // cut the tail instead of refusing to open.
  std::FILE* f = std::fopen(seg_path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("\x40\x00\x00\x00 trailing garbage", f);
  std::fclose(f);

  auto reopened = Open();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumRecords(), 2u);
  EXPECT_GT((*reopened)->stats().torn_bytes_truncated, 0u);
  Microblog blog;
  EXPECT_TRUE((*reopened)->GetRecord(1, &blog).ok());
  EXPECT_TRUE((*reopened)->GetRecord(2, &blog).ok());
  // New writes land cleanly after the truncated tail.
  ASSERT_TRUE((*reopened)->WriteBatch({MakeBlog(3, 30, {1})}).ok());
  EXPECT_EQ((*reopened)->NumRecords(), 3u);
  (*reopened).reset();

  // Garbage gone: the resealed segment is back to its sealed size.
  EXPECT_EQ(FileSize(seg_path), sealed_size);
  auto again = Open();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->NumRecords(), 3u);
  EXPECT_EQ((*again)->stats().torn_bytes_truncated, 0u);
}

}  // namespace
}  // namespace kflush
