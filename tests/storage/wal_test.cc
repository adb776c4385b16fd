// WriteAheadLog: append/commit/replay round trips, torn-tail truncation,
// durability-level fsync accounting, the auto-commit valve, and Rewrite
// compaction. The WAL is the reason an acked-but-unflushed record
// survives a crash (docs/INTERNALS.md, "Durability").

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <utility>

#include "../testing/test_util.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::RecordsEqual;

using ReplayedEntry = std::pair<Microblog, std::vector<TermId>>;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing_util::UniqueTempPath("kflush_wal_test.log");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<ReplayedEntry> ReplayAll(WriteAheadLog::ReplayResult* result) {
    std::vector<ReplayedEntry> entries;
    Status status = WriteAheadLog::Replay(
        path_,
        [&](Microblog&& blog, std::vector<TermId>&& routed) {
          entries.emplace_back(std::move(blog), std::move(routed));
          return Status::OK();
        },
        result);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return entries;
  }

  long FileSize() {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) return -1;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return size;
  }

  std::string path_;
};

TEST_F(WalTest, MissingFileReplaysEmpty) {
  WriteAheadLog::ReplayResult result;
  EXPECT_TRUE(ReplayAll(&result).empty());
  EXPECT_EQ(result.records_recovered, 0u);
  EXPECT_EQ(result.torn_bytes_truncated, 0u);
}

TEST_F(WalTest, AppendCommitReplayRoundTrip) {
  {
    std::unique_ptr<WriteAheadLog> wal;
    ASSERT_TRUE(WriteAheadLog::Open(path_, DurabilityLevel::kBatch,
                                    256 << 10, &wal)
                    .ok());
    for (MicroblogId id = 1; id <= 10; ++id) {
      Microblog blog = MakeBlog(id, id * 100, {static_cast<KeywordId>(id % 4)},
                                id, "wal entry " + std::to_string(id));
      ASSERT_TRUE(wal->Append(blog, {static_cast<TermId>(id % 4)}).ok());
    }
    ASSERT_TRUE(wal->Commit().ok());
    const WriteAheadLog::Stats stats = wal->stats();
    EXPECT_EQ(stats.records_appended, 10u);
    EXPECT_GT(stats.bytes_appended, 0u);
    EXPECT_GE(stats.commits, 1u);
  }

  WriteAheadLog::ReplayResult result;
  std::vector<ReplayedEntry> entries = ReplayAll(&result);
  ASSERT_EQ(entries.size(), 10u);
  EXPECT_EQ(result.records_recovered, 10u);
  EXPECT_EQ(result.torn_bytes_truncated, 0u);
  for (MicroblogId id = 1; id <= 10; ++id) {
    const ReplayedEntry& entry = entries[id - 1];  // append order preserved
    Microblog expected =
        MakeBlog(id, id * 100, {static_cast<KeywordId>(id % 4)}, id,
                 "wal entry " + std::to_string(id));
    EXPECT_TRUE(RecordsEqual(entry.first, expected)) << "id " << id;
    EXPECT_EQ(entry.second,
              std::vector<TermId>{static_cast<TermId>(id % 4)});
  }
}

TEST_F(WalTest, EmptyRoutedTermsSurviveReplay) {
  // An unsharded store logs no routed terms — recovery re-extracts. The
  // empty set must round-trip as empty, not as a decode error.
  {
    std::unique_ptr<WriteAheadLog> wal;
    ASSERT_TRUE(WriteAheadLog::Open(path_, DurabilityLevel::kBatch,
                                    256 << 10, &wal)
                    .ok());
    ASSERT_TRUE(wal->Append(MakeBlog(1, 10, {7}), {}).ok());
    ASSERT_TRUE(wal->Commit().ok());
  }
  WriteAheadLog::ReplayResult result;
  std::vector<ReplayedEntry> entries = ReplayAll(&result);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].second.empty());
}

TEST_F(WalTest, TornTailIsTruncatedAndAppendable) {
  {
    std::unique_ptr<WriteAheadLog> wal;
    ASSERT_TRUE(WriteAheadLog::Open(path_, DurabilityLevel::kBatch,
                                    256 << 10, &wal)
                    .ok());
    ASSERT_TRUE(wal->Append(MakeBlog(1, 10, {1}), {}).ok());
    ASSERT_TRUE(wal->Append(MakeBlog(2, 20, {2}), {}).ok());
    ASSERT_TRUE(wal->Commit().ok());
  }
  const long valid_size = FileSize();
  ASSERT_GT(valid_size, 0);
  {
    // A partial frame: the crash cut the final append mid-write.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("\x11\x22\x33\x44\x55 torn frame fragment", f);
    std::fclose(f);
  }

  WriteAheadLog::ReplayResult result;
  std::vector<ReplayedEntry> entries = ReplayAll(&result);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(result.records_recovered, 2u);
  EXPECT_GT(result.torn_bytes_truncated, 0u);
  // Replay repaired the file in place: the torn bytes are gone.
  EXPECT_EQ(FileSize(), valid_size);

  // A reopened log appends after the last valid entry.
  {
    std::unique_ptr<WriteAheadLog> wal;
    ASSERT_TRUE(WriteAheadLog::Open(path_, DurabilityLevel::kBatch,
                                    256 << 10, &wal)
                    .ok());
    ASSERT_TRUE(wal->Append(MakeBlog(3, 30, {3}), {}).ok());
    ASSERT_TRUE(wal->Commit().ok());
  }
  WriteAheadLog::ReplayResult again;
  entries = ReplayAll(&again);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(again.torn_bytes_truncated, 0u);
  EXPECT_EQ(entries[2].first.id, 3u);
}

TEST_F(WalTest, CorruptedFrameEndsReplayAtLastValidEntry) {
  {
    std::unique_ptr<WriteAheadLog> wal;
    ASSERT_TRUE(WriteAheadLog::Open(path_, DurabilityLevel::kBatch,
                                    256 << 10, &wal)
                    .ok());
    for (MicroblogId id = 1; id <= 5; ++id) {
      ASSERT_TRUE(wal->Append(MakeBlog(id, id * 10, {1}), {}).ok());
    }
    ASSERT_TRUE(wal->Commit().ok());
  }
  // Flip a byte two-thirds in: the checksum of some middle frame breaks,
  // and everything from that frame on is the torn tail.
  const long size = FileSize();
  ASSERT_GT(size, 0);
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, (size * 2) / 3, SEEK_SET);
    const int original = std::fgetc(f);
    ASSERT_NE(original, EOF);
    std::fseek(f, (size * 2) / 3, SEEK_SET);
    std::fputc(original ^ 0xFF, f);
    std::fclose(f);
  }
  WriteAheadLog::ReplayResult result;
  std::vector<ReplayedEntry> entries = ReplayAll(&result);
  EXPECT_LT(entries.size(), 5u);
  EXPECT_GT(result.torn_bytes_truncated, 0u);
  // The surviving prefix is intact and in order.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].first.id, static_cast<MicroblogId>(i + 1));
  }
}

TEST_F(WalTest, EveryCommitLevelSyncsEachAppend) {
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(WriteAheadLog::Open(path_, DurabilityLevel::kEveryCommit,
                                  256 << 10, &wal)
                  .ok());
  for (MicroblogId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(wal->Append(MakeBlog(id, id * 10, {1}), {}).ok());
  }
  const WriteAheadLog::Stats stats = wal->stats();
  EXPECT_GE(stats.commits, 3u);
  EXPECT_GE(stats.fsyncs, 3u);
  EXPECT_EQ(stats.fsync_micros.count(), stats.fsyncs);
}

TEST_F(WalTest, NoneLevelNeverSyncs) {
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(
      WriteAheadLog::Open(path_, DurabilityLevel::kNone, 256 << 10, &wal)
          .ok());
  for (MicroblogId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(wal->Append(MakeBlog(id, id * 10, {1}), {}).ok());
  }
  ASSERT_TRUE(wal->Commit().ok());
  EXPECT_EQ(wal->stats().fsyncs, 0u);
}

TEST_F(WalTest, AutoCommitValveBoundsUnsyncedWindow) {
  // A tiny valve: every append exceeds it, so each append group-commits
  // without anyone calling Commit().
  std::unique_ptr<WriteAheadLog> wal;
  ASSERT_TRUE(
      WriteAheadLog::Open(path_, DurabilityLevel::kBatch, 16, &wal).ok());
  for (MicroblogId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(wal->Append(MakeBlog(id, id * 10, {1}), {}).ok());
  }
  EXPECT_GE(wal->stats().commits, 4u);
  EXPECT_GE(wal->stats().fsyncs, 4u);
}

TEST_F(WalTest, RewriteCompactsToGivenEntries) {
  {
    std::unique_ptr<WriteAheadLog> wal;
    ASSERT_TRUE(WriteAheadLog::Open(path_, DurabilityLevel::kBatch,
                                    256 << 10, &wal)
                    .ok());
    for (MicroblogId id = 1; id <= 20; ++id) {
      ASSERT_TRUE(wal->Append(MakeBlog(id, id * 10, {1}), {}).ok());
    }
    ASSERT_TRUE(wal->Commit().ok());
  }
  // Compaction keeps only the two still-memory-resident entries.
  std::vector<std::pair<Microblog, std::vector<TermId>>> keep;
  keep.emplace_back(MakeBlog(19, 190, {1}), std::vector<TermId>{});
  keep.emplace_back(MakeBlog(20, 200, {1}), std::vector<TermId>{42});
  ASSERT_TRUE(
      WriteAheadLog::Rewrite(path_, DurabilityLevel::kBatch, keep).ok());

  WriteAheadLog::ReplayResult result;
  std::vector<ReplayedEntry> entries = ReplayAll(&result);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first.id, 19u);
  EXPECT_EQ(entries[1].first.id, 20u);
  EXPECT_EQ(entries[1].second, std::vector<TermId>{42});
  // No stray temp file left behind.
  std::FILE* tmp = std::fopen((path_ + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

}  // namespace
}  // namespace kflush
