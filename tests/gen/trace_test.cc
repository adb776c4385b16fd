#include "gen/trace.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "../testing/test_util.h"
#include "gen/tweet_generator.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing_util::UniqueTempPath("kflush_trace_test.trace");
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(TraceTest, SaveLoadRoundTrip) {
  std::vector<Microblog> blogs;
  for (MicroblogId id = 1; id <= 100; ++id) {
    blogs.push_back(MakeBlog(id, id * 10, {static_cast<KeywordId>(id % 7)},
                             id % 5, "trace record " + std::to_string(id)));
  }
  ASSERT_TRUE(SaveTrace(path_, blogs).ok());
  auto loaded = LoadTrace(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), blogs.size());
  for (size_t i = 0; i < blogs.size(); ++i) {
    EXPECT_EQ((*loaded)[i].id, blogs[i].id);
    EXPECT_EQ((*loaded)[i].text, blogs[i].text);
    EXPECT_EQ((*loaded)[i].keywords, blogs[i].keywords);
  }
}

TEST_F(TraceTest, EmptyTrace) {
  ASSERT_TRUE(SaveTrace(path_, {}).ok());
  auto loaded = LoadTrace(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(TraceTest, StreamingWriterReader) {
  auto writer = TraceWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  TweetGeneratorOptions opts;
  opts.seed = 55;
  TweetGenerator gen(opts);
  std::vector<Microblog> originals;
  for (int i = 0; i < 5000; ++i) {
    Microblog blog = gen.Next();
    blog.id = static_cast<MicroblogId>(i + 1);
    ASSERT_TRUE((*writer)->Append(blog).ok());
    originals.push_back(std::move(blog));
  }
  ASSERT_TRUE((*writer)->Flush().ok());
  EXPECT_EQ((*writer)->written(), 5000u);
  writer->reset();

  auto reader = TraceReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  Microblog blog;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*reader)->Next(&blog).ok()) << i;
    ASSERT_EQ(blog.id, originals[i].id);
    ASSERT_EQ(blog.created_at, originals[i].created_at);
    ASSERT_EQ(blog.keywords, originals[i].keywords);
  }
  EXPECT_TRUE((*reader)->Next(&blog).IsNotFound());
  EXPECT_TRUE((*reader)->Next(&blog).IsNotFound());  // stable at EOF
}

TEST_F(TraceTest, RejectsNonTraceFile) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a trace file at all", f);
  std::fclose(f);
  auto reader = TraceReader::Open(path_);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST_F(TraceTest, OpenMissingFileFails) {
  auto reader = TraceReader::Open("/nonexistent/path.trace");
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsIOError());
}

}  // namespace
}  // namespace kflush
