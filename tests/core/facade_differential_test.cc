// Facade differential test: the two ways to drive the deployment must
// store the same thing. One seeded stream, with term-less records mixed
// in, goes
//
//   A. inline, record by record, through ShardedMicroblogStore::Insert
//      (per-shard auto-flush), and
//   B. threaded, in batches, through ShardedMicroblogSystem::Submit, then
//      Stop() (per-shard digestion and flusher threads),
//
// at 1 shard and at TestShardCount() (KFLUSH_TEST_SHARDS), for every
// policy. The ingest counters must agree, and so must the answers to a
// few hundred single, AND and OR queries, field for field. The two runs
// flush at different moments and so differ in how many cycles they run,
// but every answer is the exact top-k: only a stamping or routing
// difference between the entry points can make the answers differ.

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "core/sharded_store.h"
#include "core/sharded_system.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"
#include "util/clock.h"

namespace kflush {
namespace {

using testing_util::RecordsEqual;
using testing_util::TestShardCount;

constexpr size_t kTweets = 6000;
constexpr size_t kBatch = 100;
constexpr size_t kTermlessEvery = 17;
constexpr size_t kQueries = 300;

TweetGeneratorOptions Stream() {
  TweetGeneratorOptions stream;
  stream.seed = 1606;
  stream.vocabulary_size = 2000;
  stream.num_users = 800;
  return stream;
}

StoreOptions Options(PolicyKind policy, Clock* clock) {
  StoreOptions so;
  so.memory_budget_bytes = 256 * 1024;
  so.flush_fraction = 0.2;
  so.k = 10;
  so.policy = policy;
  so.auto_flush = true;
  so.clock = clock;
  return so;
}

/// The shared stream: every kTermlessEvery-th record loses its keywords.
std::vector<Microblog> MakeStream() {
  TweetGenerator tweets(Stream());
  std::vector<Microblog> stream;
  tweets.FillBatch(kTweets, &stream);
  for (size_t i = 0; i < stream.size(); i += kTermlessEvery) {
    stream[i].keywords.clear();
  }
  return stream;
}

void ExpectSameDeployment(PolicyKind policy, size_t shards) {
  const std::string label = std::string(PolicyKindName(policy)) + " at " +
                            std::to_string(shards) + " shard(s)";
  const std::vector<Microblog> stream = MakeStream();

  SimClock inline_clock(Stream().start_time);
  ShardedMicroblogStore store(
      ShardedStoreOptions{Options(policy, &inline_clock), shards});
  for (const Microblog& blog : stream) {
    inline_clock.Set(blog.created_at);
    ASSERT_TRUE(store.Insert(blog).ok()) << label;
  }

  SimClock threaded_clock(Stream().start_time);
  ShardedSystemOptions options;
  options.system.store = Options(policy, &threaded_clock);
  options.num_shards = shards;
  ShardedMicroblogSystem system(options);
  system.Start();
  for (size_t i = 0; i < stream.size(); i += kBatch) {
    std::vector<Microblog> batch(
        stream.begin() + i,
        stream.begin() + std::min(i + kBatch, stream.size()));
    threaded_clock.Set(batch.back().created_at);
    ASSERT_TRUE(system.Submit(std::move(batch))) << label;
  }
  system.Stop();

  const ShardedIngestStats inline_stats = store.sharded_ingest_stats();
  EXPECT_EQ(system.accepted(), inline_stats.submitted) << label;
  EXPECT_EQ(system.routed_copies(), inline_stats.routed_copies) << label;
  EXPECT_EQ(system.skipped_no_terms(), inline_stats.skipped_no_terms)
      << label;
  EXPECT_EQ(inline_stats.skipped_no_terms,
            (kTweets + kTermlessEvery - 1) / kTermlessEvery)
      << label;
  EXPECT_EQ(system.digested(), system.routed_copies()) << label;
  // Both runs flushed, so the answers below mix memory and disk.
  EXPECT_GT(store.AggregatedPolicyStats().flush_cycles, 0u) << label;
  EXPECT_GT(system.store()->AggregatedPolicyStats().flush_cycles, 0u)
      << label;

  QueryWorkloadOptions workload;
  workload.seed = 99;
  QueryGenerator queries(workload, Stream());
  size_t per_type[3] = {0, 0, 0};
  for (size_t q = 0; q < kQueries; ++q) {
    const TopKQuery query = queries.Next();
    ++per_type[static_cast<int>(query.type)];
    auto a = store.engine()->Execute(query);
    auto b = system.Query(query);
    ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
    ASSERT_EQ(a->results.size(), b->results.size())
        << label << ", query " << q << " (" << QueryTypeName(query.type)
        << ")";
    for (size_t i = 0; i < a->results.size(); ++i) {
      ASSERT_TRUE(RecordsEqual(a->results[i], b->results[i]))
          << label << ", query " << q << " (" << QueryTypeName(query.type)
          << ") position " << i << ": id " << a->results[i].id << " vs "
          << b->results[i].id;
    }
  }
  for (size_t count : per_type) EXPECT_GT(count, 0u) << label;
}

class FacadeDifferentialTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(FacadeDifferentialTest, InlineInsertAndThreadedSubmitAgree) {
  ExpectSameDeployment(GetParam(), 1);
  if (::testing::Test::HasFatalFailure()) return;
  if (TestShardCount() != 1) {
    ExpectSameDeployment(GetParam(), TestShardCount());
  }
}

std::string PolicyName(const ::testing::TestParamInfo<PolicyKind>& info) {
  std::string clean;
  for (char c : std::string(PolicyKindName(info.param))) {
    if (std::isalnum(static_cast<unsigned char>(c))) clean.push_back(c);
  }
  return clean;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FacadeDifferentialTest,
                         ::testing::ValuesIn(testing_util::AllPolicies()),
                         PolicyName);

}  // namespace
}  // namespace kflush
