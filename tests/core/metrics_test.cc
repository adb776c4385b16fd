// QueryMetricsFromRegistry: the hit-ratio view derived from a registry's
// query.* series.

#include "core/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace kflush {
namespace {

// Records one query's outcome the way QueryEngine does.
void RecordQuery(MetricsRegistry* registry, QueryType type, bool hit,
                 uint64_t disk_term_reads) {
  registry->histogram(QueryLatencySeries(type, hit))->Record(10);
  registry->counter("query.disk_term_reads")->Add(disk_term_reads);
}

TEST(QueryMetricsTest, EmptySnapshot) {
  const QueryMetricsSnapshot snap = QueryMetricsFromRegistry({});
  EXPECT_EQ(snap.queries, 0u);
  EXPECT_DOUBLE_EQ(snap.HitRatio(), 0.0);
  EXPECT_DOUBLE_EQ(snap.HitRatioFor(QueryType::kAnd), 0.0);
}

TEST(QueryMetricsTest, RecordsByType) {
  MetricsRegistry registry;
  RecordQuery(&registry, QueryType::kSingle, true, 0);
  RecordQuery(&registry, QueryType::kSingle, false, 1);
  RecordQuery(&registry, QueryType::kAnd, true, 0);
  RecordQuery(&registry, QueryType::kOr, false, 2);
  const QueryMetricsSnapshot snap =
      QueryMetricsFromRegistry(registry.Snapshot());
  EXPECT_EQ(snap.queries, 4u);
  EXPECT_EQ(snap.memory_hits, 2u);
  EXPECT_EQ(snap.memory_misses, 2u);
  EXPECT_EQ(snap.disk_term_reads, 3u);
  EXPECT_DOUBLE_EQ(snap.HitRatio(), 0.5);
  EXPECT_DOUBLE_EQ(snap.HitRatioFor(QueryType::kSingle), 0.5);
  EXPECT_DOUBLE_EQ(snap.HitRatioFor(QueryType::kAnd), 1.0);
  EXPECT_DOUBLE_EQ(snap.HitRatioFor(QueryType::kOr), 0.0);
}

TEST(QueryMetricsTest, ResetClears) {
  MetricsRegistry registry;
  RecordQuery(&registry, QueryType::kSingle, true, 0);
  registry.Reset();
  EXPECT_EQ(QueryMetricsFromRegistry(registry.Snapshot()).queries, 0u);
}

TEST(QueryMetricsTest, IntervalCountsOnlyQueriesBetweenSnapshots) {
  MetricsRegistry registry;
  RecordQuery(&registry, QueryType::kSingle, true, 4);
  const MetricsSnapshot before = registry.Snapshot();
  RecordQuery(&registry, QueryType::kOr, false, 2);
  const QueryMetricsSnapshot snap =
      QueryMetricsFromRegistry(registry.Snapshot(), before);
  EXPECT_EQ(snap.queries, 1u);
  EXPECT_EQ(snap.memory_hits, 0u);
  EXPECT_EQ(snap.queries_by_type[static_cast<int>(QueryType::kOr)], 1u);
  EXPECT_EQ(snap.disk_term_reads, 2u);
}

TEST(QueryMetricsTest, ConcurrentRecording) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kEach = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kEach; ++i) {
        RecordQuery(&registry, QueryType::kSingle, i % 2 == 0, 0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const QueryMetricsSnapshot snap =
      QueryMetricsFromRegistry(registry.Snapshot());
  EXPECT_EQ(snap.queries, static_cast<uint64_t>(kThreads) * kEach);
  EXPECT_EQ(snap.memory_hits, snap.memory_misses);
}

TEST(QueryMetricsTest, ToStringHasRates) {
  MetricsRegistry registry;
  RecordQuery(&registry, QueryType::kSingle, true, 0);
  const std::string s =
      QueryMetricsFromRegistry(registry.Snapshot()).ToString();
  EXPECT_NE(s.find("queries=1"), std::string::npos);
  EXPECT_NE(s.find("hit_ratio="), std::string::npos);
}

TEST(QueryTypeNameTest, Names) {
  EXPECT_STREQ(QueryTypeName(QueryType::kSingle), "single");
  EXPECT_STREQ(QueryTypeName(QueryType::kAnd), "AND");
  EXPECT_STREQ(QueryTypeName(QueryType::kOr), "OR");
}

}  // namespace
}  // namespace kflush
