// Unit tests for the sharded deployment facade (core/sharded_store.h) and
// the threaded sharded system (core/sharded_system.h): routing and record
// duplication, central id/timestamp stamping, budget splitting, SetK
// propagation, cross-shard aggregation, and the query fan-out surfaces.
// The heavyweight "same answers at any shard count" property lives in
// tests/integration/shard_oracle_test.cc; these tests pin the mechanics.

#include "core/sharded_store.h"

#include <algorithm>
#include <set>
#include <vector>

#include "core/sharded_system.h"
#include "gtest/gtest.h"
#include "index/posting_list.h"
#include "storage/raw_store.h"
#include "testing/test_util.h"
#include "util/clock.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::RecordsEqual;
using testing_util::SmallStoreOptions;

ShardedStoreOptions SmallShardedOptions(size_t num_shards,
                                        PolicyKind policy = PolicyKind::kFifo,
                                        size_t total_budget = 512 * 1024) {
  ShardedStoreOptions opts;
  opts.store = SmallStoreOptions(policy, total_budget);
  opts.num_shards = num_shards;
  return opts;
}

TEST(ShardedStore, SplitsBudgetAndLabelsShards) {
  ShardedMicroblogStore store(SmallShardedOptions(4, PolicyKind::kFifo,
                                                  512 * 1024));
  ASSERT_EQ(store.num_shards(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(store.shard(i)->options().memory_budget_bytes, 128u * 1024u);
    EXPECT_EQ(store.shard(i)->options().shard_id, static_cast<int>(i));
  }
}

TEST(ShardedStore, RoutesSingleTermRecordToOwnerOnly) {
  ShardedMicroblogStore store(SmallShardedOptions(4));
  const KeywordId kw = 7;
  const size_t owner = store.router().ShardForTerm(kw);
  ASSERT_TRUE(store.Insert(MakeBlog(kInvalidMicroblogId, 0, {kw})).ok());

  const ShardedIngestStats stats = store.sharded_ingest_stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.routed_copies, 1u);
  EXPECT_EQ(stats.skipped_no_terms, 0u);
  for (size_t i = 0; i < store.num_shards(); ++i) {
    EXPECT_EQ(store.shard(i)->ingest_stats().inserted, i == owner ? 1u : 0u)
        << "shard " << i;
  }
}

TEST(ShardedStore, DuplicatesMultiTermRecordAcrossOwners) {
  // Keywords 0 and 1 route to different shards at N=4 (golden: 3 and 1).
  ShardedMicroblogStore store(SmallShardedOptions(4));
  const size_t owner0 = store.router().ShardForTerm(0);
  const size_t owner1 = store.router().ShardForTerm(1);
  ASSERT_NE(owner0, owner1);

  ASSERT_TRUE(store.Insert(MakeBlog(kInvalidMicroblogId, 0, {0, 1})).ok());
  EXPECT_EQ(store.sharded_ingest_stats().routed_copies, 2u);
  EXPECT_EQ(store.shard(owner0)->ingest_stats().inserted, 1u);
  EXPECT_EQ(store.shard(owner1)->ingest_stats().inserted, 1u);

  // Each shard indexes only its owned term: the record is findable under
  // keyword 0 only through shard owner0, under keyword 1 only through
  // owner1 (each queried on its own, as a one-store engine).
  QueryEngine on_owner0(store.shard(owner0));
  QueryEngine on_owner1(store.shard(owner1));
  auto r0 = on_owner0.Execute({{0}, QueryType::kSingle, 5});
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0.value().results.size(), 1u);
  auto r0_miss = on_owner1.Execute({{0}, QueryType::kSingle, 5});
  ASSERT_TRUE(r0_miss.ok());
  EXPECT_TRUE(r0_miss.value().results.empty());

  // The two copies are byte-identical (central stamping).
  auto r1 = on_owner1.Execute({{1}, QueryType::kSingle, 5});
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1.value().results.size(), 1u);
  EXPECT_TRUE(RecordsEqual(r0.value().results[0], r1.value().results[0]));
}

TEST(ShardedStore, StampsIdsCentrallyAndMonotonically) {
  ShardedMicroblogStore store(SmallShardedOptions(4));
  std::vector<MicroblogId> ids;
  for (KeywordId kw = 0; kw < 10; ++kw) {
    ASSERT_TRUE(store.Insert(MakeBlog(kInvalidMicroblogId, 0, {kw})).ok());
  }
  // Collect every record back through per-shard single-term queries.
  for (KeywordId kw = 0; kw < 10; ++kw) {
    QueryEngine on_owner(store.shard(store.router().ShardForTerm(kw)));
    auto r = on_owner.Execute({{kw}, QueryType::kSingle, 5});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().results.size(), 1u);
    ids.push_back(r.value().results[0].id);
    EXPECT_GT(r.value().results[0].created_at, 0u);
  }
  std::sort(ids.begin(), ids.end());
  // Ids are 1..10: assigned centrally in arrival order, no per-shard gaps.
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<MicroblogId>(i + 1));
  }
}

TEST(ShardedStore, CountsTermlessRecordsCentrally) {
  ShardedMicroblogStore store(SmallShardedOptions(2));
  ASSERT_TRUE(store.Insert(MakeBlog(kInvalidMicroblogId, 0, {})).ok());
  const ShardedIngestStats stats = store.sharded_ingest_stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.routed_copies, 0u);
  EXPECT_EQ(stats.skipped_no_terms, 1u);
  EXPECT_EQ(store.AggregatedIngestStats().skipped_no_terms, 1u);
  for (size_t i = 0; i < store.num_shards(); ++i) {
    EXPECT_EQ(store.shard(i)->ingest_stats().inserted, 0u);
  }
}

TEST(ShardedStore, SetKPropagatesToEveryShard) {
  ShardedMicroblogStore store(SmallShardedOptions(4));
  EXPECT_EQ(store.k(), 5u);
  store.SetK(17);
  EXPECT_EQ(store.k(), 17u);
  for (size_t i = 0; i < store.num_shards(); ++i) {
    EXPECT_EQ(store.shard(i)->k(), 17u);
  }
}

TEST(ShardedStore, AggregatesAcrossShards) {
  ShardedMicroblogStore store(SmallShardedOptions(4));
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        store.Insert(
                 MakeBlog(kInvalidMicroblogId, 0,
                          {static_cast<KeywordId>(i % 23)}))
            .ok());
  }
  const IngestStats agg = store.AggregatedIngestStats();
  EXPECT_EQ(agg.inserted, store.sharded_ingest_stats().routed_copies);

  // Every distinct keyword appears on exactly one shard; the aggregate
  // term count is the number of distinct keywords.
  EXPECT_EQ(store.NumTerms(), 23u);
  size_t per_shard_sum = 0;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    per_shard_sum += store.shard(i)->policy()->NumTerms();
  }
  EXPECT_EQ(per_shard_sum, 23u);

  EXPECT_GT(store.DataUsed(), 0u);
  std::vector<size_t> sizes;
  store.CollectEntrySizes(&sizes);
  EXPECT_EQ(sizes.size(), 23u);
}

TEST(ShardedStore, AggregatedMetricsCarriesPerShardSeries) {
  ShardedMicroblogStore store(SmallShardedOptions(2));
  ASSERT_TRUE(store.Insert(MakeBlog(kInvalidMicroblogId, 0, {1})).ok());

  const MetricsSnapshot flat = store.AggregatedMetrics();
  const MetricsSnapshot with_shards =
      store.AggregatedMetrics(/*include_per_shard=*/true);
  // The aggregate-only snapshot has no shard-prefixed series; the
  // per-shard one adds "shard<i>."-prefixed copies on top.
  bool flat_has_prefixed = false;
  for (const auto& [name, value] : flat.counters) {
    if (name.rfind("shard", 0) == 0) flat_has_prefixed = true;
  }
  EXPECT_FALSE(flat_has_prefixed);
  bool shard0_seen = false, shard1_seen = false;
  for (const auto& [name, value] : with_shards.counters) {
    if (name.rfind("shard0.", 0) == 0) shard0_seen = true;
    if (name.rfind("shard1.", 0) == 0) shard1_seen = true;
  }
  EXPECT_TRUE(shard0_seen);
  EXPECT_TRUE(shard1_seen);
  EXPECT_GT(with_shards.counters.size(), flat.counters.size());
}

TEST(ShardedStore, FlushAllOnceFreesOverBudgetShards) {
  // Tiny budget so a modest stream overruns it; auto_flush stays off (the
  // SmallStoreOptions default) and FlushAllOnce drives the cycles.
  ShardedMicroblogStore store(
      SmallShardedOptions(2, PolicyKind::kFifo, 32 * 1024));
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        store.Insert(
                 MakeBlog(kInvalidMicroblogId, 0,
                          {static_cast<KeywordId>(i % 11)}))
            .ok());
  }
  bool any_full = false;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    any_full = any_full || store.shard(i)->MemoryFull();
  }
  ASSERT_TRUE(any_full);
  EXPECT_GT(store.FlushAllOnce(), 0u);
  EXPECT_GT(store.AggregatedPolicyStats().flush_cycles, 0u);
}

TEST(ShardedStore, FanoutQueriesMatchSingleShardReference) {
  // A miniature differential check (the full oracle streams generators):
  // identical explicit records into N=1 and N=3, compare single / OR /
  // AND answers field-wise.
  ShardedMicroblogStore one(SmallShardedOptions(1));
  ShardedMicroblogStore three(SmallShardedOptions(3));
  for (size_t i = 0; i < 60; ++i) {
    const KeywordId a = static_cast<KeywordId>(i % 7);
    const KeywordId b = static_cast<KeywordId>(7 + (i % 5));
    Microblog blog = MakeBlog(kInvalidMicroblogId, 1000 + i, {a, b},
                              /*user=*/1 + (i % 3));
    ASSERT_TRUE(one.Insert(blog).ok());
    ASSERT_TRUE(three.Insert(std::move(blog)).ok());
  }
  const std::vector<TopKQuery> queries = {
      {{3}, QueryType::kSingle, 5},
      {{0, 9}, QueryType::kOr, 5},
      {{2, 8}, QueryType::kAnd, 5},
      {{1, 4, 10}, QueryType::kOr, 8},
  };
  for (const TopKQuery& query : queries) {
    auto r1 = one.engine()->Execute(query);
    auto rn = three.engine()->Execute(query);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(rn.ok());
    ASSERT_EQ(r1.value().results.size(), rn.value().results.size());
    for (size_t i = 0; i < r1.value().results.size(); ++i) {
      EXPECT_TRUE(
          RecordsEqual(r1.value().results[i], rn.value().results[i]))
          << "query term0=" << query.terms[0] << " position " << i;
    }
  }
}

TEST(ShardedStore, MultiOwnerOrMaterializesOnlyItsAnswer) {
  // Two shards, LRU, k = 2. Term A (owned by shard 0) holds four records
  // whose top 2 are its first two inserts; term B (owned by shard 1)
  // holds two newer records, so OR(A, B) is B's two. Only the answer is
  // materialized: it counts two records, and A's records are not
  // touched as if a user had been shown them.
  ShardedStoreOptions options = SmallShardedOptions(2, PolicyKind::kLru);
  options.store.k = 2;
  ShardedMicroblogStore store(options);
  KeywordId a = 0;
  KeywordId b = 0;
  while (store.router().ShardForTerm(a) != 0) ++a;
  while (store.router().ShardForTerm(b) != 1) ++b;
  // Temporal scores: A's records rank 1 > 2 > 3 > 4, B's 6 > 5 above all.
  const Timestamp created_at[] = {40, 39, 20, 19, 50, 60};
  std::vector<Microblog> blogs;
  for (MicroblogId id = 1; id <= 6; ++id) {
    blogs.push_back(MakeBlog(id, created_at[id - 1], {id <= 4 ? a : b}));
    ASSERT_TRUE(store.Insert(blogs.back()).ok());
  }

  auto r = store.engine()->Execute({{a, b}, QueryType::kOr, 2});
  ASSERT_TRUE(r.ok());
  std::vector<MicroblogId> ids;
  for (const Microblog& blog : r->results) ids.push_back(blog.id);
  EXPECT_EQ(ids, (std::vector<MicroblogId>{6, 5}));
  EXPECT_EQ(r->from_memory + r->from_disk, 2u);

  // Nothing touched A's records, so a flush of two records' worth on
  // shard 0 evicts its two coldest: the first two inserts.
  MicroblogStore* owner_a = store.shard(0);
  owner_a->policy()->Flush(2 * (RawDataStore::RecordBytes(blogs[0]) +
                                PostingList::kBytesPerPosting));
  for (MicroblogId id : {1, 2}) {
    EXPECT_FALSE(owner_a->raw_store()->Contains(id)) << "record " << id;
  }
  for (MicroblogId id : {3, 4}) {
    EXPECT_TRUE(owner_a->raw_store()->Contains(id)) << "record " << id;
  }
}

TEST(ShardedSystem, SubmitsRoutesAndDigests) {
  ShardedSystemOptions options;
  options.system.store = SmallStoreOptions(PolicyKind::kFifo, 512 * 1024);
  options.num_shards = 4;
  ShardedMicroblogSystem system(options);
  system.Start();

  std::vector<Microblog> batch;
  for (size_t i = 0; i < 100; ++i) {
    batch.push_back(MakeBlog(kInvalidMicroblogId, 0,
                             {static_cast<KeywordId>(i % 13),
                              static_cast<KeywordId>(13 + i % 3)}));
  }
  ASSERT_TRUE(system.Submit(std::move(batch)));
  system.Stop();  // drains queues and joins threads

  EXPECT_EQ(system.accepted(), 100u);
  EXPECT_GE(system.routed_copies(), 100u);
  EXPECT_EQ(system.digested(), system.routed_copies());
  EXPECT_EQ(system.skipped_no_terms(), 0u);

  // Post-stop queries serve from the shard stores.
  auto r = system.Query({{5}, QueryType::kSingle, 10});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().results.empty());

  // Stop is idempotent; Submit after stop is rejected.
  system.Stop();
  EXPECT_FALSE(system.Submit({MakeBlog(kInvalidMicroblogId, 0, {1})}));
}

TEST(ShardedSystem, SetKAppliesToEveryShard) {
  ShardedSystemOptions options;
  options.system.store = SmallStoreOptions(PolicyKind::kKFlushing);
  options.num_shards = 2;
  ShardedMicroblogSystem system(options);
  system.store()->SetK(9);
  for (size_t i = 0; i < system.num_shards(); ++i) {
    EXPECT_EQ(system.shard_store(i)->k(), 9u);
  }
}

}  // namespace
}  // namespace kflush
