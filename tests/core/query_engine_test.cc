#include "core/query_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <thread>

#include "../testing/test_util.h"
#include "storage/sim_disk_store.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::SmallStoreOptions;

constexpr uint32_t kK = 5;

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest()
      : store_(SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, kK)),
        engine_(&store_) {}

  void Ingest(MicroblogId id, Timestamp ts, std::vector<KeywordId> kws) {
    ASSERT_TRUE(store_.Insert(MakeBlog(id, ts, std::move(kws))).ok());
  }

  TopKQuery Single(TermId term) {
    TopKQuery q;
    q.terms = {term};
    q.type = QueryType::kSingle;
    return q;
  }

  TopKQuery Multi(QueryType type, TermId a, TermId b) {
    TopKQuery q;
    q.terms = {a, b};
    q.type = type;
    return q;
  }

  /// Every query the engine recorded in the store's registry.
  QueryMetricsSnapshot Recorded() {
    return QueryMetricsFromRegistry(store_.metrics_registry()->Snapshot());
  }

  uint64_t UnprovenHits() {
    return store_.metrics_registry()->Snapshot().counter_or(
        "query.unproven_hits");
  }

  uint64_t AndRecordReads() {
    return store_.metrics_registry()->Snapshot().counter_or(
        "query.and_record_reads");
  }

  /// Registers a record on the disk tier only, under `kws`, as if it had
  /// been flushed (or recovered) there while older records stayed in
  /// memory — a disk posting that outranks memory postings.
  void IngestOnDisk(MicroblogId id, Timestamp ts, std::vector<KeywordId> kws) {
    const Microblog blog = MakeBlog(id, ts, kws);
    const double score = store_.ranking()->Score(blog);
    for (KeywordId kw : kws) {
      ASSERT_TRUE(store_.disk()->AddPostings(kw, {{id, score}}).ok());
    }
    ASSERT_TRUE(store_.disk()->WriteBatch({blog}).ok());
  }

  static std::vector<MicroblogId> Ids(const QueryResult& result) {
    std::vector<MicroblogId> ids;
    for (const Microblog& blog : result.results) ids.push_back(blog.id);
    return ids;
  }

  MicroblogStore store_;
  QueryEngine engine_;
};

TEST_F(QueryEngineTest, SingleHitWhenKInMemory) {
  for (MicroblogId id = 1; id <= 8; ++id) Ingest(id, id * 10, {1});
  auto result = engine_.Execute(Single(1));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);
  ASSERT_EQ(result->results.size(), kK);
  EXPECT_EQ(result->results[0].id, 8u);  // most recent first
  EXPECT_EQ(result->results[4].id, 4u);
  EXPECT_EQ(result->from_memory, kK);
  EXPECT_EQ(result->from_disk, 0u);
}

TEST_F(QueryEngineTest, SingleMissWhenUnderK) {
  for (MicroblogId id = 1; id <= 3; ++id) Ingest(id, id * 10, {1});
  auto result = engine_.Execute(Single(1));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->memory_hit);
  EXPECT_EQ(result->results.size(), 3u);  // disk has nothing more
}

TEST_F(QueryEngineTest, SingleMissCompletesFromDisk) {
  // Fill keyword 1 beyond k, flush so the tail moves to disk, then
  // shrink the memory side by querying a different k.
  for (MicroblogId id = 1; id <= 12; ++id) Ingest(id, id * 10, {1});
  store_.FlushOnce();  // trims to k=5 in memory, 7 postings on disk
  TopKQuery q = Single(1);
  q.k = 10;  // ask for more than memory holds
  auto result = engine_.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->memory_hit);
  ASSERT_EQ(result->results.size(), 10u);
  // Merged answer is the true top-10 by recency: ids 12..3 in order.
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(result->results[i].id, 12 - i);
  }
  EXPECT_GT(result->from_disk, 0u);
}

TEST_F(QueryEngineTest, UnknownTermIsMissWithEmptyAnswer) {
  auto result = engine_.Execute(Single(404));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->memory_hit);
  EXPECT_TRUE(result->results.empty());
}

TEST_F(QueryEngineTest, OrHitRequiresAllTermsKFilled) {
  for (MicroblogId id = 1; id <= 6; ++id) Ingest(id, id * 10, {1});
  for (MicroblogId id = 11; id <= 16; ++id) Ingest(id, id * 10, {2});
  auto hit = engine_.Execute(Multi(QueryType::kOr, 1, 2));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->memory_hit);
  ASSERT_EQ(hit->results.size(), kK);
  // Union top-5 by recency: ids 16..12.
  EXPECT_EQ(hit->results[0].id, 16u);
  EXPECT_EQ(hit->results[4].id, 12u);

  // One under-k term makes it a miss.
  Ingest(100, 5, {3});
  auto miss = engine_.Execute(Multi(QueryType::kOr, 1, 3));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->memory_hit);
  EXPECT_EQ(miss->results.size(), kK);  // still answerable
}

TEST_F(QueryEngineTest, OrDeduplicatesSharedRecords) {
  for (MicroblogId id = 1; id <= 6; ++id) Ingest(id, id * 10, {1, 2});
  auto result = engine_.Execute(Multi(QueryType::kOr, 1, 2));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), kK);
  std::set<MicroblogId> distinct;
  for (const auto& blog : result->results) distinct.insert(blog.id);
  EXPECT_EQ(distinct.size(), kK);
}

TEST_F(QueryEngineTest, AndHitOnSharedRecords) {
  for (MicroblogId id = 1; id <= 6; ++id) Ingest(id, id * 10, {1, 2});
  Ingest(100, 5, {1});  // in 1 only
  auto result = engine_.Execute(Multi(QueryType::kAnd, 1, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);
  ASSERT_EQ(result->results.size(), kK);
  for (const auto& blog : result->results) {
    EXPECT_NE(blog.id, 100u);
    EXPECT_EQ(blog.keywords, (std::vector<KeywordId>{1, 2}));
  }
}

TEST_F(QueryEngineTest, AndMissWhenIntersectionThin) {
  for (MicroblogId id = 1; id <= 6; ++id) Ingest(id, id * 10, {1});
  for (MicroblogId id = 11; id <= 16; ++id) Ingest(id, id * 10, {2});
  Ingest(100, 500, {1, 2});  // only shared record
  auto result = engine_.Execute(Multi(QueryType::kAnd, 1, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->memory_hit);
  ASSERT_EQ(result->results.size(), 1u);
  EXPECT_EQ(result->results[0].id, 100u);
}

TEST_F(QueryEngineTest, AndMissMergesDiskSide) {
  // Shared records pushed beyond top-k of keyword 1 and flushed from its
  // in-memory entry; AND must recover them via disk.
  for (MicroblogId id = 1; id <= 4; ++id) Ingest(id, id, {1, 2});
  for (MicroblogId id = 10; id <= 19; ++id) Ingest(id, id * 10, {1});
  store_.FlushOnce();  // keyword 1 trimmed to top-5 (ids 15..19)
  auto result = engine_.Execute(Multi(QueryType::kAnd, 1, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->memory_hit);
  ASSERT_EQ(result->results.size(), 4u);  // ids 1..4 recovered
  EXPECT_EQ(result->results[0].id, 4u);
}

TEST_F(QueryEngineTest, SingleHitOutrankedByDiskIsExact) {
  for (MicroblogId id = 1; id <= 8; ++id) Ingest(id, id * 10, {1});
  auto proven = engine_.Execute(Single(1));
  ASSERT_TRUE(proven.ok());
  EXPECT_TRUE(proven->memory_hit);
  EXPECT_EQ(proven->from_disk, 0u);
  EXPECT_EQ(UnprovenHits(), 0u);

  // Memory still holds k postings of keyword 1, so the paper's rule still
  // calls this a hit — but its 5th best (ts 40) loses to the disk's best.
  IngestOnDisk(100, 1000, {1});
  auto result = engine_.Execute(Single(1));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);
  EXPECT_EQ(Ids(*result), (std::vector<MicroblogId>{100, 8, 7, 6, 5}));
  EXPECT_EQ(result->from_disk, 1u);
  EXPECT_EQ(UnprovenHits(), 1u);
}

TEST_F(QueryEngineTest, OrHitOutrankedByDiskIsExact) {
  for (MicroblogId id = 1; id <= 6; ++id) Ingest(id, id * 10, {1});
  for (MicroblogId id = 11; id <= 16; ++id) Ingest(id, id * 10, {2});
  IngestOnDisk(100, 1000, {2});
  auto result = engine_.Execute(Multi(QueryType::kOr, 1, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);
  EXPECT_EQ(Ids(*result), (std::vector<MicroblogId>{100, 16, 15, 14, 13}));
  EXPECT_EQ(UnprovenHits(), 1u);
}

TEST_F(QueryEngineTest, AndHitOutrankedByDiskIsExact) {
  for (MicroblogId id = 1; id <= 6; ++id) Ingest(id, id * 10, {1, 2});
  // Keyword 1's disk posting outranks memory, but a record missing from
  // memory would need a disk posting under keyword 2 as well: none exists,
  // so memory provably holds the top-k.
  IngestOnDisk(100, 1000, {1});
  auto proven = engine_.Execute(Multi(QueryType::kAnd, 1, 2));
  ASSERT_TRUE(proven.ok());
  EXPECT_TRUE(proven->memory_hit);
  EXPECT_EQ(Ids(*proven), (std::vector<MicroblogId>{6, 5, 4, 3, 2}));
  EXPECT_EQ(proven->from_disk, 0u);
  EXPECT_EQ(UnprovenHits(), 0u);

  // Six memory records still carry both terms — a hit by the record-based
  // rule — but a newer record on disk under both outranks them.
  IngestOnDisk(101, 2000, {1, 2});
  auto result = engine_.Execute(Multi(QueryType::kAnd, 1, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);
  EXPECT_EQ(Ids(*result), (std::vector<MicroblogId>{101, 6, 5, 4, 3}));
  EXPECT_EQ(result->from_disk, 1u);
  EXPECT_EQ(UnprovenHits(), 1u);
}

TEST_F(QueryEngineTest, AndWalkReadsNoRecordRuledOutByDiskMaxima) {
  // Term 1's only disk posting is older than every memory record; term 2
  // has none. A record missing from term 2's list cannot carry term 2, and
  // one missing from term 1's list outranks term 1's best disk posting:
  // the walk settles every candidate without reading a record.
  IngestOnDisk(100, 1, {1});
  for (MicroblogId id = 1; id <= 6; ++id) Ingest(id, id * 10, {1});
  for (MicroblogId id = 11; id <= 16; ++id) Ingest(id, id * 10, {2});
  Ingest(21, 210, {1, 2});
  Ingest(22, 220, {1, 2});
  auto result = engine_.Execute(Multi(QueryType::kAnd, 1, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->memory_hit);
  EXPECT_EQ(Ids(*result), (std::vector<MicroblogId>{22, 21}));
  EXPECT_EQ(AndRecordReads(), 0u);
}

TEST(QueryEngineAndWalkTest, Figure6RecordIsReadOnceAndQualifies) {
  // Phase 1 alone: record 100 (keywords 1 and 2) is trimmed from keyword
  // 2's entry to disk and stays resident through keyword 1 (the Figure 6
  // case). Its score equals keyword 2's best disk score, so the walk must
  // read it; keyword 2's newer records miss keyword 1, which has nothing
  // on disk, and are ruled out unread.
  StoreOptions options = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20,
                                           kK);
  options.enable_phase2 = false;
  options.enable_phase3 = false;
  MicroblogStore store(options);
  QueryEngine engine(&store);
  ASSERT_TRUE(store.Insert(MakeBlog(100, 5, {1, 2})).ok());
  for (MicroblogId id = 1; id <= kK; ++id) {
    ASSERT_TRUE(store.Insert(MakeBlog(id, id * 10, {2})).ok());
  }
  store.FlushOnce();
  ASSERT_EQ(store.policy()->EntrySize(2), kK);
  ASSERT_TRUE(store.raw_store()->Contains(100));

  TopKQuery query;
  query.terms = {1, 2};
  query.type = QueryType::kAnd;
  query.k = 1;
  auto result = engine.Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);
  ASSERT_EQ(result->results.size(), 1u);
  EXPECT_EQ(result->results[0].id, 100u);
  EXPECT_EQ(result->from_memory, 1u);
  EXPECT_EQ(store.metrics_registry()->Snapshot().counter_or(
                "query.and_record_reads"),
            1u);
}

TEST_F(QueryEngineTest, ValidationErrors) {
  TopKQuery empty;
  EXPECT_FALSE(engine_.Execute(empty).ok());
  TopKQuery multi_single;
  multi_single.terms = {1, 2};
  multi_single.type = QueryType::kSingle;
  EXPECT_FALSE(engine_.Execute(multi_single).ok());
}

TEST_F(QueryEngineTest, MetricsTrackHitsAndTypes) {
  for (MicroblogId id = 1; id <= 6; ++id) Ingest(id, id * 10, {1});
  ASSERT_TRUE(engine_.Execute(Single(1)).ok());   // hit
  ASSERT_TRUE(engine_.Execute(Single(99)).ok());  // miss
  ASSERT_TRUE(engine_.Execute(Multi(QueryType::kOr, 1, 99)).ok());  // miss
  const QueryMetricsSnapshot snap = Recorded();
  EXPECT_EQ(snap.queries, 3u);
  EXPECT_EQ(snap.memory_hits, 1u);
  EXPECT_EQ(snap.memory_misses, 2u);
  EXPECT_DOUBLE_EQ(snap.HitRatio(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(snap.HitRatioFor(QueryType::kSingle), 0.5);
  EXPECT_DOUBLE_EQ(snap.HitRatioFor(QueryType::kOr), 0.0);
  EXPECT_GT(snap.disk_term_reads, 0u);
  store_.metrics_registry()->Reset();
  EXPECT_EQ(Recorded().queries, 0u);
}

TEST_F(QueryEngineTest, DiskReadMetricIsExactlyTheDiskStatsDelta) {
  // Each query counts the disk term reads it issues itself; with one
  // querying thread their sum is exactly the delta of the disk store's own
  // term_queries counter. Cross-check the metric against the disk tier's
  // counter over a hit, a single-term miss, and an OR with one short term.
  const uint64_t disk_before = store_.disk()->stats().term_queries;

  // Pure memory hit, no flush yet: the disk tier is never consulted.
  for (MicroblogId id = 1; id <= 8; ++id) Ingest(id, id * 10, {1});
  ASSERT_TRUE(engine_.Execute(Single(1)).ok());
  EXPECT_EQ(store_.disk()->stats().term_queries, disk_before);
  EXPECT_EQ(Recorded().disk_term_reads, 0u);

  // Push the tail of keyword 1 to disk, then miss on purpose: exactly one
  // disk term query per short term.
  for (MicroblogId id = 9; id <= 12; ++id) Ingest(id, id * 10, {1});
  store_.FlushOnce();
  TopKQuery deep = Single(1);
  deep.k = 10;  // more than memory holds after the flush
  ASSERT_TRUE(engine_.Execute(deep).ok());
  EXPECT_EQ(store_.disk()->stats().term_queries, disk_before + 1);

  // OR with an unknown term: the short term goes to disk (term 1 may or
  // may not, depending on how much the flush evicted).
  ASSERT_TRUE(engine_.Execute(Multi(QueryType::kOr, 1, 99)).ok());
  EXPECT_GE(store_.disk()->stats().term_queries, disk_before + 2);
  EXPECT_LE(store_.disk()->stats().term_queries, disk_before + 3);
  EXPECT_EQ(Recorded().disk_term_reads,
            store_.disk()->stats().term_queries - disk_before);
}

TEST_F(QueryEngineTest, SearchKeywordsConvenience) {
  ASSERT_TRUE(store_.InsertText("#breaking news", 1, 0).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store_.InsertText("#breaking again", 1, 0).ok());
  }
  auto result = engine_.SearchKeywords({"breaking"}, QueryType::kSingle);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->memory_hit);
  EXPECT_EQ(result->results.size(), kK);
}

TEST_F(QueryEngineTest, QueryUsesStoreDefaultK) {
  for (MicroblogId id = 1; id <= 10; ++id) Ingest(id, id, {1});
  auto result = engine_.Execute(Single(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->results.size(), static_cast<size_t>(store_.k()));
}

/// A disk whose WriteBatch first runs `during_write`: the window in which
/// a flushed batch has left the raw store and is not yet on disk.
class InterceptedDiskStore : public SimDiskStore {
 public:
  std::function<void()> during_write;
  Status WriteBatch(const RecordBatch& batch) override {
    if (during_write) during_write();
    return SimDiskStore::WriteBatch(batch);
  }
};

TEST(QueryEngineInFlightTest, RecordsBeingFlushedStayVisible) {
  InterceptedDiskStore disk;
  StoreOptions options = SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20,
                                           /*k=*/2);
  options.disk = &disk;
  MicroblogStore store(options);
  QueryEngine engine(&store);
  for (MicroblogId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(store.Insert(MakeBlog(id, id * 10, {1})).ok());
  }
  TopKQuery query;
  query.terms = {1};
  query.k = 5;

  std::vector<MicroblogId> during;
  bool ran = false;
  disk.during_write = [&] {
    ran = true;
    auto result = engine.Execute(query);
    ASSERT_TRUE(result.ok());
    for (const Microblog& blog : result->results) during.push_back(blog.id);
    EXPECT_EQ(result->from_memory + result->from_disk,
              result->results.size());
  };
  store.FlushOnce();
  disk.during_write = nullptr;
  ASSERT_TRUE(ran) << "the flush wrote no batch";
  // Phase 3 evicted the whole entry: every record was in the batch.
  EXPECT_EQ(store.raw_store()->size(), 0u);
  EXPECT_EQ(during, (std::vector<MicroblogId>{5, 4, 3, 2, 1}));

  auto after = engine.Execute(query);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->results.size(), 5u);
  EXPECT_EQ(after->from_disk, 5u);
}

/// A disk whose first AddPostings starts `reader` on its own thread and
/// waits up to 200 ms for it before registering the run. A reader that
/// finishes in that window saw the run gone from memory and not yet on
/// disk; one still blocked on the index lock sees it on disk once the
/// flush releases the lock.
class RegistrationWindowDiskStore : public SimDiskStore {
 public:
  std::function<void()> reader;

  ~RegistrationWindowDiskStore() override { Join(); }

  Status AddPostings(TermId term, const std::vector<Posting>& run) override {
    if (reader && !thread_.joinable()) {
      std::promise<void> done;
      std::future<void> finished = done.get_future();
      thread_ = std::thread([this, done = std::move(done)]() mutable {
        reader();
        done.set_value();
      });
      finished.wait_for(std::chrono::milliseconds(200));
    }
    return SimDiskStore::AddPostings(term, run);
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

/// Inserts records 1..5 (newest ranks first) under term 1 into a `policy`
/// store with `k`, runs one flush, and returns the answer of a k = 5
/// single-term query on term 1 started from inside the flush's first disk
/// registration.
std::vector<MicroblogId> AnswerDuringFirstRegistration(PolicyKind policy,
                                                       uint32_t k) {
  RegistrationWindowDiskStore disk;
  StoreOptions options = SmallStoreOptions(policy, 1 << 20, k);
  options.disk = &disk;
  MicroblogStore store(options);
  QueryEngine engine(&store);
  for (MicroblogId id = 1; id <= 5; ++id) {
    EXPECT_TRUE(store.Insert(MakeBlog(id, id * 10, {1})).ok());
  }
  TopKQuery query;
  query.terms = {1};
  query.k = 5;
  std::vector<MicroblogId> answer;
  bool ran = false;
  disk.reader = [&] {
    auto result = engine.Execute(query);
    ASSERT_TRUE(result.ok());
    for (const Microblog& blog : result->results) answer.push_back(blog.id);
    EXPECT_EQ(result->from_memory + result->from_disk,
              result->results.size());
    ran = true;
  };
  store.FlushOnce();
  disk.Join();
  EXPECT_TRUE(ran) << "the flush registered no run on disk";
  return answer;
}

const std::vector<MicroblogId> kAllFive = {5, 4, 3, 2, 1};

TEST(QueryEngineInFlightTest, TrimmedRunStaysVisibleWhileRegistered) {
  // k = 2: Phase 1 trims records 3, 2, 1 from the entry.
  EXPECT_EQ(AnswerDuringFirstRegistration(PolicyKind::kKFlushing, 2),
            kAllFive);
}

TEST(QueryEngineInFlightTest, EvictedEntryStaysVisibleWhileRegistered) {
  // k = 10: the entry is under k, so Phase 2 evicts it whole.
  EXPECT_EQ(AnswerDuringFirstRegistration(PolicyKind::kKFlushing, 10),
            kAllFive);
}

TEST(QueryEngineInFlightTest, LruVictimStaysVisibleWhileRegistered) {
  // The coldest record, 1, is unlinked first.
  EXPECT_EQ(AnswerDuringFirstRegistration(PolicyKind::kLru, 2), kAllFive);
}

TEST(QueryEngineInFlightTest, FifoSegmentStaysVisibleWhileRegistered) {
  // The only segment is popped with all five postings.
  EXPECT_EQ(AnswerDuringFirstRegistration(PolicyKind::kFifo, 2), kAllFive);
}

}  // namespace
}  // namespace kflush
