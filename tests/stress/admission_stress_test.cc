// Admission-boundary race stress: concurrent routed submitters saturate
// tiny shard ingest queues so every batch crosses the accept/reject edge
// many times (TrySubmit NACK-and-retry next to blocking Submits), then
// the quiesced system is audited record by record — every record carries
// a unique marker keyword and must be queryable EXACTLY once. A lost
// marker is a silent drop across the rejection path; a duplicate marker
// is the partial-accept bug (a "rejected" batch that left sub-batches on
// some shards, re-inserted by the retry). The durable variant replays
// the same discipline through WAL recovery: a NACKed batch must never
// come back from the log.
// Sanitizer fodder first: run under -DKFLUSH_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/shard_router.h"
#include "core/sharded_system.h"
#include "stress/stress_util.h"
#include "testing/test_util.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::SmallStoreOptions;

constexpr int kProducers = 4;
constexpr int kRecordsPerProducer = 250;
constexpr KeywordId kMarkerBase = 500'000;

KeywordId MarkerFor(int producer, int seq) {
  return kMarkerBase +
         static_cast<KeywordId>(producer * kRecordsPerProducer + seq);
}

ShardedSystemOptions SaturatedOptions(size_t shards) {
  ShardedSystemOptions options;
  options.system.store = SmallStoreOptions(PolicyKind::kFifo, 4 << 20);
  // Two-slot queues: with four producers racing, rejections are constant.
  options.system.ingest_queue_capacity = 2;
  options.num_shards = shards;
  return options;
}

/// Counts records carrying `marker` in the quiesced system.
size_t MarkerCount(ShardedMicroblogSystem* system, KeywordId marker) {
  TopKQuery query;
  query.terms = {marker};
  query.k = 8;
  auto result = system->Query(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->results.size() : 0;
}

// Producers 0/1 retry TrySubmit on every kOverloaded NACK; producers 2/3
// use the blocking Submit path. Each record pairs its unique marker with
// a shared hot keyword so most batches span several shards — the
// multi-owner reservation path, not the single-queue special case.
TEST(AdmissionStress, SaturatedQueuesAdmitEveryRecordExactlyOnce) {
  stress::AnnounceSeed();
  const size_t shards = testing_util::TestShardCount();
  ShardedMicroblogSystem system(SaturatedOptions(shards));
  system.Start();

  std::atomic<uint64_t> nacks_seen{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const bool blocking = p >= kProducers / 2;
      for (int seq = 0; seq < kRecordsPerProducer; ++seq) {
        const KeywordId marker = MarkerFor(p, seq);
        // The shared keyword routes a second copy to a (usually)
        // different shard than the marker's owner.
        const KeywordId shared = static_cast<KeywordId>(seq % 8);
        if (blocking) {
          ASSERT_TRUE(system.Submit(
              {MakeBlog(kInvalidMicroblogId, 0, {marker, shared})}));
          continue;
        }
        while (true) {
          const auto outcome = system.TrySubmit(
              {MakeBlog(kInvalidMicroblogId, 0, {marker, shared})});
          if (outcome ==
              ShardedMicroblogSystem::SubmitOutcome::kAccepted) {
            break;
          }
          ASSERT_EQ(outcome,
                    ShardedMicroblogSystem::SubmitOutcome::kOverloaded);
          nacks_seen.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  system.Stop();

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kProducers) * kRecordsPerProducer;
  EXPECT_EQ(system.accepted(), kTotal);
  EXPECT_EQ(system.digested(), system.routed_copies());
  for (int p = 0; p < kProducers; ++p) {
    for (int seq = 0; seq < kRecordsPerProducer; ++seq) {
      const size_t copies = MarkerCount(&system, MarkerFor(p, seq));
      ASSERT_EQ(copies, 1u)
          << "producer " << p << " seq " << seq
          << (copies == 0 ? ": record lost" : ": record duplicated")
          << " (nacks seen: " << nacks_seen.load() << ")";
    }
  }
}

// The durable boundary: a batch NACKed while an owner shard's queue was
// full must leave nothing in any WAL — recovery replays exactly the
// acked records, once each, even after the NACKed batch is retried.
TEST(AdmissionStress, NackedBatchNeverReplaysFromWal) {
  stress::AnnounceSeed();
  const std::string dir = testing_util::UniqueTempPath("admission_wal_stress");
  testing_util::RemoveTree(dir);

  constexpr size_t kShards = 2;
  constexpr KeywordId kFillerMarker = kMarkerBase - 1;
  // Two keywords with distinct owner shards (pure hash probe).
  ShardRouter router(kShards);
  const KeywordId full_kw = kFillerMarker;
  KeywordId other_kw = kMarkerBase;
  while (router.ShardForTerm(other_kw) ==
         router.ShardForTerm(full_kw)) {
    ++other_kw;
  }

  {
    ShardedSystemOptions options = SaturatedOptions(kShards);
    options.system.ingest_queue_capacity = 1;
    options.system.store.durability.enabled = true;
    options.system.store.durability.dir = dir;
    ShardedMicroblogSystem system(options);
    ASSERT_TRUE(system.DurabilityStatus().ok());

    // Not started: the filler parks on full_kw's shard, freezing depths.
    ASSERT_TRUE(
        system.Submit({MakeBlog(kInvalidMicroblogId, 0, {full_kw})}));
    std::vector<Microblog> batch;
    batch.push_back(MakeBlog(kInvalidMicroblogId, 0, {other_kw}));
    batch.push_back(MakeBlog(kInvalidMicroblogId, 0, {full_kw}));
    ASSERT_EQ(system.TrySubmit(std::move(batch)),
              ShardedMicroblogSystem::SubmitOutcome::kOverloaded);

    // Release digestion and retry the identical (re-built) batch until
    // admitted; the NACKed attempt must contribute nothing to the WAL.
    system.Start();
    while (true) {
      std::vector<Microblog> retry;
      retry.push_back(MakeBlog(kInvalidMicroblogId, 0, {other_kw}));
      retry.push_back(MakeBlog(kInvalidMicroblogId, 0, {full_kw}));
      const auto outcome = system.TrySubmit(std::move(retry));
      if (outcome == ShardedMicroblogSystem::SubmitOutcome::kAccepted) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    system.Stop();
    EXPECT_EQ(system.accepted(), 3u);  // filler + the two retried records
  }

  // Recover from the WALs: exactly one record per admitted copy, none
  // from the NACKed attempt.
  ShardedSystemOptions options = SaturatedOptions(kShards);
  options.system.store.durability.enabled = true;
  options.system.store.durability.dir = dir;
  ShardedMicroblogSystem recovered(options);
  ASSERT_TRUE(recovered.DurabilityStatus().ok());
  EXPECT_EQ(MarkerCount(&recovered, other_kw), 1u)
      << "NACKed sub-batch replayed from WAL";
  EXPECT_EQ(MarkerCount(&recovered, full_kw), 2u);
  testing_util::RemoveTree(dir);
}

}  // namespace
}  // namespace kflush
