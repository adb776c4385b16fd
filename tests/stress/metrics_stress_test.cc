// Race-stress for the metrics layer, meant to run under TSan (label:
// stress). Runs engine queries from several threads while snapshotter
// loops derive the hit-ratio view from the live registry: a concurrent
// read must never show hits + misses > queries (a hit ratio above 100% was
// the observable symptom of torn reads), and never a per-type hit count
// above its per-type query count. Also stresses ConcurrentHistogram's
// Record/Snapshot/Reset stripes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "../testing/test_util.h"
#include "core/metrics.h"
#include "core/metrics_registry.h"
#include "core/query_engine.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::SmallStoreOptions;

TEST(MetricsStressTest, SnapshotNeverTearsHitRatioAbove100Percent) {
  MicroblogStore store(SmallStoreOptions(PolicyKind::kKFlushing, 1 << 20, 2));
  // Terms 1 and 2 each hold k in memory (hits); term 99 holds nothing
  // (misses, with a disk read).
  for (MicroblogId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(store.Insert(MakeBlog(id, id * 10, {1, 2})).ok());
  }
  QueryEngine engine(&store);
  std::atomic<bool> stop{false};
  constexpr int kQueriers = 4;
  constexpr uint64_t kPerQuerier = 4'000;

  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueriers; ++t) {
    queriers.emplace_back([&engine, t] {
      for (uint64_t i = 0; i < kPerQuerier; ++i) {
        TopKQuery query;
        query.type = static_cast<QueryType>((i + t) % 3);
        const TermId first = ((i ^ t) & 1) != 0 ? 1 : 99;
        query.terms = {first};
        if (query.type != QueryType::kSingle) query.terms.push_back(2);
        ASSERT_TRUE(engine.Execute(query).ok());
      }
    });
  }

  std::vector<std::thread> snapshotters;
  for (int t = 0; t < 2; ++t) {
    snapshotters.emplace_back([&store, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        const QueryMetricsSnapshot snap =
            QueryMetricsFromRegistry(store.metrics_registry()->Snapshot());
        ASSERT_LE(snap.memory_hits + snap.memory_misses, snap.queries);
        for (int i = 0; i < 3; ++i) {
          ASSERT_LE(snap.hits_by_type[i], snap.queries_by_type[i]) << i;
        }
        ASSERT_LE(snap.HitRatio(), 1.0);
      }
    });
  }

  for (auto& th : queriers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : snapshotters) th.join();

  // Quiesced: every equality holds exactly.
  const MetricsSnapshot registry = store.metrics_registry()->Snapshot();
  const QueryMetricsSnapshot final_snap = QueryMetricsFromRegistry(registry);
  const uint64_t total = kQueriers * kPerQuerier;
  EXPECT_EQ(final_snap.queries, total);
  EXPECT_EQ(final_snap.memory_hits + final_snap.memory_misses, total);
  EXPECT_EQ(final_snap.memory_hits, total / 2);
  EXPECT_EQ(registry.counter_or("query.executed"), total);
  EXPECT_EQ(registry.counter_or("query.memory_hits"), final_snap.memory_hits);
  // Each query counts the disk reads it issued itself, so racing queries
  // never count each other's: the sum is the disk tier's own count.
  EXPECT_EQ(registry.counter_or("query.disk_term_reads"),
            store.disk()->stats().term_queries);
  uint64_t by_type = 0, hits_by_type = 0;
  for (int i = 0; i < 3; ++i) {
    by_type += final_snap.queries_by_type[i];
    hits_by_type += final_snap.hits_by_type[i];
  }
  EXPECT_EQ(by_type, total);
  EXPECT_EQ(hits_by_type, final_snap.memory_hits);
}

TEST(MetricsStressTest, ConcurrentHistogramRecordSnapshotReset) {
  ConcurrentHistogram h;
  std::atomic<bool> stop{false};
  constexpr int kRecorders = 4;

  std::vector<std::thread> recorders;
  for (int t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&h, &stop, t] {
      uint64_t v = 1 + static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        h.Record(v);
        v = v % 100'000 + 1;
      }
    });
  }

  for (int round = 0; round < 200; ++round) {
    const Histogram snap = h.Snapshot();
    if (snap.count() > 0) {
      EXPECT_GE(snap.max(), snap.min());
      EXPECT_GE(snap.sum(), snap.count() * snap.min());
      EXPECT_LE(snap.Percentile(50), snap.max());
    }
    if (round % 50 == 49) h.Reset();  // torn-vs-Record is allowed; no crash
  }

  stop.store(true, std::memory_order_release);
  for (auto& th : recorders) th.join();
}

TEST(MetricsStressTest, RegistryGetOrCreateRacesResolveToOneInstrument) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter* c = registry.counter("race.counter");
      c->Increment();
      registry.gauge("race.gauge")->Add(1);
      registry.histogram("race.histogram")->Record(7);
      seen[static_cast<size_t>(t)] = c;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter_or("race.counter"), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(snap.gauges.at("race.gauge"), kThreads);
  EXPECT_EQ(snap.histograms.at("race.histogram").count(),
            static_cast<uint64_t>(kThreads));
}

}  // namespace
}  // namespace kflush
