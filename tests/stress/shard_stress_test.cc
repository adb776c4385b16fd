// Sharded-system race stress: a ShardedMicroblogSystem under simultaneous
// producers pushing through the routing layer, fan-out query threads
// (single / OR / AND keyword, spatial tile + area fan-out, user), an
// adversarial SetK churn thread hitting every shard, and N background
// flushers kept busy by a tiny per-shard budget — so shard flush cycles
// run concurrently with each other, with routed digestion, and with
// cross-shard merges. Parameterized over policy × attribute.
// Deterministic modulo thread interleaving: all RNG streams derive from
// one announced base seed (KFLUSH_STRESS_SEED replays a CI failure).
// Sanitizer fodder first: run under -DKFLUSH_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/sharded_system.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"
#include "stress/stress_util.h"
#include "testing/test_util.h"
#include "util/random.h"

namespace kflush {
namespace {

struct ShardStressConfig {
  PolicyKind policy;
  AttributeKind attribute;
  const char* name;
};

class ShardStressTest : public ::testing::TestWithParam<ShardStressConfig> {};

constexpr int kProducers = 2;
constexpr int kBatchesPerProducer = 20;
constexpr int kBatchSize = 250;

TEST_P(ShardStressTest, RoutedIngestParallelFlushFanoutRace) {
  const ShardStressConfig cfg = GetParam();
  const uint64_t seed = stress::AnnounceSeed();
  const size_t shards = testing_util::TestShardCount();

  SimClock clock(1'000'000);
  ShardedSystemOptions options;
  options.system.store.memory_budget_bytes = 1 << 20;  // total; split N ways
  options.system.store.k = 10;
  options.system.store.policy = cfg.policy;
  options.system.store.attribute = cfg.attribute;
  options.system.store.clock = &clock;
  options.system.ingest_queue_capacity = 8;
  options.num_shards = shards;
  ShardedMicroblogSystem system(options);
  system.Start();

  TweetGeneratorOptions stream;
  stream.seed = seed;
  stream.vocabulary_size = 4'000;
  stream.num_users = 500;  // dense user entries so kUser actually flushes
  stream.geotagged_fraction = 1.0;
  const std::vector<GeoPoint> hotspots = MakeHotspots(stream);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  std::atomic<uint64_t> queries_done{0};

  std::vector<std::thread> query_threads;
  for (int t = 0; t < 2; ++t) {
    query_threads.emplace_back([&, t] {
      QueryWorkloadOptions wopts;
      wopts.seed = stress::DeriveSeed(seed, 100 + static_cast<uint64_t>(t));
      wopts.kind = t == 0 ? WorkloadKind::kUniform : WorkloadKind::kCorrelated;
      wopts.attribute = cfg.attribute;
      QueryGenerator queries(wopts, stream);
      Rng rng(stress::DeriveSeed(seed, 200 + static_cast<uint64_t>(t)));
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++n;
        if (cfg.attribute == AttributeKind::kSpatial && n % 8 == 0) {
          // Area fan-out around a hotspot: the over-fetch loop issues
          // multi-tile ORs whose tiles live on several shards, merging
          // while those shards flush.
          const GeoPoint& c = hotspots[rng.Uniform(hotspots.size())];
          const double half =
              0.03 + 0.01 * static_cast<double>(rng.Uniform(13));
          auto result = system.store()->engine()->SearchArea(
              c.lat - half, c.lon - half, c.lat + half, c.lon + half, 10);
          if (!result.ok()) query_errors.fetch_add(1);
        } else if (cfg.attribute == AttributeKind::kUser && n % 8 == 0) {
          auto result = system.store()->engine()->SearchUser(
              static_cast<UserId>(1 + rng.Uniform(stream.num_users)), 10);
          if (!result.ok()) query_errors.fetch_add(1);
        } else {
          auto result = system.Query(queries.Next());
          if (!result.ok()) query_errors.fetch_add(1);
        }
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Adversarial k churn across every shard at once: each shard's flusher
  // keeps rebuilding its over-k bookkeeping while routed inserts land.
  std::thread churn([&] {
    const uint32_t ks[] = {5, 10, 20, 35};
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      system.store()->SetK(ks[i++ % 4]);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      TweetGeneratorOptions my_stream = stream;
      my_stream.seed = stress::DeriveSeed(seed, static_cast<uint64_t>(p));
      TweetGenerator gen(my_stream);
      for (int batch = 0; batch < kBatchesPerProducer; ++batch) {
        std::vector<Microblog> blogs;
        gen.FillBatch(kBatchSize, &blogs);
        clock.Advance(kBatchSize * stream.arrival_interval_micros);
        if (!system.Submit(std::move(blogs))) return;
      }
    });
  }

  for (auto& t : producers) t.join();
  system.Stop();  // drains every shard queue, often landing mid-flush
  stop.store(true);
  churn.join();
  for (auto& t : query_threads) t.join();

  const uint64_t produced = static_cast<uint64_t>(kProducers) *
                            kBatchesPerProducer * kBatchSize;
  EXPECT_EQ(system.accepted(), produced);
  // Every routed copy must have been digested by its owning shard; the
  // keyword attribute duplicates multi-keyword records, so copies can
  // exceed the record count but never fall below it (every tweet carries
  // at least one term under each of the three attributes here).
  EXPECT_EQ(system.digested(), system.routed_copies());
  EXPECT_GE(system.routed_copies(), produced - system.skipped_no_terms());
  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_GT(queries_done.load(), 0u);

  // Per-shard quiesced invariants and memory bounds.
  for (size_t i = 0; i < system.num_shards(); ++i) {
    MicroblogStore* store = system.shard_store(i);
    EXPECT_LT(store->tracker().DataUsed(),
              store->options().memory_budget_bytes * 2)
        << "shard " << i;
    stress::CheckStoreInvariants(store);
  }

  // Post-quiesce fan-out answers still merge across shards.
  auto result = system.Query({{1}, QueryType::kSingle, 10});
  EXPECT_TRUE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByAttribute, ShardStressTest,
    ::testing::Values(
        ShardStressConfig{PolicyKind::kFifo, AttributeKind::kKeyword,
                          "FifoKeyword"},
        ShardStressConfig{PolicyKind::kLru, AttributeKind::kKeyword,
                          "LruKeyword"},
        ShardStressConfig{PolicyKind::kKFlushing, AttributeKind::kKeyword,
                          "KFlushingKeyword"},
        ShardStressConfig{PolicyKind::kKFlushingMK, AttributeKind::kKeyword,
                          "MKKeyword"},
        ShardStressConfig{PolicyKind::kKFlushing, AttributeKind::kSpatial,
                          "KFlushingSpatial"},
        ShardStressConfig{PolicyKind::kKFlushingMK, AttributeKind::kSpatial,
                          "MKSpatial"},
        ShardStressConfig{PolicyKind::kKFlushing, AttributeKind::kUser,
                          "KFlushingUser"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace kflush
