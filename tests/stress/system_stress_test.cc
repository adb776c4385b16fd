// Full-system race stress: the one-shard ShardedMicroblogSystem under
// simultaneous producers, mixed-workload query threads (single / OR / AND
// keyword, spatial tile and area, user), adversarial SetK churn, and a
// background flusher kept busy by a tiny budget — so every kFlushing
// phase (and the MK refcount paths) runs concurrently with digestion and
// queries. Parameterized over policy × attribute. Deterministic modulo
// thread interleaving: all RNG streams derive from one announced base
// seed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/sharded_system.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"
#include "stress/stress_util.h"
#include "util/random.h"

namespace kflush {
namespace {

struct StressConfig {
  PolicyKind policy;
  AttributeKind attribute;
  const char* name;
};

class SystemStressTest : public ::testing::TestWithParam<StressConfig> {};

constexpr int kProducers = 2;
constexpr int kBatchesPerProducer = 20;
constexpr int kBatchSize = 250;

TEST_P(SystemStressTest, IngestFlushQuerySetKRace) {
  const StressConfig cfg = GetParam();
  const uint64_t seed = stress::AnnounceSeed();

  SimClock clock(1'000'000);
  SystemOptions options;
  options.store.memory_budget_bytes = 1 << 20;  // tiny: flushes constantly
  options.store.k = 10;
  options.store.policy = cfg.policy;
  options.store.attribute = cfg.attribute;
  options.store.clock = &clock;
  options.ingest_queue_capacity = 8;
  ShardedMicroblogSystem system(ShardedSystemOptions{options, 1});
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
          // Area query around a hotspot: exercises the over-fetch loop of
          // SearchArea concurrently with eviction of boundary tiles.
          const GeoPoint& c = hotspots[rng.Uniform(hotspots.size())];
          // Up to ~0.3 degrees per side: ~11x11 tiles at the default 0.029
          // degree tile edge, safely under SearchArea's 256-tile cap.
          const double half = 0.03 + 0.01 * static_cast<double>(rng.Uniform(13));
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

  // Adversarial k churn: every change arms k_changed_, so flush cycles keep
  // rebuilding the over-k list L while inserts charge it concurrently.
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
  system.Stop();  // drains the queue, often landing mid-flush
  stop.store(true);
  churn.join();
  for (auto& t : query_threads) t.join();

  EXPECT_EQ(system.digested(),
            static_cast<uint64_t>(kProducers) * kBatchesPerProducer *
                kBatchSize);
  EXPECT_EQ(query_errors.load(), 0u);
  EXPECT_GT(queries_done.load(), 0u);
  EXPECT_LT(system.shard_store(0)->tracker().DataUsed(),
            options.store.memory_budget_bytes * 2);
  stress::CheckStoreInvariants(system.shard_store(0));
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByAttribute, SystemStressTest,
    ::testing::Values(
        StressConfig{PolicyKind::kFifo, AttributeKind::kKeyword,
                     "FifoKeyword"},
        StressConfig{PolicyKind::kLru, AttributeKind::kKeyword, "LruKeyword"},
        StressConfig{PolicyKind::kKFlushing, AttributeKind::kKeyword,
                     "KFlushingKeyword"},
        StressConfig{PolicyKind::kKFlushingMK, AttributeKind::kKeyword,
                     "MKKeyword"},
        StressConfig{PolicyKind::kKFlushing, AttributeKind::kSpatial,
                     "KFlushingSpatial"},
        StressConfig{PolicyKind::kKFlushingMK, AttributeKind::kSpatial,
                     "MKSpatial"},
        StressConfig{PolicyKind::kKFlushing, AttributeKind::kUser,
                     "KFlushingUser"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace kflush
