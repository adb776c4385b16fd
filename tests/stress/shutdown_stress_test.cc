// Shutdown stress: Stop() racing unbounded producers, live query threads,
// an in-flight flush, and (on alternating iterations) a second concurrent
// Stop() — plus destructor-only teardown. The stop point shifts each
// iteration so teardown lands in different phases of the flush cycle. The
// tiny budget and queue keep the digestion thread bouncing off the
// backpressure stall, which Stop() must release rather than deadlock on.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/sharded_system.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"
#include "stress/stress_util.h"

namespace kflush {
namespace {

constexpr int kIterations = 10;

TEST(ShutdownStressTest, StopMidStreamRepeatedly) {
  const uint64_t seed = stress::AnnounceSeed();

  for (int iter = 0; iter < kIterations; ++iter) {
    SimClock clock(1'000'000);
    SystemOptions options;
    options.store.memory_budget_bytes = 256 << 10;
    options.store.k = 5;
    // MK carries the most teardown bookkeeping (top-k refcounts).
    options.store.policy = PolicyKind::kKFlushingMK;
    options.store.clock = &clock;
    options.ingest_queue_capacity = 4;
    ShardedMicroblogSystem system(ShardedSystemOptions{options, 1});
    system.Start();

    std::atomic<bool> stop{false};

    std::thread producer([&] {
      TweetGeneratorOptions stream;
      stream.seed = stress::DeriveSeed(seed, static_cast<uint64_t>(iter));
      stream.vocabulary_size = 2'000;
      TweetGenerator gen(stream);
      for (;;) {
        std::vector<Microblog> batch;
        gen.FillBatch(200, &batch);
        clock.Advance(200 * stream.arrival_interval_micros);
        if (!system.Submit(std::move(batch))) return;  // queue closed
      }
    });

    std::thread query([&] {
      QueryWorkloadOptions wopts;
      wopts.seed = stress::DeriveSeed(seed, 1'000 + static_cast<uint64_t>(iter));
      TweetGeneratorOptions stream;
      stream.seed = seed;
      stream.vocabulary_size = 2'000;
      QueryGenerator queries(wopts, stream);
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = system.Query(queries.Next());
        // Queries stay valid through and after Stop().
        EXPECT_TRUE(result.ok());
      }
    });

    // Vary the stop point so teardown hits digestion, flushing, and the
    // backpressure stall at different moments across iterations.
    const uint64_t threshold = 500 + 400ull * static_cast<uint64_t>(iter);
    while (system.digested() < threshold) std::this_thread::yield();

    if (iter % 2 == 0) {
      // Two Stop() calls racing: exactly one performs the teardown.
      std::thread racer([&] { system.Stop(); });
      system.Stop();
      racer.join();
    } else {
      system.Stop();
    }

    stop.store(true);
    producer.join();
    query.join();

    EXPECT_GE(system.digested(), threshold);
    stress::CheckStoreInvariants(system.shard_store(0));
    // Destructor runs here, after an explicit Stop() — must be a no-op.
  }
}

TEST(ShutdownStressTest, DestructorOnlyTeardown) {
  const uint64_t seed = stress::AnnounceSeed();

  // No explicit Stop(): the destructor alone must close the queue, drain
  // it, and join the digestion and flusher threads — including when the
  // flusher is mid-cycle at scope exit. (Producers must not outlive the
  // system, so submission happens inline here.)
  for (int iter = 0; iter < 3; ++iter) {
    SimClock clock(1'000'000);
    SystemOptions options;
    options.store.memory_budget_bytes = 256 << 10;
    options.store.k = 5;
    options.store.policy = PolicyKind::kKFlushing;
    options.store.clock = &clock;
    options.ingest_queue_capacity = 2;
    ShardedMicroblogSystem system(ShardedSystemOptions{options, 1});
    system.Start();

    TweetGeneratorOptions stream;
    stream.seed = stress::DeriveSeed(seed, 2'000 + static_cast<uint64_t>(iter));
    stream.vocabulary_size = 1'000;
    TweetGenerator gen(stream);
    for (int b = 0; b < 30; ++b) {
      std::vector<Microblog> batch;
      gen.FillBatch(100, &batch);
      clock.Advance(100 * stream.arrival_interval_micros);
      ASSERT_TRUE(system.Submit(std::move(batch)));
    }
    // Scope ends with the queue likely non-empty and a flush in flight.
  }
}

}  // namespace
}  // namespace kflush
