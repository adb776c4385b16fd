// Continuous-query race stress: subscribe/unsubscribe churn racing
// saturated routed ingest, parallel per-shard flush cycles, SetK churn,
// and a concurrent drainer — the TSan fodder for the SubscriptionManager
// lock order (registry -> subscription -> member tracking) and the
// publish hooks that fire from digestion and flushing threads.
//
// Correctness holds under any interleaving: every delta the single
// drainer receives for a subscription carries the next contiguous
// sequence number (a gap is a lost update), and after a drained shutdown
// the accounting invariant sub.deltas_published == sub.deltas_pushed +
// sub.deltas_dropped_on_disconnect balances exactly.
// Deterministic modulo thread interleaving: all RNG streams derive from
// one announced base seed (KFLUSH_STRESS_SEED replays a CI failure).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sharded_system.h"
#include "gen/tweet_generator.h"
#include "stress/stress_util.h"
#include "sub/subscription_manager.h"
#include "testing/test_util.h"
#include "util/random.h"

namespace kflush {
namespace {

constexpr int kProducers = 2;
constexpr int kBatchesPerProducer = 15;
constexpr int kBatchSize = 200;

class SubStressTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SubStressTest, ChurnRacesSaturatedIngestAndFlushes) {
  const uint64_t seed = stress::AnnounceSeed();
  const size_t shards = testing_util::TestShardCount();

  SimClock clock(1'000'000);
  ShardedSystemOptions options;
  options.system.store.memory_budget_bytes = 1 << 20;  // total; split N ways
  options.system.store.k = 10;
  options.system.store.policy = GetParam();
  options.system.store.clock = &clock;
  options.system.ingest_queue_capacity = 8;
  options.num_shards = shards;
  ShardedMicroblogSystem system(options);
  system.Start();

  auto subs = MakeSubscriptions(system.store()->engine());
  std::atomic<uint64_t> notifications{0};
  subs->set_notifier([&](uint64_t) {
    notifications.fetch_add(1, std::memory_order_relaxed);
  });

  TweetGeneratorOptions stream;
  stream.seed = seed;
  stream.vocabulary_size = 512;  // dense terms so subscriptions see traffic
  stream.num_users = 200;

  std::atomic<bool> stop{false};
  std::mutex live_mu;
  std::vector<uint64_t> live_subs;  // guarded by live_mu

  // Churn thread: register/terminate/resize standing queries while ingest
  // and flushes run. Keeps a bounded set live at any moment.
  std::thread churn([&] {
    Rng rng(stress::DeriveSeed(seed, 1000));
    while (!stop.load(std::memory_order_relaxed)) {
      const uint32_t dice = static_cast<uint32_t>(rng.Uniform(10));
      if (dice < 5) {
        SubscriptionSpec spec;
        spec.kind = SubKind::kKeyword;
        spec.k = 1 + static_cast<uint32_t>(rng.Uniform(12));
        spec.term = static_cast<TermId>(rng.Uniform(64));  // hot prefix
        auto id = subs->Subscribe(spec);
        if (id.ok()) {
          std::lock_guard<std::mutex> lock(live_mu);
          if (live_subs.size() < 32) {
            live_subs.push_back(*id);
          } else {
            // Over the cap: replace a random one.
            const size_t victim = rng.Uniform(live_subs.size());
            ASSERT_TRUE(subs->Unsubscribe(live_subs[victim]).ok());
            live_subs[victim] = *id;
          }
        }
      } else if (dice < 7) {
        uint64_t victim = 0;
        {
          std::lock_guard<std::mutex> lock(live_mu);
          if (live_subs.size() > 1) {
            const size_t i = rng.Uniform(live_subs.size());
            victim = live_subs[i];
            live_subs.erase(live_subs.begin() + i);
          }
        }
        if (victim != 0) {
          ASSERT_TRUE(subs->Unsubscribe(victim).ok());
        }
      } else {
        uint64_t target = 0;
        {
          std::lock_guard<std::mutex> lock(live_mu);
          if (!live_subs.empty()) {
            target = live_subs[rng.Uniform(live_subs.size())];
          }
        }
        // NotFound is possible only for subs this thread already removed,
        // and it never removes without erasing from live_subs first.
        if (target != 0) {
          ASSERT_TRUE(
              subs->SetK(target, 1 + static_cast<uint32_t>(rng.Uniform(12)))
                  .ok());
        }
      }
    }
  });

  // Single drainer: the only caller of DrainDeltas, so per subscription
  // the drained stream must be seq-contiguous from 1 — any gap is a lost
  // update somewhere between publish and drain.
  std::map<uint64_t, uint64_t> next_seq;  // drainer-thread state
  std::atomic<uint64_t> drained_total{0};
  std::atomic<bool> seq_gap{false};
  auto drain_pass = [&] {
    std::vector<uint64_t> ids;
    {
      std::lock_guard<std::mutex> lock(live_mu);
      ids = live_subs;
    }
    for (uint64_t id : ids) {
      std::vector<SubDelta> deltas;
      if (!subs->DrainDeltas(id, &deltas)) continue;  // unsubscribed since
      uint64_t& expected = next_seq.emplace(id, 1).first->second;
      for (const SubDelta& delta : deltas) {
        if (delta.seq != expected) {
          seq_gap.store(true);
          ADD_FAILURE() << "sub " << id << ": drained seq " << delta.seq
                        << ", expected " << expected;
          return;
        }
        ++expected;
      }
      drained_total.fetch_add(deltas.size(), std::memory_order_relaxed);
    }
  };
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed) &&
           !seq_gap.load(std::memory_order_relaxed)) {
      drain_pass();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
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
  system.Stop();  // drains every shard queue; publish hooks quiesce
  stop.store(true);
  churn.join();
  drainer.join();

  // Clean drained shutdown: with ingest quiesced, one final full drain
  // empties every live outbox, so Shutdown finds nothing undrained and
  // the ledger balances with only churn-time disconnect drops.
  subs->ProcessPendingRefills();
  drain_pass();
  ASSERT_FALSE(seq_gap.load());
  subs->Shutdown();

  auto* reg = subs->metrics_registry();
  const uint64_t published = reg->counter("sub.deltas_published")->value();
  const uint64_t pushed = reg->counter("sub.deltas_pushed")->value();
  const uint64_t dropped =
      reg->counter("sub.deltas_dropped_on_disconnect")->value();
  EXPECT_EQ(published, pushed + dropped);
  EXPECT_EQ(subs->num_active(), 0u);
  EXPECT_GT(reg->counter("sub.registered")->value(), 0u);
  EXPECT_GT(notifications.load(), 0u);
  EXPECT_GT(drained_total.load(), 0u);

  for (size_t i = 0; i < system.num_shards(); ++i) {
    stress::CheckStoreInvariants(system.shard_store(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SubStressTest,
                         ::testing::Values(PolicyKind::kFifo, PolicyKind::kLru,
                                           PolicyKind::kKFlushing),
                         [](const auto& info) {
                           return std::string(PolicyKindName(info.param));
                         });

}  // namespace
}  // namespace kflush
