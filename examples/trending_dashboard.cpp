// Trending dashboard: the workload the paper's introduction motivates —
// a high-rate tweet stream digested in real time by the threaded
// deployment (ShardedMicroblogSystem, one shard) while keyword searches
// run concurrently. The dashboard
// periodically reports the hottest hashtags, the memory hit ratio, and
// flushing activity, contrasting the kFlushing policy with FIFO.

#include <cstdio>
#include <map>

#include "core/sharded_system.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"

using namespace kflush;

namespace {

void RunDashboard(PolicyKind policy) {
  std::printf("\n================ policy: %s ================\n",
              PolicyKindName(policy));

  ShardedSystemOptions options;
  options.system.store.memory_budget_bytes = 16 << 20;
  options.system.store.k = 20;
  options.system.store.policy = policy;
  options.num_shards = 1;
  ShardedMicroblogSystem system(options);
  system.Start();

  TweetGeneratorOptions stream;
  stream.seed = 99;
  stream.vocabulary_size = 50'000;
  TweetGenerator gen(stream);

  QueryWorkloadOptions workload;
  workload.kind = WorkloadKind::kCorrelated;
  QueryGenerator queries(workload, stream);

  // Five "refresh ticks": ingest a slab of stream, run a burst of user
  // searches, and render the dashboard line.
  for (int tick = 1; tick <= 5; ++tick) {
    std::vector<Microblog> batch;
    gen.FillBatch(60'000, &batch);
    // Remember the hottest tags of this slab for display.
    std::map<KeywordId, int> tag_counts;
    for (const Microblog& blog : batch) {
      for (KeywordId kw : blog.keywords) tag_counts[kw]++;
    }
    system.Submit(std::move(batch));

    int hits = 0, total = 0;
    for (int q = 0; q < 2'000; ++q) {
      auto result = system.Query(queries.Next());
      if (result.ok()) {
        ++total;
        if (result->memory_hit) ++hits;
      }
    }

    // Top-3 tags by slab frequency.
    std::vector<std::pair<int, KeywordId>> hot;
    for (const auto& [kw, count] : tag_counts) hot.push_back({count, kw});
    std::sort(hot.rbegin(), hot.rend());

    const MicroblogStore* store = system.shard_store(0);
    std::printf(
        "tick %d | digested=%8llu | hot tags:", tick,
        static_cast<unsigned long long>(system.digested()));
    for (size_t i = 0; i < 3 && i < hot.size(); ++i) {
      std::printf(" #tag%u(%d)", hot[i].second, hot[i].first);
    }
    std::printf(" | hit ratio %5.1f%% | k-filled keywords %zu | flushes %llu\n",
                total == 0 ? 0.0 : 100.0 * hits / total,
                store->policy()->NumKFilledTerms(),
                static_cast<unsigned long long>(
                    store->ingest_stats().flush_triggers));
  }
  system.Stop();
}

}  // namespace

int main() {
  std::printf("trending dashboard: live keyword search over a tweet stream\n"
              "(watch the hit ratio: query-aware flushing keeps more\n"
              "searches answerable from memory under the same budget)\n");
  RunDashboard(PolicyKind::kFifo);
  RunDashboard(PolicyKind::kKFlushing);
  return 0;
}
