// Figure 10: flushing overhead vs k.
//   (a) Policy bookkeeping memory: LRU's per-item global list is the most
//       expensive, kFlushing variations keep per-entry (not per-item)
//       metadata plus a temporary flush buffer, FIFO needs almost nothing
//       (its segments double as flush units).
//   (b) Digestion rate under stress: unbounded ingest with a concurrent
//       background flusher and query threads. FIFO digests fastest,
//       kFlushing slightly below (insertion bookkeeping), kFlushing-MK
//       below that, and LRU collapses due to global-list contention.

#include <atomic>
#include <thread>

#include "bench_util.h"
#include "core/sharded_system.h"

using namespace kflush;
using namespace kflush::bench;

namespace {

/// Streams as fast as possible for `seconds` of wall time with two query
/// threads running; returns digested tweets per second.
double MeasureDigestionRate(PolicyKind policy, uint32_t k, double seconds) {
  ShardedSystemOptions opts;
  opts.system.store = DefaultConfig(policy).store;
  opts.system.store.k = k;
  opts.system.ingest_queue_capacity = 64;
  opts.num_shards = 1;
  ShardedMicroblogSystem system(opts);
  system.Start();

  std::atomic<bool> stop{false};

  // Query threads: keep the access path hot (this is what serializes LRU).
  TweetGeneratorOptions stream = DefaultConfig(policy).stream;
  std::vector<std::thread> query_threads;
  for (int t = 0; t < 4; ++t) {
    query_threads.emplace_back([&system, &stop, stream, t] {
      QueryWorkloadOptions wopts;
      wopts.seed = 9000 + static_cast<uint64_t>(t);
      QueryGenerator queries(wopts, stream);
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = system.Query(queries.Next());
        (void)result;
      }
    });
  }

  // Producer: generate batches as fast as the queue accepts them.
  std::thread producer([&system, &stop, stream] {
    TweetGenerator gen(stream);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<Microblog> batch;
      gen.FillBatch(512, &batch);
      if (!system.Submit(std::move(batch))) break;
    }
  });

  Stopwatch watch;
  while (watch.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const uint64_t digested_before_stop = system.digested();
  const double elapsed = watch.ElapsedSeconds();
  stop.store(true);
  producer.join();
  for (auto& t : query_threads) t.join();
  system.Stop();
  return static_cast<double>(digested_before_stop) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  auto trace_session = kflush::bench::TraceSessionFromArgs(argc, argv);
  PrintHeader("fig10a", "policy bookkeeping memory (MB) vs k");
  for (uint32_t k : {5, 20, 80}) {
    for (PolicyKind policy : AllPolicies()) {
      ExperimentConfig config = DefaultConfig(policy);
      config.store.k = k;
      config.num_queries /= 2;
      ExperimentResult result = RunExperiment(config);
      const double overhead_mb =
          static_cast<double>(result.aux_memory_bytes +
                              result.peak_flush_buffer_bytes) /
          (1 << 20);
      PrintRow("fig10a", PolicyKindName(policy), "k=" + std::to_string(k),
               overhead_mb);
      PrintRow("fig10a", std::string(PolicyKindName(policy)) + ":flushbuf",
               "k=" + std::to_string(k),
               static_cast<double>(result.peak_flush_buffer_bytes) /
                   (1 << 20));
    }
  }

  PrintHeader("fig10b",
              "digestion rate (K tweets/sec) under concurrent flush+query");
  const double seconds = 3.0 * Scale() < 0.5 ? 0.5 : 3.0 * Scale();
  for (uint32_t k : {5, 20, 80}) {
    for (PolicyKind policy : AllPolicies()) {
      const double rate = MeasureDigestionRate(policy, k, seconds);
      PrintRow("fig10b", PolicyKindName(policy), "k=" + std::to_string(k),
               rate / 1000.0);
    }
  }
  return 0;
}
