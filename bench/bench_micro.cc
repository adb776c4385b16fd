// Component micro-benchmarks (google-benchmark): the hot paths behind the
// system-level numbers — posting-list insertion, index insert/query, the
// Phase 2 single-pass victim selection, record (de)serialization, and the
// end-to-end store insert path per policy.

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.h"
#include "core/store.h"
#include "core/trace.h"
#include "gen/tweet_generator.h"
#include "index/inverted_index.h"
#include "storage/serde.h"
#include "util/clock.h"
#include "util/zipf.h"

namespace kflush {
namespace {

void BM_PostingListHeadInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    PostingList list;
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      list.Insert(static_cast<MicroblogId>(i), static_cast<double>(i));
    }
    benchmark::DoNotOptimize(list.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PostingListHeadInsert);

void BM_PostingListTrim(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    PostingList list;
    for (size_t i = 0; i < n; ++i) {
      list.Insert(static_cast<MicroblogId>(i), static_cast<double>(i));
    }
    std::vector<Posting> trimmed;
    state.ResumeTiming();
    list.TrimBeyondK(20, nullptr, &trimmed);
    benchmark::DoNotOptimize(trimmed.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_PostingListTrim)->Arg(100)->Arg(1000)->Arg(10000);

void BM_InvertedIndexInsert(benchmark::State& state) {
  InvertedIndex index;
  Rng rng(1);
  ZipfGenerator zipf(100000, 1.1);
  MicroblogId id = 0;
  for (auto _ : state) {
    ++id;
    index.Insert(zipf.Sample(&rng), id, static_cast<double>(id), id, 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvertedIndexInsert);

void BM_InvertedIndexQuery(benchmark::State& state) {
  InvertedIndex index;
  Rng rng(2);
  ZipfGenerator zipf(10000, 1.1);
  for (MicroblogId id = 0; id < 200000; ++id) {
    index.Insert(zipf.Sample(&rng), id, static_cast<double>(id), id, 0);
  }
  std::vector<Posting> out;
  for (auto _ : state) {
    out.clear();
    index.Query(zipf.Sample(&rng), 20, 1, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InvertedIndexQuery);

void BM_SerdeRoundTrip(benchmark::State& state) {
  TweetGeneratorOptions opts;
  TweetGenerator gen(opts);
  Microblog blog = gen.Next();
  blog.id = 1;
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    EncodeMicroblog(blog, &buf);
    Microblog decoded;
    size_t consumed = 0;
    benchmark::DoNotOptimize(
        DecodeMicroblog(buf.data(), buf.size(), &decoded, &consumed).ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_SerdeRoundTrip);

void BM_StoreInsert(benchmark::State& state) {
  const PolicyKind policy = static_cast<PolicyKind>(state.range(0));
  StoreOptions opts;
  opts.policy = policy;
  opts.memory_budget_bytes = 64 << 20;
  opts.k = 20;
  MicroblogStore store(opts);
  TweetGeneratorOptions gopts;
  gopts.vocabulary_size = 100000;
  TweetGenerator gen(gopts);
  for (auto _ : state) {
    Status s = store.Insert(gen.Next());
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(PolicyKindName(policy));
}
BENCHMARK(BM_StoreInsert)
    ->Arg(static_cast<int>(PolicyKind::kFifo))
    ->Arg(static_cast<int>(PolicyKind::kLru))
    ->Arg(static_cast<int>(PolicyKind::kKFlushing))
    ->Arg(static_cast<int>(PolicyKind::kKFlushingMK));

void BM_TweetGeneration(benchmark::State& state) {
  TweetGeneratorOptions opts;
  TweetGenerator gen(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next().id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TweetGeneration);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(3);
  ZipfGenerator zipf(1000000, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

// --- Trace-recorder overhead: the disabled cases bound what compiled-in
// instrumentation costs every un-traced run (should be one relaxed load
// and a branch); the enabled case prices an actual ring emit.

void BM_TraceInstantDisabled(benchmark::State& state) {
  Tracer::Global()->Stop();
  uint64_t x = 0;
  for (auto _ : state) {
    KFLUSH_TRACE_INSTANT("bench", "noop", TraceArg::Uint("x", ++x));
  }
  benchmark::DoNotOptimize(x);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceInstantDisabled);

void BM_TraceSpanDisabled(benchmark::State& state) {
  Tracer::Global()->Stop();
  for (auto _ : state) {
    TraceSpan span("bench", "noop");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceInstantEnabled(benchmark::State& state) {
  Tracer::Global()->Start();
  uint64_t x = 0;
  for (auto _ : state) {
    KFLUSH_TRACE_INSTANT("bench", "emit", TraceArg::Uint("x", ++x),
                         TraceArg::Str("kind", "bench"));
  }
  benchmark::DoNotOptimize(x);
  Tracer::Global()->Stop();
  Tracer::Global()->Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceInstantEnabled);

// ---------------------------------------------------------------------------
// --breakdown mode: per-insert digestion cost, phase by phase.
//
// Runs outside google-benchmark: a real-path gate loop (store.Insert over
// pre-generated tweets, min CPU/insert across repetitions — the number the
// perf gate in scripts/validate_bench_json.py ratchets against) plus an
// instrumented loop that drives the same pipeline component by component to
// attribute the cost to tokenize / route / store / index / account phases.
// Emits BENCH_insert_breakdown.json (WriteBenchJson schema; validated by
// CI's bench-smoke job).
// ---------------------------------------------------------------------------

struct InsertBreakdown {
  uint64_t tokenize_ns = 0;  // attribute term extraction
  uint64_t route_ns = 0;     // id/timestamp stamping + ranking score
  uint64_t store_ns = 0;     // raw-store put (arena-backed blob encode)
  uint64_t index_ns = 0;     // policy insert into the inverted index
  uint64_t account_ns = 0;   // budget check + any inline flush it triggers
};

std::vector<Microblog> GenerateTweets(size_t n) {
  TweetGeneratorOptions gopts;
  gopts.vocabulary_size = 100000;
  TweetGenerator gen(gopts);
  std::vector<Microblog> tweets;
  tweets.reserve(n);
  for (size_t i = 0; i < n; ++i) tweets.push_back(gen.Next());
  return tweets;
}

StoreOptions BreakdownStoreOptions(PolicyKind policy) {
  StoreOptions opts;
  opts.policy = policy;
  opts.memory_budget_bytes = 64 << 20;
  opts.k = 20;
  return opts;
}

/// Real-path cost: CPU ns per store.Insert, minimum over `reps` runs (the
/// min is the stable estimator for thread CPU time under host noise).
uint64_t GateCpuNsPerInsert(PolicyKind policy,
                            const std::vector<Microblog>& tweets, int reps) {
  uint64_t best = ~uint64_t{0};
  for (int rep = 0; rep < reps; ++rep) {
    MicroblogStore store(BreakdownStoreOptions(policy));
    std::vector<Microblog> batch = tweets;  // consumed by move below
    const uint64_t begin = ThreadCpuNanos();
    for (Microblog& tweet : batch) {
      Status s = store.Insert(std::move(tweet));
      benchmark::DoNotOptimize(s.ok());
    }
    const uint64_t per_insert = (ThreadCpuNanos() - begin) / tweets.size();
    best = std::min(best, per_insert);
  }
  return best;
}

/// Phase attribution: drives the store's own components through the same
/// sequence MicroblogStore::Insert runs, a thread-CPU clock read between
/// phases. The clock reads add overhead the real path does not pay, so the
/// phase sum runs above the gate number; shares are what matter here.
InsertBreakdown BreakdownPhases(PolicyKind policy,
                                const std::vector<Microblog>& tweets,
                                MetricsSnapshot* store_metrics) {
  MicroblogStore store(BreakdownStoreOptions(policy));
  InsertBreakdown total;
  std::vector<TermId> terms;
  MicroblogId next_id = 1;
  for (const Microblog& tweet : tweets) {
    Microblog blog = tweet;
    const uint64_t t0 = ThreadCpuNanos();
    terms.clear();
    store.extractor()->ExtractTerms(blog, &terms);
    const uint64_t t1 = ThreadCpuNanos();
    blog.id = next_id++;
    blog.created_at = store.clock()->NowMicros();
    const double score = store.ranking()->Score(blog);
    const uint64_t t2 = ThreadCpuNanos();
    if (terms.empty()) continue;
    Status s = store.raw_store()->Put(blog, static_cast<uint32_t>(terms.size()));
    benchmark::DoNotOptimize(s.ok());
    const uint64_t t3 = ThreadCpuNanos();
    store.policy()->Insert(blog, terms, score);
    const uint64_t t4 = ThreadCpuNanos();
    if (store.MemoryFull()) store.FlushOnce();
    const uint64_t t5 = ThreadCpuNanos();
    total.tokenize_ns += t1 - t0;
    total.route_ns += t2 - t1;
    total.store_ns += t3 - t2;
    total.index_ns += t4 - t3;
    total.account_ns += t5 - t4;
  }
  const uint64_t n = tweets.size();
  *store_metrics = store.metrics_registry()->Snapshot();
  return InsertBreakdown{total.tokenize_ns / n, total.route_ns / n,
                         total.store_ns / n, total.index_ns / n,
                         total.account_ns / n};
}

int RunInsertBreakdown(size_t num_inserts) {
  // Floor of 20K inserts: the perf gate compares bench.insert_cpu_ns across
  // runs, and tiny samples are dominated by cold caches and scheduler noise.
  const size_t n = std::max<size_t>(
      20000, static_cast<size_t>(static_cast<double>(num_inserts) *
                                 kflush::bench::Scale()));
  std::printf("=== insert breakdown: %zu inserts/policy, SIMD=%s ===\n", n,
              simd::kAvx2Enabled ? "avx2" : "scalar");
  const std::vector<Microblog> tweets = GenerateTweets(n);
  std::vector<std::pair<std::string, MetricsSnapshot>> per_policy;
  for (PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
        PolicyKind::kKFlushingMK}) {
    const uint64_t gate_ns = GateCpuNsPerInsert(policy, tweets, /*reps=*/5);
    MetricsSnapshot store_metrics;
    const InsertBreakdown phases =
        BreakdownPhases(policy, tweets, &store_metrics);
    const uint64_t phase_sum = phases.tokenize_ns + phases.route_ns +
                               phases.store_ns + phases.index_ns +
                               phases.account_ns;
    MetricsSnapshot snap;
    snap.counters["ingest.inserted"] = n;
    snap.gauges["bench.inserts"] = static_cast<int64_t>(n);
    snap.gauges["bench.insert_cpu_ns"] = static_cast<int64_t>(gate_ns);
    snap.gauges["bench.tweets_per_sec"] =
        static_cast<int64_t>(gate_ns == 0 ? 0 : 1'000'000'000ull / gate_ns);
    snap.gauges["bench.phase_ns.tokenize"] =
        static_cast<int64_t>(phases.tokenize_ns);
    snap.gauges["bench.phase_ns.route"] = static_cast<int64_t>(phases.route_ns);
    snap.gauges["bench.phase_ns.store"] = static_cast<int64_t>(phases.store_ns);
    snap.gauges["bench.phase_ns.index"] = static_cast<int64_t>(phases.index_ns);
    snap.gauges["bench.phase_ns.account"] =
        static_cast<int64_t>(phases.account_ns);
    snap.gauges["bench.phase_ns.sum"] = static_cast<int64_t>(phase_sum);
    std::printf(
        "%-14s %6lu ns/insert (%lu tweets/s) | tokenize %lu route %lu "
        "store %lu index %lu account %lu (sum %lu, incl. timer overhead)\n",
        PolicyKindName(policy), static_cast<unsigned long>(gate_ns),
        static_cast<unsigned long>(gate_ns == 0 ? 0
                                                : 1'000'000'000ull / gate_ns),
        static_cast<unsigned long>(phases.tokenize_ns),
        static_cast<unsigned long>(phases.route_ns),
        static_cast<unsigned long>(phases.store_ns),
        static_cast<unsigned long>(phases.index_ns),
        static_cast<unsigned long>(phases.account_ns),
        static_cast<unsigned long>(phase_sum));
    // Flush attribution from the instrumented run (the `account` phase in
    // bulk is flush amortization; this splits it by policy phase).
    const auto& counters = store_metrics.counters;
    auto counter = [&](const char* name) -> uint64_t {
      auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;
    };
    std::printf(
        "  flush: %lu cycles, %lu records | phase micros p1 %lu p2 %lu "
        "p3 %lu\n",
        static_cast<unsigned long>(counter("flush.cycles")),
        static_cast<unsigned long>(counter("flush.records_flushed")),
        static_cast<unsigned long>(counter("flush.phase1.micros")),
        static_cast<unsigned long>(counter("flush.phase2.micros")),
        static_cast<unsigned long>(counter("flush.phase3.micros")));
    for (const char* name :
         {"flush.cycles", "flush.records_flushed", "flush.phase1.micros",
          "flush.phase2.micros", "flush.phase3.micros"}) {
      snap.counters[name] = counter(name);
    }
    per_policy.emplace_back(PolicyKindName(policy), std::move(snap));
  }
  return kflush::bench::WriteBenchJson("insert_breakdown", per_policy).empty()
             ? 1
             : 0;
}

}  // namespace
}  // namespace kflush

int main(int argc, char** argv) {
  // --breakdown[=N] short-circuits into the phase-attribution mode; every
  // other invocation runs the google-benchmark suite unchanged.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--breakdown") == 0) {
      return kflush::RunInsertBreakdown(100000);
    }
    if (std::strncmp(argv[i], "--breakdown=", 12) == 0) {
      return kflush::RunInsertBreakdown(
          static_cast<size_t>(std::strtoull(argv[i] + 12, nullptr, 10)));
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
