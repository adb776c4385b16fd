// Subscription-overhead benchmark: what do standing queries cost the
// ingest path? The digestion hot loop gained an OnInsert publish hook
// (sub/subscription_manager.h); this bench measures the same seeded
// stream inserted into the same sharded deployment at four points:
//
//   nomanager — no SubscriptionManager attached at all (the PR-9 path)
//   subs0     — manager attached, zero standing queries (hook overhead:
//               one atomic load per insert, nothing else)
//   subs100   — 100 standing keyword queries over the hot vocabulary
//   subs10000 — 10,000 standing queries (stress fan-out in the hook)
//
// Each point is the fastest of five full runs, with the repeats
// round-robined across the points (rather than all repeats of one point
// back to back) so slow host-frequency drift lands on every point
// equally. The zero-subscription overhead vs the no-manager baseline —
// the perf-gate input for "an idle subscription subsystem is free"
// (budget: <= 2% = 200 bps, enforced by scripts/validate_bench_json.py)
// — is a *paired* estimator exported as bench.zero_sub_overhead_bps:
// the median over repeats of the per-repeat nomanager/subs0 throughput
// ratio, because the two runs of a pair execute back to back (drift
// cancels) and the median sheds jitter spikes a best-of comparison is
// still exposed to.
//
// Rows:
//   [subscriptions] ingest_tweets_per_sec  <point>  <best-of-5>
//   [subscriptions] overhead_pct           <point>  <vs nomanager>
//   [subscriptions] deltas_published       <point>  <manager counter>
//   [subscriptions] zero_sub_overhead_bps  subs0    <paired median>
//
// The BENCH_subscriptions.json artifact carries one aggregated snapshot
// per point, with the manager's sub.* families merged in (the validator
// re-checks sub.deltas_published == sub.deltas_pushed +
// sub.deltas_dropped_on_disconnect per point) plus the bench.* gauges.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/metrics_registry.h"
#include "core/sharded_store.h"
#include "gen/tweet_generator.h"
#include "sub/subscription_manager.h"

namespace kflush {
namespace {

constexpr size_t kShards = 2;
constexpr uint32_t kSubK = 10;
constexpr int kRepeats = 5;

struct PointResult {
  double ingest_tweets_per_sec = 0.0;
  uint64_t deltas_published = 0;
  MetricsSnapshot snapshot;
};

/// One full run: fresh deployment, optional manager with `num_subs`
/// standing keyword queries, insert the whole stream, then run the mixed
/// query workload the validator's per-type latency rule expects.
/// `num_subs` < 0 means no manager at all.
PointResult RunOne(int num_subs, const std::vector<Microblog>& stream,
                   uint64_t vocabulary_size) {
  ShardedStoreOptions options;
  // Flush-active: the stream overshoots the budget, so eviction hooks
  // (OnRecordEvicted -> refill scheduling) are part of what is measured.
  options.store.memory_budget_bytes =
      static_cast<size_t>(8.0 * bench::Scale() * (1 << 20));
  options.store.k = 20;
  options.store.policy = PolicyKind::kKFlushing;
  options.num_shards = kShards;
  ShardedMicroblogStore store(options);

  std::unique_ptr<SubscriptionManager> subs;
  std::vector<uint64_t> sub_ids;
  if (num_subs >= 0) {
    subs = MakeSubscriptions(store.engine());
    sub_ids.reserve(static_cast<size_t>(num_subs));
    for (int i = 0; i < num_subs; ++i) {
      SubscriptionSpec spec;
      spec.kind = SubKind::kKeyword;
      spec.k = kSubK;
      spec.term = static_cast<TermId>(
          static_cast<uint64_t>(i) % (vocabulary_size > 0 ? vocabulary_size
                                                          : 1));
      auto id = subs->Subscribe(spec);
      if (id.ok()) sub_ids.push_back(*id);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  for (const Microblog& blog : stream) {
    Status s = store.Insert(blog);
    if (!s.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
      break;
    }
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  // Query phase (outside the timed window): one batch per query type so
  // the aggregated snapshot carries every per-type latency family.
  for (uint64_t q = 0; q < 200; ++q) {
    const TermId a = static_cast<TermId>(q % vocabulary_size);
    const TermId b = static_cast<TermId>((q + 7) % vocabulary_size);
    store.engine()->Execute({{a}, QueryType::kSingle, 10});
    store.engine()->Execute({{a, b}, QueryType::kAnd, 10});
    store.engine()->Execute({{a, b}, QueryType::kOr, 10});
  }

  PointResult r;
  r.ingest_tweets_per_sec =
      secs > 0.0 ? static_cast<double>(stream.size()) / secs : 0.0;
  r.snapshot = store.AggregatedMetrics();
  if (subs != nullptr) {
    // Drained shutdown: consume every outbox so the accounting the
    // validator re-checks partitions into pushed (drained) only.
    subs->ProcessPendingRefills();
    std::vector<SubDelta> deltas;
    for (uint64_t id : sub_ids) {
      deltas.clear();
      subs->DrainDeltas(id, &deltas);
    }
    subs->Shutdown();
    const MetricsSnapshot sub_snap = subs->metrics_registry()->Snapshot();
    for (const auto& [name, value] : sub_snap.counters) {
      r.snapshot.counters[name] = value;
    }
    for (const auto& [name, value] : sub_snap.gauges) {
      r.snapshot.gauges[name] = value;
    }
    r.deltas_published = sub_snap.counters.count("sub.deltas_published") > 0
                             ? sub_snap.counters.at("sub.deltas_published")
                             : 0;
  }
  return r;
}

}  // namespace
}  // namespace kflush

int main(int argc, char** argv) {
  using namespace kflush;
  auto trace = bench::TraceSessionFromArgs(argc, argv);
  bench::PrintHeader("subscriptions",
                     "ingest throughput vs standing-query count "
                     "(best-of-5, round-robin; overhead vs no-manager "
                     "baseline)");

  TweetGeneratorOptions stream_options;
  stream_options.seed = 20160516;
  stream_options.vocabulary_size =
      static_cast<uint64_t>(20'000 * bench::Scale());
  if (stream_options.vocabulary_size == 0) stream_options.vocabulary_size = 1;
  stream_options.num_users = static_cast<uint64_t>(10'000 * bench::Scale());
  if (stream_options.num_users == 0) stream_options.num_users = 1;
  stream_options.keyword_zipf_s = 1.2;
  uint64_t total_tweets = static_cast<uint64_t>(60'000 * bench::Scale());
  // Floor the stream length: the zero-subscription gate compares two
  // timed regions against each other, and below ~20k tweets (a few ms
  // of work at CI scale) the comparison swings past the 2% budget on
  // scheduler jitter alone.
  if (total_tweets < 20'000) total_tweets = 20'000;

  TweetGenerator gen(stream_options);
  std::vector<Microblog> stream;
  gen.FillBatch(total_tweets, &stream);

  struct Point {
    const char* key;
    int num_subs;  // -1: no manager attached
  };
  const Point points[] = {
      {"nomanager", -1}, {"subs0", 0}, {"subs100", 100}, {"subs10000", 10000}};

  // One untimed warm-up run so the first measured point does not pay the
  // allocator / page-cache cold start alone (the overhead gate compares
  // the first two points against each other).
  RunOne(-1, stream, stream_options.vocabulary_size);

  // Round-robin the repeats across the points so host-frequency drift
  // over the measurement window biases every point alike; a sequential
  // per-point layout was seen swinging the nomanager/subs0 comparison by
  // +-8% on a shared host.
  constexpr size_t kNumPoints = sizeof(points) / sizeof(points[0]);
  PointResult bests[kNumPoints];
  std::vector<double> rep_tps[kNumPoints];
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (size_t i = 0; i < kNumPoints; ++i) {
      PointResult r =
          RunOne(points[i].num_subs, stream, stream_options.vocabulary_size);
      rep_tps[i].push_back(r.ingest_tweets_per_sec);
      if (r.ingest_tweets_per_sec > bests[i].ingest_tweets_per_sec) {
        bests[i] = std::move(r);
      }
    }
  }

  // The zero-subscription perf gate uses a paired estimator, not the
  // best-of numbers above: within each repeat the nomanager and subs0
  // runs execute back to back, so their per-repeat ratio cancels slow
  // host-frequency drift, and the median over repeats sheds the jitter
  // spikes that routinely swing a single comparison by +-3% on a shared
  // host — more than the whole 2% budget.
  std::vector<double> paired_ratios;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const double base = rep_tps[0][static_cast<size_t>(rep)];
    const double subs0 = rep_tps[1][static_cast<size_t>(rep)];
    if (base > 0.0 && subs0 > 0.0) paired_ratios.push_back(base / subs0);
  }
  std::sort(paired_ratios.begin(), paired_ratios.end());
  const double median_ratio =
      paired_ratios.empty() ? 1.0 : paired_ratios[paired_ratios.size() / 2];
  const int64_t zero_sub_overhead_bps =
      median_ratio > 1.0
          ? static_cast<int64_t>((median_ratio - 1.0) * 10'000.0)
          : 0;

  std::vector<std::pair<std::string, MetricsSnapshot>> artifacts;
  double baseline_tps = 0.0;
  for (size_t i = 0; i < kNumPoints; ++i) {
    const Point& point = points[i];
    PointResult& best = bests[i];
    if (point.num_subs < 0) baseline_tps = best.ingest_tweets_per_sec;
    const double overhead_pct =
        baseline_tps > 0.0 && best.ingest_tweets_per_sec > 0.0
            ? (baseline_tps / best.ingest_tweets_per_sec - 1.0) * 100.0
            : 0.0;
    bench::PrintRow("subscriptions", "ingest_tweets_per_sec", point.key,
                    best.ingest_tweets_per_sec);
    bench::PrintRow("subscriptions", "overhead_pct", point.key, overhead_pct);
    bench::PrintRow("subscriptions", "deltas_published", point.key,
                    static_cast<double>(best.deltas_published));

    best.snapshot.gauges["bench.num_subscriptions"] =
        point.num_subs < 0 ? -1 : point.num_subs;
    best.snapshot.gauges["bench.ingest_tweets_per_sec"] =
        static_cast<int64_t>(best.ingest_tweets_per_sec);
    best.snapshot.gauges["bench.baseline_tweets_per_sec"] =
        static_cast<int64_t>(baseline_tps);
    // Basis points so the integer gauge keeps enough resolution for the
    // 2% (200 bps) budget; negative (faster than baseline) clamps to 0.
    const int64_t overhead_bps =
        overhead_pct > 0.0 ? static_cast<int64_t>(overhead_pct * 100.0) : 0;
    best.snapshot.gauges["bench.overhead_bps"] = overhead_bps;
    if (point.num_subs == 0) {
      best.snapshot.gauges["bench.zero_sub_overhead_bps"] =
          zero_sub_overhead_bps;
      bench::PrintRow("subscriptions", "zero_sub_overhead_bps", point.key,
                      static_cast<double>(zero_sub_overhead_bps));
    }
    artifacts.emplace_back(point.key, std::move(best.snapshot));
  }
  bench::WriteBenchJson("subscriptions", artifacts);
  return 0;
}
