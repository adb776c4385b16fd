#include "sim/experiment.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "core/sharded_store.h"
#include "util/logging.h"

namespace kflush {

namespace {

/// Run state: a deployment driven by a SimClock pinned to the stream's
/// arrival timestamps. Ingest routes through ShardedMicroblogStore at
/// every shard count (one shard is the single node), so every result
/// field reports cross-shard aggregates (store.memory_budget_bytes is the
/// total, split across shards).
struct Run {
  explicit Run(const ExperimentConfig& config)
      : clock(config.stream.start_time),
        store([&] {
          ShardedStoreOptions so;
          so.store = config.store;
          so.store.clock = &clock;
          so.store.auto_flush = true;
          so.num_shards = config.shards;
          return so;
        }()),
        tweets(config.stream),
        queries(config.workload, config.stream) {}

  /// Streams one tweet, advancing the clock to its arrival time.
  void StreamOne() {
    Microblog blog = tweets.Next();
    clock.Set(blog.created_at);
    Status s = store.Insert(std::move(blog));
    if (!s.ok()) {
      KFLUSH_WARN("experiment insert failed: " << s.ToString());
    }
  }

  SimClock clock;
  ShardedMicroblogStore store;
  TweetGenerator tweets;
  QueryGenerator queries;
};

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  Run run(config);
  ExperimentResult result;
  const size_t n = run.store.num_shards();

  std::deque<EvictionAuditTrail> audits;
  if (config.audit_evictions) {
    for (size_t i = 0; i < n; ++i) {
      audits.emplace_back();
      run.store.shard(i)->policy()->set_audit_trail(&audits.back());
    }
  }

  // --- Phase A: reach steady state ("after filling the main-memory
  // budget and have multiple data flushes", §V): the shards have together
  // triggered the configured number of flush cycles, each over its own
  // slice of the budget. ---
  {
    TraceSpan span("experiment", "stream_to_steady_state",
                   {TraceArg::Uint("shards", n)});
    while (run.store.AggregatedIngestStats().flush_triggers <
               config.steady_state_flushes &&
           run.tweets.generated() < config.max_stream_tweets) {
      run.StreamOne();
    }
    span.End({TraceArg::Uint("tweets", run.tweets.generated())});
  }
  result.reached_steady_state =
      run.store.AggregatedIngestStats().flush_triggers >=
      config.steady_state_flushes;

  // --- Phase B: measured queries, interleaved with continued ingest at
  // the configured tweet/query rate ratio. ---
  const MetricsSnapshot before = run.store.AggregatedMetrics();
  {
    TraceSpan measured_span("experiment", "measured_queries",
                            {TraceArg::Uint("queries", config.num_queries)});
    const double tweets_per_query =
        config.queries_per_second <= 0.0
            ? 0.0
            : 1e6 / (config.queries_per_second *
                     static_cast<double>(std::max<Timestamp>(
                         config.stream.arrival_interval_micros, 1)));
    double ingest_debt = 0.0;
    for (uint64_t q = 0; q < config.num_queries; ++q) {
      ingest_debt += tweets_per_query;
      while (ingest_debt >= 1.0) {
        run.StreamOne();
        ingest_debt -= 1.0;
      }
      run.clock.Advance(1);  // queries razor-advance the clock
      auto outcome = run.store.engine()->Execute(run.queries.Next());
      if (!outcome.ok()) {
        KFLUSH_WARN("experiment query failed: "
                    << outcome.status().ToString());
      }
    }
    measured_span.End();
  }

  // --- Collect. ---
  result.metrics = run.store.AggregatedMetrics(/*include_per_shard=*/n > 1);
  result.query_metrics = QueryMetricsFromRegistry(result.metrics, before);
  if (config.audit_evictions) {
    for (size_t i = 0; i < n; ++i) {
      FlushPolicy* policy = run.store.shard(i)->policy();
      policy->set_audit_trail(nullptr);
      const std::vector<EvictionAuditRecord> records = audits[i].Records();
      Status s = ReconcileAuditWithStats(records, policy->stats());
      if (!s.ok() && result.audit_reconciliation.ok()) {
        result.audit_reconciliation = s;
      }
      result.eviction_audit.insert(result.eviction_audit.end(),
                                   records.begin(), records.end());
    }
  }
  result.k_filled_terms = run.store.NumKFilledTerms();
  result.num_terms = run.store.NumTerms();
  result.aux_memory_bytes = run.store.AuxMemoryBytes();
  result.policy_stats = run.store.AggregatedPolicyStats();
  result.ingest_stats = run.store.AggregatedIngestStats();
  result.disk_stats = run.store.AggregatedDiskStats();
  result.data_bytes_used = run.store.DataUsed();
  result.tweets_streamed = run.tweets.generated();

  std::vector<size_t> sizes;
  run.store.CollectEntrySizes(&sizes);
  result.frequency = ComputeFrequencySnapshot(sizes, run.store.k());

  result.peak_flush_buffer_bytes = run.store.PeakFlushBufferBytes();
  return result;
}

std::vector<double> MemoryTimeline(const ExperimentConfig& config,
                                   uint64_t sample_every,
                                   size_t num_samples) {
  Run run(config);
  std::vector<double> samples;
  samples.reserve(num_samples);
  const double budget =
      static_cast<double>(config.store.memory_budget_bytes);
  while (samples.size() < num_samples) {
    for (uint64_t i = 0; i < sample_every; ++i) run.StreamOne();
    samples.push_back(static_cast<double>(run.store.DataUsed()) / budget);
  }
  return samples;
}

std::string ExperimentResult::ToString() const {
  std::ostringstream os;
  os << "steady=" << (reached_steady_state ? "yes" : "no")
     << " streamed=" << tweets_streamed << " terms=" << num_terms
     << " k_filled=" << k_filled_terms << " | " << query_metrics.ToString()
     << " | aux_bytes=" << aux_memory_bytes << " | "
     << frequency.ToString();
  return os.str();
}

}  // namespace kflush
