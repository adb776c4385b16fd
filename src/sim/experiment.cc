#include "sim/experiment.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "core/sharded_store.h"
#include "util/logging.h"

namespace kflush {

namespace {

/// Shared run state: a store driven by a SimClock pinned to the stream's
/// arrival timestamps.
struct Run {
  explicit Run(const ExperimentConfig& config)
      : clock(config.stream.start_time),
        store([&] {
          StoreOptions so = config.store;
          so.clock = &clock;
          so.auto_flush = true;
          return so;
        }()),
        engine(&store),
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
  MicroblogStore store;
  QueryEngine engine;
  TweetGenerator tweets;
  QueryGenerator queries;
};

/// Sharded variant of Run: ingest routes through ShardedMicroblogStore,
/// queries through the fan-out engine.
struct ShardedRun {
  explicit ShardedRun(const ExperimentConfig& config)
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

/// Phase B of both drivers: measured queries through `engine`,
/// interleaved with continued ingest at the configured tweet/query rate
/// ratio.
template <typename RunT>
void RunMeasuredQueries(const ExperimentConfig& config, RunT* run,
                        QueryEngineBase* engine) {
  TraceSpan measured_span("experiment", "measured_queries",
                          {TraceArg::Uint("queries", config.num_queries)});
  const double tweets_per_query =
      config.queries_per_second <= 0.0
          ? 0.0
          : 1e6 / (config.queries_per_second *
                   static_cast<double>(
                       std::max<Timestamp>(
                           config.stream.arrival_interval_micros, 1)));
  double ingest_debt = 0.0;
  for (uint64_t q = 0; q < config.num_queries; ++q) {
    ingest_debt += tweets_per_query;
    while (ingest_debt >= 1.0) {
      run->StreamOne();
      ingest_debt -= 1.0;
    }
    run->clock.Advance(1);  // queries razor-advance the clock
    auto outcome = engine->Execute(run->queries.Next());
    if (!outcome.ok()) {
      KFLUSH_WARN("experiment query failed: " << outcome.status().ToString());
    }
  }
  measured_span.End();
}

ExperimentResult RunShardedExperiment(const ExperimentConfig& config) {
  ShardedRun run(config);
  ExperimentResult result;
  const size_t n = run.store.num_shards();

  std::deque<EvictionAuditTrail> audits;
  if (config.audit_evictions) {
    for (size_t i = 0; i < n; ++i) {
      audits.emplace_back();
      run.store.shard(i)->policy()->set_audit_trail(&audits.back());
    }
  }

  {
    TraceSpan span("experiment", "stream_to_steady_state",
                   {TraceArg::Uint("shards", n)});
    // Steady state for the deployment: the shards have together triggered
    // the configured number of flush cycles (each over its own slice of
    // the budget, so per-record cost matches the single-shard driver).
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

  const MetricsSnapshot before = run.store.AggregatedMetrics();
  RunMeasuredQueries(config, &run, run.store.engine());
  result.metrics = run.store.AggregatedMetrics(/*include_per_shard=*/true);
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

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  if (config.shards > 1) {
    return RunShardedExperiment(config);
  }
  Run run(config);
  ExperimentResult result;

  EvictionAuditTrail audit;
  if (config.audit_evictions) {
    run.store.policy()->set_audit_trail(&audit);
  }

  // --- Phase A: reach steady state ("after filling the main-memory
  // budget and have multiple data flushes", §V). ---
  {
    TraceSpan span("experiment", "stream_to_steady_state");
    while (run.store.ingest_stats().flush_triggers <
               config.steady_state_flushes &&
           run.tweets.generated() < config.max_stream_tweets) {
      run.StreamOne();
    }
    span.End({TraceArg::Uint("tweets", run.tweets.generated())});
  }
  result.reached_steady_state =
      run.store.ingest_stats().flush_triggers >= config.steady_state_flushes;

  // --- Phase B: measured queries. ---
  const MetricsSnapshot before = run.store.metrics_registry()->Snapshot();
  RunMeasuredQueries(config, &run, &run.engine);

  // --- Collect. ---
  result.metrics = run.store.metrics_registry()->Snapshot();
  result.query_metrics = QueryMetricsFromRegistry(result.metrics, before);
  const FlushPolicy* policy = run.store.policy();
  if (config.audit_evictions) {
    run.store.policy()->set_audit_trail(nullptr);
    result.eviction_audit = audit.Records();
    result.audit_reconciliation =
        ReconcileAuditWithStats(result.eviction_audit, policy->stats());
  }
  result.k_filled_terms = policy->NumKFilledTerms();
  result.num_terms = policy->NumTerms();
  result.aux_memory_bytes = policy->AuxMemoryBytes();
  result.policy_stats = policy->stats();
  result.ingest_stats = run.store.ingest_stats();
  result.disk_stats = run.store.disk()->stats();
  result.data_bytes_used = run.store.tracker().DataUsed();
  result.tweets_streamed = run.tweets.generated();

  std::vector<size_t> sizes;
  policy->CollectEntrySizes(&sizes);
  result.frequency = ComputeFrequencySnapshot(sizes, run.store.k());

  result.peak_flush_buffer_bytes = run.store.flush_buffer().peak_bytes();
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
    samples.push_back(
        static_cast<double>(run.store.tracker().DataUsed()) / budget);
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
