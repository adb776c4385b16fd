// The reproducible experiment driver behind every figure in the paper's
// evaluation (§V): build a store under one flushing policy, stream
// synthetic tweets until steady state (memory filled, several flushes
// done — "all results are collected only in the steady state"), then
// replay a query workload interleaved with continued ingest at the
// paper's tweet/query rate ratio, and report hit ratios and memory
// statistics. Single-threaded and fully deterministic (SimClock + seeded
// generators) over ShardedMicroblogStore at every shard count; the
// threaded digestion-rate experiment (Figure 10(b)) uses
// ShardedMicroblogSystem directly instead.

#ifndef KFLUSH_SIM_EXPERIMENT_H_
#define KFLUSH_SIM_EXPERIMENT_H_

#include <cstdint>
#include <string>

#include "core/query_engine.h"
#include "core/store.h"
#include "core/trace.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"
#include "index/index_stats.h"
#include "policy/flush_policy.h"

namespace kflush {

/// Full configuration of one experiment run.
struct ExperimentConfig {
  StoreOptions store;
  TweetGeneratorOptions stream;
  QueryWorkloadOptions workload;

  /// Number of index shards (1 = the single node). Every result field
  /// reports cross-shard aggregates (store.memory_budget_bytes is the
  /// total, split across shards).
  size_t shards = 1;

  /// Steady state is declared after this many flush cycles have run.
  uint64_t steady_state_flushes = 3;
  /// Safety cap on streamed tweets while reaching steady state.
  uint64_t max_stream_tweets = 3'000'000;
  /// Queries measured after steady state.
  uint64_t num_queries = 20'000;
  /// Queries per second (paper: 25,000 query/s against 6,000 tweet/s);
  /// with the stream's arrival interval this fixes how many tweets are
  /// ingested between consecutive queries.
  double queries_per_second = 25'000.0;

  /// Record a per-victim eviction audit trail over the whole run and
  /// cross-check it against the policy's PhaseStats (result fields
  /// eviction_audit / audit_reconciliation). Unbounded memory in the
  /// number of victims; meant for debugging and integration tests.
  bool audit_evictions = false;
};

/// Everything the figures read off one run.
struct ExperimentResult {
  /// Hit ratios over the measured query phase, from the registry
  /// snapshots taken around it (QueryMetricsFromRegistry).
  QueryMetricsSnapshot query_metrics;
  /// k-filled terms at the end of the run (Figures 7/11/12).
  size_t k_filled_terms = 0;
  size_t num_terms = 0;
  /// Policy bookkeeping overhead + peak flush-buffer bytes (Figure 10(a)).
  size_t aux_memory_bytes = 0;
  size_t peak_flush_buffer_bytes = 0;
  /// In-memory frequency snapshot (Figure 1 / §V-A analysis).
  FrequencySnapshot frequency;
  PolicyStats policy_stats;
  IngestStats ingest_stats;
  DiskStats disk_stats;
  size_t data_bytes_used = 0;
  uint64_t tweets_streamed = 0;
  /// True if steady state was reached within the stream cap.
  bool reached_steady_state = false;
  /// Full registry snapshot at the end of the run, aggregated over the
  /// shards: every instrument plus the provider-exported component stats
  /// (the `flush.phaseN.*` and `query.latency_micros.*` series the
  /// benchmarks serialize); with more than one shard, also each shard's
  /// series under a "shard<i>." prefix.
  MetricsSnapshot metrics;
  /// With config.audit_evictions: every eviction victim of the run, and
  /// the outcome of ReconcileAuditWithStats (OK when the audit sums match
  /// the per-phase counters exactly). The per-shard trails are
  /// concatenated (records carry their shard id), and each shard is
  /// reconciled against its own policy; the first failure is reported.
  std::vector<EvictionAuditRecord> eviction_audit;
  Status audit_reconciliation = Status::OK();

  std::string ToString() const;
};

/// Runs one experiment (single-threaded, deterministic).
ExperimentResult RunExperiment(const ExperimentConfig& config);

/// Samples of data-memory utilization over time (Figure 5): streams
/// tweets and records utilization (fraction of budget) after every
/// `sample_every` arrivals, for `num_samples` samples.
std::vector<double> MemoryTimeline(const ExperimentConfig& config,
                                   uint64_t sample_every,
                                   size_t num_samples);

}  // namespace kflush

#endif  // KFLUSH_SIM_EXPERIMENT_H_
