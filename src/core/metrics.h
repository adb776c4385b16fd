// Query-side metrics: the memory hit ratio (the paper's headline measure)
// broken down by query type, read off the registry's query.* series.

#ifndef KFLUSH_CORE_METRICS_H_
#define KFLUSH_CORE_METRICS_H_

#include <cstdint>
#include <string>

#include "core/metrics_registry.h"

namespace kflush {

/// Query kinds (single-term, multi-term AND, multi-term OR).
enum class QueryType : int { kSingle = 0, kAnd, kOr };

const char* QueryTypeName(QueryType type);

/// The registry histogram that times one query of `type` with the given
/// outcome: query.latency_micros.<single|and|or>.<hit|miss>.
std::string QueryLatencySeries(QueryType type, bool memory_hit);

/// Hit-ratio view of the queries recorded in a registry snapshot.
struct QueryMetricsSnapshot {
  uint64_t queries = 0;
  uint64_t memory_hits = 0;
  uint64_t memory_misses = 0;
  uint64_t disk_term_reads = 0;
  uint64_t queries_by_type[3] = {0, 0, 0};
  uint64_t hits_by_type[3] = {0, 0, 0};

  /// memory_hits / queries, in [0, 1]; 0 when no queries ran.
  double HitRatio() const {
    return queries == 0
               ? 0.0
               : static_cast<double>(memory_hits) / static_cast<double>(queries);
  }

  double HitRatioFor(QueryType type) const {
    const int i = static_cast<int>(type);
    return queries_by_type[i] == 0
               ? 0.0
               : static_cast<double>(hits_by_type[i]) /
                     static_cast<double>(queries_by_type[i]);
  }

  std::string ToString() const;
};

/// The queries recorded between two snapshots of one deployment's
/// registry (aggregated across shards when sharded); pass only `now` for
/// everything since start. Every count is summed from the six
/// query.latency_micros.<type>.<hit|miss> histogram counts, so hits can
/// never exceed queries, not even on a snapshot taken while queries run.
QueryMetricsSnapshot QueryMetricsFromRegistry(
    const MetricsSnapshot& now, const MetricsSnapshot& before = {});

}  // namespace kflush

#endif  // KFLUSH_CORE_METRICS_H_
