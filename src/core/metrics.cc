#include "core/metrics.h"

#include <sstream>

namespace kflush {

const char* QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kSingle:
      return "single";
    case QueryType::kAnd:
      return "AND";
    case QueryType::kOr:
      return "OR";
  }
  return "unknown";
}

std::string QueryLatencySeries(QueryType type, bool memory_hit) {
  static constexpr const char* kTypeSlug[3] = {"single", "and", "or"};
  return std::string("query.latency_micros.") +
         kTypeSlug[static_cast<int>(type)] + (memory_hit ? ".hit" : ".miss");
}

namespace {

uint64_t HistogramCount(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.count();
}

}  // namespace

QueryMetricsSnapshot QueryMetricsFromRegistry(const MetricsSnapshot& now,
                                              const MetricsSnapshot& before) {
  QueryMetricsSnapshot m;
  for (int t = 0; t < 3; ++t) {
    const std::string hit = QueryLatencySeries(static_cast<QueryType>(t), true);
    const std::string miss =
        QueryLatencySeries(static_cast<QueryType>(t), false);
    const uint64_t hits =
        HistogramCount(now, hit) - HistogramCount(before, hit);
    const uint64_t misses =
        HistogramCount(now, miss) - HistogramCount(before, miss);
    m.hits_by_type[t] = hits;
    m.queries_by_type[t] = hits + misses;
    m.memory_hits += hits;
    m.memory_misses += misses;
  }
  m.queries = m.memory_hits + m.memory_misses;
  m.disk_term_reads = now.counter_or("query.disk_term_reads") -
                      before.counter_or("query.disk_term_reads");
  return m;
}

std::string QueryMetricsSnapshot::ToString() const {
  std::ostringstream os;
  os << "queries=" << queries << " hit_ratio=" << HitRatio() * 100.0 << "%"
     << " (single=" << HitRatioFor(QueryType::kSingle) * 100.0
     << "% and=" << HitRatioFor(QueryType::kAnd) * 100.0
     << "% or=" << HitRatioFor(QueryType::kOr) * 100.0
     << "%) disk_term_reads=" << disk_term_reads;
  return os.str();
}

}  // namespace kflush
