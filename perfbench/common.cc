#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/ranking.h"
#include "core/trace.h"
#include "perfbench.h"

namespace kflush {
namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t round) {
  // SplitMix64 finalizer over the three coordinates.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               round * 0x94D049BB133111EBull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TweetGeneratorOptions StreamOptions(uint64_t seed) {
  TweetGeneratorOptions options;
  options.seed = seed;
  options.vocabulary_size = 200'000;
  options.num_users = 100'000;
  options.keyword_zipf_s = 1.2;
  return options;
}

QueryMix::QueryMix(uint64_t seed, const TweetGeneratorOptions& stream) {
  for (QueryType type : {QueryType::kSingle, QueryType::kAnd, QueryType::kOr}) {
    QueryWorkloadOptions options;
    options.seed = DeriveSeed(seed, static_cast<uint64_t>(type), 0);
    options.kind = WorkloadKind::kCorrelated;
    options.single_fraction = type == QueryType::kSingle ? 1.0 : 0.0;
    options.and_fraction = type == QueryType::kAnd ? 1.0 : 0.0;
    by_type_.emplace_back(options, stream);
  }
}

TopKQuery QueryMix::Next() {
  TopKQuery query = by_type_[next_].Next();
  next_ = (next_ + 1) % by_type_.size();
  return query;
}

ShardedSystemOptions SystemOptionsFor(size_t shards, size_t budget_bytes) {
  ShardedSystemOptions options;
  options.num_shards = shards;
  options.system.store.memory_budget_bytes = budget_bytes;
  options.system.store.flush_fraction = 0.10;
  options.system.store.k = 20;
  options.system.store.policy = PolicyKind::kKFlushing;
  return options;
}

std::vector<std::vector<Microblog>> MakeBatches(TweetGenerator* gen,
                                                size_t tweets, size_t batch) {
  std::vector<std::vector<Microblog>> batches;
  batches.reserve((tweets + batch - 1) / batch);
  for (size_t done = 0; done < tweets; done += batch) {
    batches.emplace_back();
    gen->FillBatch(std::min(batch, tweets - done), &batches.back());
  }
  return batches;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double p) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

HistogramTotals Totals(const std::vector<MetricsSnapshot>& snaps,
                       const std::string& name) {
  HistogramTotals totals;
  for (const MetricsSnapshot& snap : snaps) {
    auto it = snap.histograms.find(name);
    if (it == snap.histograms.end()) continue;
    totals.count += it->second.count();
    totals.sum += it->second.sum();
  }
  return totals;
}

uint64_t CounterSum(const std::vector<MetricsSnapshot>& snaps,
                    const std::string& name) {
  uint64_t total = 0;
  for (const MetricsSnapshot& snap : snaps) total += snap.counter_or(name);
  return total;
}

int64_t GaugeSum(const std::vector<MetricsSnapshot>& snaps,
                 const std::string& name) {
  int64_t total = 0;
  for (const MetricsSnapshot& snap : snaps) {
    auto it = snap.gauges.find(name);
    if (it != snap.gauges.end()) total += it->second;
  }
  return total;
}

std::vector<MetricsSnapshot> ShardSnapshots(ShardedMicroblogSystem* system) {
  std::vector<MetricsSnapshot> snaps;
  for (size_t i = 0; i < system->num_shards(); ++i) {
    snaps.push_back(system->shard_store(i)->metrics_registry()->Snapshot());
  }
  return snaps;
}

void ReportStoreLayers(const std::vector<SpanSnapshots>& spans,
                       Report* report) {
  uint64_t tweets = 0, copies = 0, digest_cpu = 0, flush_cpu = 0, stalls = 0,
           cycles = 0, freed = 0;
  uint64_t phase_micros[3] = {0, 0, 0};
  double data_mb = 0, policy_mb = 0;
  for (const SpanSnapshots& span : spans) {
    auto delta = [&span](const std::string& counter) {
      return CounterSum(span.after, counter) -
             CounterSum(span.before, counter);
    };
    auto sum_delta = [&span](const std::string& histogram) {
      return Totals(span.after, histogram).sum -
             Totals(span.before, histogram).sum;
    };
    tweets += span.tweets;
    copies += span.copies;
    digest_cpu += sum_delta("system.digest_cpu_micros_per_batch");
    flush_cpu += sum_delta("flush.cycle_cpu_micros");
    stalls += delta("system.digestion_stalls");
    cycles += delta("flush.cycles");
    for (int p = 0; p < 3; ++p) {
      const std::string prefix = "flush.phase" + std::to_string(p + 1) + ".";
      phase_micros[p] += delta(prefix + "micros");
      freed += delta(prefix + "bytes_freed");
    }
    data_mb += GaugeSum(span.after, "memory.data_used_bytes") / 1048576.0;
    policy_mb +=
        GaugeSum(span.after, "memory.policy_overhead_bytes") / 1048576.0;
  }
  auto per = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const uint64_t n = spans.size();
  report->Layer("route.copies_per_tweet", per(copies, tweets), "ratio",
                tweets);
  report->Layer("digest.cpu_us_per_copy", per(digest_cpu, copies), "us",
                copies);
  report->Layer("digest.stalls", static_cast<double>(stalls), "count", n);
  report->Layer("flush.cpu_us_per_tweet", per(flush_cpu, tweets), "us",
                tweets);
  for (int p = 0; p < 3; ++p) {
    report->Layer("flush.phase" + std::to_string(p + 1) + "_ms",
                  phase_micros[p] / 1000.0, "ms", cycles);
  }
  report->Layer("flush.cycles", static_cast<double>(cycles), "count", n);
  report->Layer("flush.mb_freed_per_cycle", per(freed, cycles) / 1048576.0,
                "MB", cycles);
  report->Layer("memory.data_mb", per(data_mb, n), "MB", n);
  report->Layer("memory.policy_mb", per(policy_mb, n), "MB", n);
}

namespace {

/// JSON number with every digit; non-finite values (a NACK is an infinite
/// latency) print as the largest double.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = value < 0 ? -1.0e308 : 1.0e308;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Add(const char* section, const std::string& name, double value,
                 const std::string& unit, const char* better,
                 uint64_t samples) {
  metrics_[name] = Entry{value, unit};
  std::printf("[perfbench] %-12s %-14s %-32s %16.6f %-6s  (%s, n=%llu)\n",
              workload_.c_str(), section, name.c_str(), value, unit.c_str(),
              better, static_cast<unsigned long long>(samples));
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, Better better,
                      uint64_t samples) {
  Add("end-to-end", name, value, unit,
      better == Better::kLower ? "lower is better" : "higher is better",
      samples);
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, uint64_t samples) {
  Add("per-layer", name, value, unit, "per-layer", samples);
}

void Report::Check(bool ok, uint64_t ops, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  failed_ += ops;
  std::printf("[perfbench] %-12s CHECK FAILED: %s\n", workload_.c_str(),
              what.c_str());
}

void Report::PrintResult() const {
  std::ostringstream out;
  const uint64_t attempted = std::max<uint64_t>(attempted_, 1);
  out << "PERFBENCH_RESULT {\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted
      << ", \"failed\": " << std::min(failed_, attempted)
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << JsonNumber(entry.value)
        << ", \"unit\": \"" << entry.unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

double TrimmedRssMb() {
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

namespace {

void Nap() { std::this_thread::sleep_for(std::chrono::microseconds(50)); }

}  // namespace

void WaitDigested(ShardedMicroblogSystem* system) {
  while (system->digested() != system->routed_copies()) Nap();
}

uint64_t FlushCycles(ShardedMicroblogSystem* system) {
  uint64_t cycles = 0;
  for (size_t i = 0; i < system->num_shards(); ++i) {
    cycles += system->shard_store(i)->policy()->stats().flush_cycles;
  }
  return cycles;
}

uint64_t MinShardFlushCycles(ShardedMicroblogSystem* system) {
  uint64_t least = UINT64_MAX;
  for (size_t i = 0; i < system->num_shards(); ++i) {
    least = std::min(least,
                     system->shard_store(i)->policy()->stats().flush_cycles);
  }
  return least;
}

void WaitQuiet(ShardedMicroblogSystem* system) {
  auto quiet = [system] {
    if (system->digested() != system->routed_copies()) return false;
    for (size_t i = 0; i < system->num_shards(); ++i) {
      MicroblogStore* store = system->shard_store(i);
      if (store->MemoryFull()) return false;
      if (store->ingest_stats().flush_triggers !=
          store->policy()->stats().flush_cycles) {
        return false;
      }
    }
    return true;
  };
  while (!quiet()) Nap();
}

std::string CheckAnswer(const TopKQuery& query, uint32_t k,
                        const QueryResult& result) {
  static const TemporalRanking ranking;
  const auto& rs = result.results;
  if (rs.size() > k) {
    return std::to_string(rs.size()) + " results for k = " +
           std::to_string(k);
  }
  for (size_t i = 0; i < rs.size(); ++i) {
    if (i > 0) {
      const double prev = ranking.Score(rs[i - 1]);
      const double cur = ranking.Score(rs[i]);
      if (!(prev > cur || (prev == cur && rs[i - 1].id > rs[i].id))) {
        return "results " + std::to_string(i - 1) + "," + std::to_string(i) +
               " break the strict (score desc, id desc) order";
      }
    }
    size_t carried = 0;
    for (TermId term : query.terms) {
      if (std::find(rs[i].keywords.begin(), rs[i].keywords.end(),
                    static_cast<KeywordId>(term)) != rs[i].keywords.end()) {
        ++carried;
      }
    }
    const bool ok = query.type == QueryType::kOr
                        ? carried >= 1
                        : carried == query.terms.size();
    if (!ok) {
      return "result id " + std::to_string(rs[i].id) + " lacks the " +
             QueryTypeName(query.type) + " query's terms";
    }
  }
  return "";
}

void AnswerDigest::Add(const QueryResult& result) {
  auto mix = [this](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  };
  mix(result.results.size());
  for (const Microblog& blog : result.results) mix(blog.id);
}

TracedRegion::TracedRegion(size_t capacity_per_thread) {
  Tracer::Global()->Start(capacity_per_thread);
}

TracedRegion::~TracedRegion() {
  if (!finished_) Tracer::Global()->Stop();
}

namespace {

const char* LayerOf(const char* category) {
  static const std::map<std::string, const char*> kLayers = {
      {"net", "net"},     {"shard", "route"}, {"system", "digest"},
      {"flush", "flush"}, {"query", "query"}, {"disk", "disk"},
      {"wal", "wal"},     {"store", "recover"}, {"bench", "harness"}};
  auto it = kLayers.find(category);
  return it == kLayers.end() ? "other" : it->second;
}

}  // namespace

void TracedRegion::Finish(Report* report) {
  finished_ = true;
  Tracer* tracer = Tracer::Global();
  tracer->Stop();
  const uint64_t dropped = tracer->events_dropped();
  const std::vector<TraceEvent> events = tracer->Snapshot();
  tracer->Clear();

  struct Open {
    const TraceEvent* begin;
    uint64_t child_micros;
  };
  std::map<uint32_t, std::vector<Open>> stacks;  // per thread
  std::map<std::string, uint64_t> self_micros;
  uint64_t unmatched = 0;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kSpanBegin) {
      stacks[e.tid].push_back({&e, 0});
    } else if (e.type == TraceEventType::kSpanEnd) {
      std::vector<Open>& stack = stacks[e.tid];
      if (stack.empty() || stack.back().begin->name != e.name ||
          stack.back().begin->category != e.category) {
        ++unmatched;
        continue;
      }
      const Open open = stack.back();
      stack.pop_back();
      const uint64_t dur = e.ts_micros - open.begin->ts_micros;
      self_micros[LayerOf(e.category)] +=
          dur > open.child_micros ? dur - open.child_micros : 0;
      if (!stack.empty()) stack.back().child_micros += dur;
    }
  }
  for (const auto& [tid, stack] : stacks) unmatched += stack.size();

  report->Check(dropped == 0, 0,
                "trace rings dropped " + std::to_string(dropped) +
                    " events; raise the traced run's capacity");
  report->Check(unmatched == 0, 0,
                std::to_string(unmatched) + " trace spans did not nest");
  for (const char* layer : {"net", "route", "digest", "flush", "query",
                            "disk", "wal", "recover", "harness"}) {
    report->Layer(std::string("self_ms.") + layer,
                  static_cast<double>(self_micros[layer]) / 1000.0, "ms",
                  events.size());
  }
}

void ReportTraceOverhead(double untraced, double traced, Report* report) {
  report->Layer("trace.overhead_pct",
                untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0, "%",
                2);
}

}  // namespace perfbench
}  // namespace kflush
