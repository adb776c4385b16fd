// Shared pieces of perfbench, the repository's end-to-end benchmark (see
// perfbench/README.md): run options, seeded inputs, exact latency samples,
// the metric report and its result line, process RSS, output checks on
// top-k answers, and per-layer self time from a trace.
//
// Every number is taken from outside the program: the benchmark times its
// own calls into public functions and reads exact counters (histograms
// only through count() and sum()) from MetricsRegistry snapshots.

#ifndef KFLUSH_PERFBENCH_PERFBENCH_H_
#define KFLUSH_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/metrics_registry.h"
#include "core/query_engine.h"
#include "core/sharded_system.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"

namespace kflush {
namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Each workload sizes its timed work to take about this long on a
  /// 4-vCPU host, split evenly over kRounds rounds.
  double seconds = 10.0;
  /// With tracing, the run also replays its last round under the tracer
  /// and reports per-layer self time.
  bool trace = false;
  /// Multiplies every input size; below 1 for smoke runs.
  double scale = 1.0;
  /// Scratch space for durable store directories.
  std::string workdir = ".";
};

/// Independent set-ups per run. Set-up time, throughput and (except on
/// query_replay) median latency are medians over the rounds, so one
/// disturbed round -- typically the first, on a cold heap -- does not move
/// a run.
constexpr int kRounds = 5;

/// The seed of generator `stream` in round `round`: every input of a run
/// derives from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t round);

/// The paper-default tweet stream (bench/bench_util.h): 200 K hashtags
/// with Zipf s = 1.2, 100 K users, ~140-byte texts.
TweetGeneratorOptions StreamOptions(uint64_t seed);
/// The paper's correlated query mix, k from the store: single, AND and OR
/// queries in strict rotation, so every seed runs exactly 1/3 of each and
/// only the sampled terms differ.
class QueryMix {
 public:
  QueryMix(uint64_t seed, const TweetGeneratorOptions& stream);
  TopKQuery Next();

 private:
  std::vector<QueryGenerator> by_type_;  // indexed by QueryType
  size_t next_ = 0;
};

/// The store configuration every workload shares: kFlushing, k = 20,
/// B = 10 % of `budget_bytes`.
ShardedSystemOptions SystemOptionsFor(size_t shards, size_t budget_bytes);

/// Generates `tweets` tweets as consecutive batches of `batch` tweets.
std::vector<std::vector<Microblog>> MakeBatches(TweetGenerator* gen,
                                                size_t tweets, size_t batch);

/// Every per-operation sample of one quantity, kept; percentiles by
/// nearest rank, never from bucketed histograms.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// Nearest-rank percentile for p in (0, 100]; 0 when empty.
  double Percentile(double p);
  double Mean() const;

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

double Median(std::vector<double> values);

/// Microseconds, with fractions, since `start` on the steady clock.
inline double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Σ count and Σ sum of one histogram across registry snapshots.
struct HistogramTotals {
  uint64_t count = 0;
  uint64_t sum = 0;
  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};
HistogramTotals Totals(const std::vector<MetricsSnapshot>& snaps,
                       const std::string& name);
uint64_t CounterSum(const std::vector<MetricsSnapshot>& snaps,
                    const std::string& name);
int64_t GaugeSum(const std::vector<MetricsSnapshot>& snaps,
                 const std::string& name);
/// One registry snapshot per shard store.
std::vector<MetricsSnapshot> ShardSnapshots(ShardedMicroblogSystem* system);

enum class Better { kLower, kHigher };

class Report;

/// Every shard's registry around one round's measured span. An empty
/// `before` means the span starts at the system's construction.
struct SpanSnapshots {
  std::vector<MetricsSnapshot> before, after;
  uint64_t tweets = 0;  // tweets accepted in the span
  uint64_t copies = 0;  // copies routed in the span
};

/// Reports the routing, digestion, flushing and memory layers over the
/// rounds' spans: route.copies_per_tweet, digest.*, flush.* and memory.*.
void ReportStoreLayers(const std::vector<SpanSnapshots>& spans,
                       Report* report);

/// The run's metrics and output-check outcome. Every metric prints on its
/// own line with unit, direction and sample count; the last line carries
/// them all as JSON for perfbench/run.py.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void EndToEnd(const std::string& name, double value,
                const std::string& unit, Better better, uint64_t samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             uint64_t samples);
  void Attempted(uint64_t ops) { attempted_ += ops; }
  /// An output check. A failed one fails the run and counts `ops`
  /// operations as failed.
  void Check(bool ok, uint64_t ops, const std::string& what);
  /// Operations that failed without failing a check (a NACKed request).
  void Failed(uint64_t ops) { failed_ += ops; }
  bool correct() const { return checks_failed_ == 0; }

  /// Prints "PERFBENCH_RESULT {correct, attempted, failed, metrics}".
  void PrintResult() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  void Add(const char* section, const std::string& name, double value,
           const std::string& unit, const char* better, uint64_t samples);

  std::string workload_;
  std::map<std::string, Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_failed_ = 0;
};

/// VmRSS in MB after returning freed allocator pages to the OS. Workloads
/// read it once per run, after the last round's timed phase: returning
/// pages between rounds makes the next round fault them back in, and on a
/// VM with free page reporting each such fault can cost a host fault,
/// which tied round timings to what other processes had just freed.
double TrimmedRssMb();

/// Blocks until every routed copy is digested.
void WaitDigested(ShardedMicroblogSystem* system);

/// Blocks until the system is quiet: every copy digested, no shard over
/// budget, and no flush cycle in flight. Answers then depend only on the
/// inputs, not on thread timing.
void WaitQuiet(ShardedMicroblogSystem* system);

/// Σ flush cycles over shards.
uint64_t FlushCycles(ShardedMicroblogSystem* system);

/// The least number of flush cycles any one shard has run.
uint64_t MinShardFlushCycles(ShardedMicroblogSystem* system);

/// Checks one top-k answer: at most `k` results in strict (score desc, id
/// desc) order, and each result carries the query term (single), both
/// terms (AND) or at least one (OR). Empty string when the answer is
/// well-formed, else what is wrong.
std::string CheckAnswer(const TopKQuery& query, uint32_t k,
                        const QueryResult& result);

/// Order-sensitive running hash of answer ids (FNV-1a), kept to 52 bits so
/// it prints exactly as a JSON number.
class AnswerDigest {
 public:
  void Add(const QueryResult& result);
  uint64_t value() const { return hash_ & ((uint64_t{1} << 52) - 1); }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// Records the global tracer for one region and turns the recorded spans
/// into self time per layer: a span's duration minus the part its child
/// spans on the same thread cover, summed by layer (the span category:
/// net, shard → route, system → digest, flush, query, disk, wal,
/// store → recover, bench → harness).
class TracedRegion {
 public:
  explicit TracedRegion(size_t capacity_per_thread);
  ~TracedRegion();

  TracedRegion(const TracedRegion&) = delete;
  TracedRegion& operator=(const TracedRegion&) = delete;

  /// Stops recording and reports self_ms.<layer>. Fails the report if the
  /// rings dropped any event or a span did not nest.
  void Finish(Report* report);

 private:
  bool finished_ = false;
};

/// Trace ring slots per thread beyond a traced round's estimated need.
constexpr size_t kTraceSlack = 16'384;

/// Reports trace.overhead_pct: how much slower `traced` ran than
/// `untraced` (a per-operation time of the same round, lower is better).
void ReportTraceOverhead(double untraced, double traced, Report* report);

}  // namespace perfbench
}  // namespace kflush

#endif  // KFLUSH_PERFBENCH_PERFBENCH_H_
