// query_replay: the paper's §V replay. Correlated top-k queries (1/3
// single, 1/3 AND, 1/3 OR) run on a steady-state store, with ingest
// interleaved at the paper's 6 000 tweets/s to 25 000 queries/s. Two
// shards, so the OR fan-out and its top-k merge run; a 32 MB total budget
// under ~3x as much data, so both the memory path and the disk path run.
//
// Determinism: a SimClock is set to each batch's last arrival before its
// Submit and advances 1 us per query, and after every Submit the driver
// waits until the system is quiet (WaitQuiet). The hit ratio, flush
// cycles, disk reads and every answer then repeat exactly for a seed.
// Queries run one at a time on this thread; only the time inside Query
// counts.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/trace.h"
#include "perfbench.h"
#include "workloads.h"

namespace kflush {
namespace perfbench {
namespace {

constexpr size_t kPreloadTweets = 300'000;
constexpr size_t kPreloadBatch = 500;
/// Sizes the timed query count: ~600 queries/s on a 4-vCPU host.
constexpr double kNominalQueriesPerSec = 600;
/// The paper's replay ratio, 6 000 tweets/s against 25 000 queries/s.
constexpr double kTweetsPerQuery = 6000.0 / 25000.0;
/// Interleaved ingest arrives in batches this size (one per 100 queries).
constexpr size_t kInterleaveBatch = 24;
constexpr uint32_t kK = 20;

const char* const kTypeNames[] = {"single", "and", "or"};

struct Round {
  double setup_s = 0;
  double query_seconds = 0;
  double rss_mb = 0;
  uint64_t queries = 0;
  uint64_t bad_answers = 0;
  std::string first_bad;
  Samples all_us, type_us[3], hit_us, miss_us;
  uint64_t type_queries[3] = {0, 0, 0};
  uint64_t type_hits[3] = {0, 0, 0};
  uint64_t results = 0;
  uint64_t kfilled_terms = 0;
  uint64_t term_reads = 0, postings_read = 0, records_read = 0;
  SpanSnapshots span;  // the whole round: preload and replay
  AnswerDigest digest;
};

/// Submits one batch at its arrival time and waits for quiet.
void SubmitQuiet(ShardedMicroblogSystem* system, SimClock* clock,
                 std::vector<Microblog> batch) {
  TraceSpan span("bench", "submit_quiet");
  clock->Set(batch.back().created_at);
  system->Submit(std::move(batch));
  WaitQuiet(system);
}

Round RunRound(const RunOptions& opt, int round, Report* report) {
  Round r;
  const auto setup_start = std::chrono::steady_clock::now();
  TweetGenerator gen(StreamOptions(DeriveSeed(opt.seed, 1, round)));
  QueryMix queries(DeriveSeed(opt.seed, 2, round), gen.options());
  SimClock clock(gen.options().start_time);
  ShardedSystemOptions options = SystemOptionsFor(
      2, static_cast<size_t>((32u << 20) * opt.scale));
  options.system.store.clock = &clock;
  ShardedMicroblogSystem system(options);
  system.Start();

  const size_t preload = static_cast<size_t>(kPreloadTweets * opt.scale);
  uint64_t offered = 0;
  for (size_t done = 0; done < preload; done += kPreloadBatch) {
    std::vector<Microblog> batch;
    gen.FillBatch(std::min(kPreloadBatch, preload - done), &batch);
    offered += batch.size();
    SubmitQuiet(&system, &clock, std::move(batch));
  }
  r.setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            setup_start)
                  .count();

  const std::vector<MetricsSnapshot> before = ShardSnapshots(&system);
  r.queries = static_cast<uint64_t>(
      kNominalQueriesPerSec * opt.seconds / kRounds * opt.scale);
  double ingest_debt = 0;
  double query_micros = 0;
  for (uint64_t q = 0; q < r.queries; ++q) {
    ingest_debt += kTweetsPerQuery;
    if (ingest_debt >= kInterleaveBatch) {
      ingest_debt -= kInterleaveBatch;
      std::vector<Microblog> batch;
      gen.FillBatch(kInterleaveBatch, &batch);
      offered += batch.size();
      SubmitQuiet(&system, &clock, std::move(batch));
    }
    clock.Advance(1);
    const TopKQuery query = queries.Next();
    const int type = static_cast<int>(query.type);
    double us = 0;
    Result<QueryResult> result = [&] {
      TraceSpan span("bench", "query",
                     {TraceArg::Str("type", kTypeNames[type])});
      const auto t0 = std::chrono::steady_clock::now();
      Result<QueryResult> answer = system.Query(query);
      us = MicrosSince(t0);
      return answer;
    }();
    query_micros += us;
    if (!result.ok()) {
      ++r.bad_answers;
      if (r.first_bad.empty()) r.first_bad = result.status().ToString();
      continue;
    }
    const std::string problem = CheckAnswer(query, kK, *result);
    if (!problem.empty()) {
      ++r.bad_answers;
      if (r.first_bad.empty()) r.first_bad = problem;
    }
    r.all_us.Add(us);
    r.type_us[type].Add(us);
    (result->memory_hit ? r.hit_us : r.miss_us).Add(us);
    ++r.type_queries[type];
    r.type_hits[type] += result->memory_hit ? 1 : 0;
    r.results += result->results.size();
    r.digest.Add(*result);
  }
  r.query_seconds = query_micros / 1e6;
  const std::vector<MetricsSnapshot> after = ShardSnapshots(&system);
  report->Attempted(r.queries);
  report->Check(r.bad_answers == 0, r.bad_answers,
                std::to_string(r.bad_answers) +
                    " malformed answers; first: " + r.first_bad);
  report->Check(system.accepted() == offered, 0,
                "accepted " + std::to_string(system.accepted()) +
                    " != offered " + std::to_string(offered));

  r.term_reads = CounterSum(after, "disk.term_queries") -
                 CounterSum(before, "disk.term_queries");
  r.postings_read = (CounterSum(after, "disk.posting_bytes_read") -
                     CounterSum(before, "disk.posting_bytes_read")) /
                    sizeof(Posting);
  r.records_read = CounterSum(after, "disk.records_read") -
                   CounterSum(before, "disk.records_read");
  r.span.after = after;
  r.span.tweets = system.accepted();
  r.span.copies = system.routed_copies();
  for (size_t i = 0; i < system.num_shards(); ++i) {
    r.kfilled_terms += system.shard_store(i)->policy()->NumKFilledTerms();
  }
  if (round == kRounds - 1) r.rss_mb = TrimmedRssMb();
  system.Stop();
  return r;
}

}  // namespace

void RunQueryReplay(const RunOptions& opt, Report* report) {
  std::vector<Round> rounds;
  for (int i = 0; i < kRounds; ++i) {
    rounds.push_back(RunRound(opt, i, report));
    Round& r = rounds.back();
    std::printf("[perfbench] query_replay round %d: set-up %.3f s, %.1f "
                "queries/s, p50 %.1f us, hit ratio %.5f\n",
                i, r.setup_s, r.queries / r.query_seconds,
                r.all_us.Percentile(50),
                static_cast<double>(r.hit_us.count()) / r.queries);
  }

  std::vector<double> setup, qps;
  Samples all, type_us[3], hit, miss;
  std::vector<SpanSnapshots> spans;
  uint64_t queries = 0, hits = 0, results = 0, kfilled = 0, term_reads = 0,
           postings = 0, records = 0;
  uint64_t type_queries[3] = {0, 0, 0}, type_hits[3] = {0, 0, 0};
  AnswerDigest digest;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    qps.push_back(r.query_seconds > 0 ? r.queries / r.query_seconds : 0);
    all.Append(r.all_us);
    hit.Append(r.hit_us);
    miss.Append(r.miss_us);
    for (int t = 0; t < 3; ++t) {
      type_us[t].Append(r.type_us[t]);
      type_queries[t] += r.type_queries[t];
      type_hits[t] += r.type_hits[t];
      hits += r.type_hits[t];
    }
    queries += r.queries;
    results += r.results;
    spans.push_back(r.span);
    kfilled += r.kfilled_terms;
    term_reads += r.term_reads;
    postings += r.postings_read;
    records += r.records_read;
    // Chain the rounds' digests so the run's digest covers every answer.
    QueryResult link;
    link.results.resize(1);
    link.results[0].id = r.digest.value();
    digest.Add(link);
  }
  auto per = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
  };
  const uint64_t n = rounds.size();

  report->EndToEnd("setup_s", Median(setup), "s", Better::kLower, n);
  report->EndToEnd("ops_per_s", Median(qps), "1/s", Better::kHigher, n);
  // Pooled, unlike the other workloads' median of round medians: the
  // median query sits between the memory-hit and disk-miss modes, so one
  // round's median jumps with that round's data.
  report->EndToEnd("op_p50_us", all.Percentile(50), "us", Better::kLower,
                   all.count());
  report->EndToEnd("rss_mb", rounds.back().rss_mb, "MB", Better::kLower, 1);
  report->EndToEnd("query_p50_us", all.Percentile(50), "us", Better::kLower,
                   all.count());
  report->EndToEnd("query_p99_us", all.Percentile(99), "us", Better::kLower,
                   all.count());
  report->EndToEnd("queries_per_s", Median(qps), "1/s", Better::kHigher, n);
  report->EndToEnd("hit_ratio", per(hits, queries), "ratio", Better::kHigher,
                   queries);

  ReportStoreLayers(spans, report);
  report->Layer("index.kfilled_terms", static_cast<double>(kfilled), "count",
                n);
  report->Layer("query.single_p50_us", type_us[0].Percentile(50), "us",
                type_us[0].count());
  report->Layer("query.and_p50_us", type_us[1].Percentile(50), "us",
                type_us[1].count());
  report->Layer("query.and_p99_us", type_us[1].Percentile(99), "us",
                type_us[1].count());
  report->Layer("query.or_p50_us", type_us[2].Percentile(50), "us",
                type_us[2].count());
  report->Layer("query.hit_p50_us", hit.Percentile(50), "us", hit.count());
  report->Layer("query.miss_p50_us", miss.Percentile(50), "us", miss.count());
  for (int t = 0; t < 3; ++t) {
    report->Layer(std::string("query.hit_ratio.") + kTypeNames[t],
                  per(type_hits[t], type_queries[t]), "ratio",
                  type_queries[t]);
  }
  report->Layer("query.results_per_query", per(results, queries), "count",
                queries);
  report->Layer("query.answer_digest", static_cast<double>(digest.value()),
                "hash", queries);
  report->Layer("disk.term_reads_per_query", per(term_reads, queries),
                "count", queries);
  report->Layer("disk.postings_read_per_result", per(postings, results),
                "count", results);
  report->Layer("disk.records_read_per_query", per(records, queries),
                "count", queries);

  if (opt.trace) {
    // The query thread emits the most: ~9 events per query (query and
    // disk spans), plus the preload's submit spans.
    Report scratch("query_replay");
    TracedRegion region(20 * rounds.back().queries + kPreloadTweets / 50 +
                        kTraceSlack);
    Round traced = RunRound(opt, kRounds - 1, &scratch);
    region.Finish(report);
    ReportTraceOverhead(rounds.back().all_us.Mean(), traced.all_us.Mean(),
                        report);
    report->Check(scratch.correct(), 0, "traced round failed its checks");
    report->Check(traced.digest.value() == rounds.back().digest.value(), 0,
                  "traced round's answers differ from the untraced round's");
  }
}

}  // namespace perfbench
}  // namespace kflush
