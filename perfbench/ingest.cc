// ingest: the single-node digestion rate under flushing (the paper's
// Fig. 10b quantity). One shard, a 32 MB budget and the volatile
// SimDiskStore; one client thread submits a pre-generated seeded stream in
// 500-tweet batches through blocking Submit, a closed loop through
// backpressure. Set-up streams the head of the same stream until several
// flush cycles have run. No queries run, so query-path changes must leave
// this workload unchanged.
//
// One shard keeps the busy threads (client, digestion, flusher) below the
// host's four cores; multi-shard scaling is not gated here.

#include <chrono>
#include <cstdio>

#include "core/trace.h"
#include "perfbench.h"
#include "workloads.h"

namespace kflush {
namespace perfbench {
namespace {

constexpr size_t kBatch = 500;
/// Sizes the timed stream: ~220 K tweets/s on a 4-vCPU host.
constexpr double kNominalTweetsPerSec = 220'000;
constexpr uint64_t kWarmupCycles = 4;
/// Bounds the warm-up should the budget never fill.
constexpr uint64_t kWarmupTweetCap = 2'000'000;
/// Small, so Submit blocks on digestion instead of racing ahead.
constexpr size_t kQueueBatches = 8;

struct Round {
  double setup_s = 0;
  double tweets_per_s = 0;
  double rss_mb = 0;
  uint64_t tweets = 0;
  uint64_t route_cpu_us = 0;
  Samples submit_us;
  SpanSnapshots span;  // the timed phase
};

Round RunRound(const RunOptions& opt, int round, Report* report) {
  Round r;
  const auto setup_start = std::chrono::steady_clock::now();
  TweetGenerator gen(StreamOptions(DeriveSeed(opt.seed, 0, round)));
  ShardedSystemOptions options = SystemOptionsFor(
      1, static_cast<size_t>((32u << 20) * opt.scale));
  options.system.ingest_queue_capacity = kQueueBatches;
  ShardedMicroblogSystem system(options);
  system.Start();

  // Warm-up: the head of the stream, until several flush cycles have run.
  uint64_t offered = 0;
  const uint64_t warmup_cap =
      static_cast<uint64_t>(kWarmupTweetCap * opt.scale);
  while (offered < warmup_cap && FlushCycles(&system) < kWarmupCycles) {
    std::vector<Microblog> batch;
    gen.FillBatch(kBatch, &batch);
    offered += batch.size();
    system.Submit(std::move(batch));
  }
  WaitDigested(&system);
  const double timed_seconds = opt.seconds / kRounds;
  auto timed = MakeBatches(
      &gen,
      static_cast<size_t>(kNominalTweetsPerSec * timed_seconds * opt.scale),
      kBatch);
  report->Check(FlushCycles(&system) >= kWarmupCycles, offered,
                "warm-up ran " + std::to_string(FlushCycles(&system)) +
                    " flush cycles, want " + std::to_string(kWarmupCycles));
  r.span.before = ShardSnapshots(&system);
  const uint64_t copies_before = system.routed_copies();
  r.setup_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            setup_start)
                  .count();

  // Timed phase: first timed Submit until digested() == routed_copies().
  const auto start = std::chrono::steady_clock::now();
  const uint64_t cpu_start = ThreadCpuMicros();
  for (auto& batch : timed) {
    r.tweets += batch.size();
    const auto t0 = std::chrono::steady_clock::now();
    {
      TraceSpan span("bench", "submit");
      system.Submit(std::move(batch));
    }
    r.submit_us.Add(MicrosSince(t0));
  }
  r.route_cpu_us = ThreadCpuMicros() - cpu_start;
  {
    TraceSpan span("bench", "drain");
    WaitDigested(&system);
  }
  r.tweets_per_s = 1e6 * static_cast<double>(r.tweets) / MicrosSince(start);
  offered += r.tweets;
  r.span.tweets = r.tweets;
  r.span.copies = system.routed_copies() - copies_before;
  r.span.after = ShardSnapshots(&system);
  report->Attempted(r.tweets);

  report->Check(system.accepted() == offered, r.tweets,
                "accepted " + std::to_string(system.accepted()) +
                    " != offered " + std::to_string(offered));
  report->Check(system.digested() == system.routed_copies(), r.tweets,
                "digested != routed copies");

  timed.clear();
  if (round == kRounds - 1) r.rss_mb = TrimmedRssMb();
  system.Stop();
  return r;
}

}  // namespace

void RunIngest(const RunOptions& opt, Report* report) {
  std::vector<Round> rounds;
  for (int i = 0; i < kRounds; ++i) {
    rounds.push_back(RunRound(opt, i, report));
    std::printf("[perfbench] ingest       round %d: set-up %.3f s, %.0f "
                "tweets/s\n",
                i, rounds.back().setup_s, rounds.back().tweets_per_s);
  }

  std::vector<double> setup, rate, submit_p50;
  std::vector<SpanSnapshots> spans;
  Samples submit;
  uint64_t tweets = 0, route_cpu = 0;
  for (Round& r : rounds) {
    setup.push_back(r.setup_s);
    rate.push_back(r.tweets_per_s);
    submit_p50.push_back(r.submit_us.Percentile(50));
    spans.push_back(r.span);
    submit.Append(r.submit_us);
    tweets += r.tweets;
    route_cpu += r.route_cpu_us;
  }
  const uint64_t n = rounds.size();

  report->EndToEnd("setup_s", Median(setup), "s", Better::kLower, n);
  report->EndToEnd("ops_per_s", Median(rate), "1/s", Better::kHigher, n);
  report->EndToEnd("op_p50_us", Median(submit_p50), "us", Better::kLower,
                   submit.count());
  report->EndToEnd("rss_mb", rounds.back().rss_mb, "MB", Better::kLower, 1);
  report->EndToEnd("ingest_tweets_per_s", Median(rate), "1/s",
                   Better::kHigher, n);
  report->Layer("submit_p99_us", submit.Percentile(99), "us",
                submit.count());
  report->Layer("route.cpu_us_per_tweet",
                static_cast<double>(route_cpu) / tweets, "us", tweets);
  ReportStoreLayers(spans, report);

  if (opt.trace) {
    // The last round again, under the tracer; its Submit p50 against the
    // untraced last round (both on a warm heap) gives the tracing overhead.
    // The flusher emits the most events: ~0.26 per tweet, warm-up included
    // (a span per flush phase, an instant per evicted entry).
    Report scratch("ingest");
    TracedRegion region(rounds.back().tweets * 3 / 5 + kTraceSlack);
    const Round traced = RunRound(opt, kRounds - 1, &scratch);
    region.Finish(report);
    Samples untraced_submit = rounds.back().submit_us;
    Samples traced_submit = traced.submit_us;
    ReportTraceOverhead(untraced_submit.Percentile(50),
                        traced_submit.Percentile(50), report);
    report->Check(scratch.correct(), 0, "traced round failed its checks");
  }
}

}  // namespace perfbench
}  // namespace kflush
