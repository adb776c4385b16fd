// wire_durable: the deployed service, as `kflushctl serve --durable-dir`
// runs it. Framed ingest and queries share one epoll loop over loopback,
// records route to two shards, the WAL group-commits at durability level
// batch, segments are sealed, and then the stopped directory is
// recovered. The only workload that runs net/, the WAL/segment tier and
// recovery, and the only one with writes beside reads.
//
// Load is an open loop over two connections, each with a sender and a
// reader thread: 64-tweet ingest batches with every 8th request a
// correlated-mix query, on fixed schedules offset by half an interval
// from each other (unstaggered schedules collide and double the ack
// median). The offered rate is ~40 % of the durable capacity with the
// preload in place. Latency runs from the scheduled send time; a NACK is a
// failed operation and an infinite latency.
//
// The server acks at admission, before the WAL commit, so the ack median
// is admission latency and net.commit_ms_mean is the delay until a write
// is durable.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "core/trace.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "perfbench.h"
#include "storage/segment.h"
#include "workloads.h"

namespace kflush {
namespace perfbench {
namespace {

constexpr size_t kShards = 2;
constexpr size_t kPreloadTweets = 60'000;
constexpr size_t kPreloadBatch = 500;
constexpr uint64_t kPreloadCycles = 3;  // per shard, at least
constexpr size_t kConnections = 2;
constexpr size_t kRequestRecords = 64;
constexpr size_t kQueryEvery = 8;
constexpr double kOfferedRecordsPerSec = 20'000;
constexpr size_t kBatteryQueries = 32;
constexpr uint32_t kK = 20;
/// A send this far behind its schedule counts as late (gen.late_frac).
constexpr uint64_t kLateMicros = 1000;

using SteadyClock = std::chrono::steady_clock;

struct Request {
  bool is_query = false;
  uint64_t records = 0;
  uint64_t sched_us = 0;  // from the timed phase's start
  TopKQuery query;
  std::string wire;
};

/// One connection's fixed schedule and what its reader observed.
struct Connection {
  std::vector<Request> requests;
  Samples ack_us, query_us;
  uint64_t acked = 0, skipped = 0, nacked = 0, nack_requests = 0;
  uint64_t sent = 0, late = 0, bad_answers = 0;
  double last_response_us = 0;
  std::string first_bad;
  bool transport_error = false;
};


void Sender(net::NetClient* client, SteadyClock::time_point start,
            Connection* conn, std::atomic<uint64_t>* sent,
            std::atomic<bool>* done) {
  // Under the tracer, a thread's first event allocates its ring: do it
  // before the first scheduled send.
  KFLUSH_TRACE_INSTANT("bench", "sender_start");
  for (const Request& request : conn->requests) {
    std::this_thread::sleep_until(start +
                                  std::chrono::microseconds(request.sched_us));
    if (MicrosSince(start) > request.sched_us + kLateMicros) ++conn->late;
    sent->fetch_add(1, std::memory_order_release);
    TraceSpan span("bench", "send");
    if (!client->SendRaw(request.wire).ok()) {
      conn->transport_error = true;
      sent->fetch_sub(1, std::memory_order_release);
      break;
    }
    ++conn->sent;
  }
  // The reader may be blocked with every answer already read; a final
  // ping's pong releases it.
  done->store(true, std::memory_order_release);
  std::string ping;
  net::EncodeEmpty(net::MsgType::kPing, conn->requests.size() + 1, &ping);
  sent->fetch_add(1, std::memory_order_release);
  if (!client->SendRaw(ping).ok()) conn->transport_error = true;
}

void Reader(net::NetClient* client, SteadyClock::time_point start,
            Connection* conn, const std::atomic<uint64_t>* sent,
            const std::atomic<bool>* done) {
  KFLUSH_TRACE_INSTANT("bench", "reader_start");
  uint64_t received = 0;
  while (!(done->load(std::memory_order_acquire) &&
           received >= sent->load(std::memory_order_acquire))) {
    Result<net::Message> reply = [&] {
      TraceSpan span("bench", "recv");
      return client->RecvMessage();
    }();
    if (!reply.ok()) {
      conn->transport_error = true;
      return;
    }
    ++received;
    if (reply->type == net::MsgType::kPong) continue;
    const uint64_t index = reply->request_id - 1;
    if (index >= conn->requests.size()) {
      conn->transport_error = true;
      continue;
    }
    const Request& request = conn->requests[index];
    const double now = MicrosSince(start);
    conn->last_response_us = now;
    const double latency = std::max(0.0, now - request.sched_us);
    if (reply->type == net::MsgType::kNack) {
      ++conn->nack_requests;
      conn->nacked += request.records;
      (request.is_query ? conn->query_us : conn->ack_us)
          .Add(std::numeric_limits<double>::infinity());
    } else if (request.is_query && reply->type == net::MsgType::kQueryResult) {
      conn->query_us.Add(latency);
      QueryResult result;
      result.results = std::move(reply->blogs);
      result.memory_hit = reply->memory_hit;
      const std::string problem = CheckAnswer(request.query, kK, result);
      if (!problem.empty()) {
        ++conn->bad_answers;
        if (conn->first_bad.empty()) conn->first_bad = problem;
      }
    } else if (!request.is_query &&
               reply->type == net::MsgType::kIngestAck) {
      conn->ack_us.Add(latency);
      conn->acked += reply->admitted;
      conn->skipped += reply->skipped;
    } else {
      conn->transport_error = true;
    }
  }
}

struct Round {
  double setup_s = 0;
  double acked_per_s = 0;
  double rss_mb = 0;
  double recovery_s = 0;
  Samples ack_us, query_us;
  uint64_t requests = 0, offered = 0, acked = 0, skipped = 0, nacked = 0;
  uint64_t nack_requests = 0, sent = 0, late = 0;
  uint64_t accepted = 0, routed = 0, recovered_copies = 0;
  uint64_t user_bytes = 0, segments = 0;
  uint64_t wal_records = 0, reinserted = 0;
  std::vector<MetricsSnapshot> shards;
  MetricsSnapshot net;
};

using Battery = std::vector<std::vector<MicroblogId>>;

/// The fixed battery of exact (force_disk) queries, in process.
Battery RunBattery(ShardedMicroblogSystem* system, uint64_t seed,
                   Report* report) {
  QueryMix queries(seed, StreamOptions(seed));
  Battery answers;
  for (size_t i = 0; i < kBatteryQueries; ++i) {
    TopKQuery query = queries.Next();
    query.force_disk = true;
    Result<QueryResult> result = system->Query(query);
    answers.emplace_back();
    if (!result.ok()) {
      report->Check(false, 1, "battery query: " + result.status().ToString());
      continue;
    }
    const std::string problem = CheckAnswer(query, kK, *result);
    report->Check(problem.empty(), 1, "battery answer: " + problem);
    for (const Microblog& blog : result->results) {
      answers.back().push_back(blog.id);
    }
  }
  return answers;
}

Round RunRound(const RunOptions& opt, int round, Report* report) {
  Round r;
  const auto setup_start = SteadyClock::now();
  TweetGenerator gen(StreamOptions(DeriveSeed(opt.seed, 3, round)));
  QueryMix queries(DeriveSeed(opt.seed, 4, round), gen.options());
  const std::string dir = opt.workdir + "/wire-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(round);
  std::filesystem::remove_all(dir);
  ShardedSystemOptions options = SystemOptionsFor(
      kShards, static_cast<size_t>((8u << 20) * opt.scale));
  options.system.store.durability.enabled = true;
  options.system.store.durability.dir = dir;
  options.system.store.durability.level = DurabilityLevel::kBatch;
  auto system = std::make_unique<ShardedMicroblogSystem>(options);
  report->Check(system->DurabilityStatus().ok(), 0,
                "durable tier: " + system->DurabilityStatus().ToString());
  system->Start();

  const size_t preload = static_cast<size_t>(kPreloadTweets * opt.scale);
  uint64_t preloaded = 0;
  for (auto& batch : MakeBatches(&gen, preload, kPreloadBatch)) {
    preloaded += batch.size();
    for (const Microblog& blog : batch) r.user_bytes += blog.FootprintBytes();
    system->Submit(std::move(batch));
  }
  WaitDigested(system.get());
  report->Check(MinShardFlushCycles(system.get()) >= kPreloadCycles, 0,
                "preload left a shard with " +
                    std::to_string(MinShardFlushCycles(system.get())) +
                    " flush cycles, want " + std::to_string(kPreloadCycles));

  // Fixed schedules: connection c sends request i at (i + c / 2) intervals.
  const double requests_per_sec =
      kOfferedRecordsPerSec /
      (kRequestRecords * (kQueryEvery - 1.0) / kQueryEvery);
  const double interval_us = 1e6 * kConnections / requests_per_sec;
  const size_t per_connection = std::max<size_t>(
      kQueryEvery, static_cast<size_t>(opt.seconds / kRounds * opt.scale *
                                       requests_per_sec / kConnections));
  std::vector<Connection> conns(kConnections);
  for (size_t i = 0; i < per_connection; ++i) {
    for (size_t c = 0; c < kConnections; ++c) {
      Request request;
      request.sched_us = static_cast<uint64_t>(
          (static_cast<double>(i) + static_cast<double>(c) / kConnections) *
          interval_us);
      if (i % kQueryEvery == kQueryEvery - 1) {
        request.is_query = true;
        request.query = queries.Next();
        net::EncodeQuery(i + 1, request.query, &request.wire);
      } else {
        std::vector<Microblog> blogs;
        gen.FillBatch(kRequestRecords, &blogs);
        for (const Microblog& blog : blogs) {
          r.user_bytes += blog.FootprintBytes();
        }
        request.records = blogs.size();
        r.offered += blogs.size();
        net::EncodeIngest(i + 1, blogs, &request.wire);
      }
      conns[c].requests.push_back(std::move(request));
    }
  }
  r.requests = per_connection * kConnections;

  // Destroyed before the system: the server's subscription manager hooks
  // the shard stores.
  auto server =
      std::make_unique<net::NetServer>(system.get(), net::ServerOptions{});
  Status started = server->Start();
  report->Check(started.ok(), r.requests, "server start: " +
                                              started.ToString());
  if (!started.ok()) return r;
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = net::NetClient::Connect("127.0.0.1", server->port());
    report->Check(client.ok(), r.requests,
                  "connect: " + client.status().ToString());
    if (!client.ok()) return r;
    clients.push_back(std::move(client).value());
  }
  r.setup_s =
      std::chrono::duration<double>(SteadyClock::now() - setup_start).count();

  // Timed phase, after a lead that lets the client threads start.
  const auto start = SteadyClock::now() + std::chrono::milliseconds(20);
  std::vector<std::atomic<uint64_t>> sent(kConnections);
  std::vector<std::atomic<bool>> done(kConnections);
  std::atomic<size_t> readers_done{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(Sender, clients[c].get(), start, &conns[c], &sent[c],
                         &done[c]);
    threads.emplace_back([&, c] {
      Reader(clients[c].get(), start, &conns[c], &sent[c], &done[c]);
      readers_done.fetch_add(1);
    });
  }
  // A reader still waiting long after the last send means lost answers:
  // stopping the server closes the connections and releases it.
  const auto give_up = start + std::chrono::microseconds(static_cast<uint64_t>(
                                   per_connection * interval_us)) +
                       std::chrono::seconds(30);
  while (readers_done.load() < kConnections &&
         SteadyClock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool answered = readers_done.load() == kConnections;
  if (!answered) server->Stop();
  for (auto& t : threads) t.join();
  report->Check(answered, r.requests, "responses missing after 30 s");

  double last_response_us = 0;
  for (Connection& conn : conns) {
    r.ack_us.Append(conn.ack_us);
    r.query_us.Append(conn.query_us);
    r.acked += conn.acked;
    r.skipped += conn.skipped;
    r.nacked += conn.nacked;
    r.nack_requests += conn.nack_requests;
    r.sent += conn.sent;
    r.late += conn.late;
    last_response_us = std::max(last_response_us, conn.last_response_us);
    report->Check(!conn.transport_error, conn.requests.size(),
                  "transport error on a connection");
    report->Check(conn.bad_answers == 0, conn.bad_answers,
                  "malformed wire answer: " + conn.first_bad);
    conn.requests.clear();
  }
  r.acked_per_s =
      1e6 * static_cast<double>(r.acked) / std::max(last_response_us, 1.0);
  report->Attempted(r.requests);
  report->Failed(r.nack_requests);
  report->Check(r.offered == r.acked + r.skipped + r.nacked, r.requests,
                "offered " + std::to_string(r.offered) + " != acked " +
                    std::to_string(r.acked) + " + skipped " +
                    std::to_string(r.skipped) + " + nacked " +
                    std::to_string(r.nacked));

  WaitQuiet(system.get());
  if (round == kRounds - 1) r.rss_mb = TrimmedRssMb();
  const Battery before = RunBattery(system.get(), DeriveSeed(opt.seed, 5, 0),
                                    report);

  server->Stop();
  system->Stop();
  r.shards = ShardSnapshots(system.get());
  r.net = server->metrics_registry()->Snapshot();
  clients.clear();
  server.reset();
  r.accepted = system->accepted();
  r.routed = system->routed_copies();
  report->Check(r.accepted == preloaded + r.acked + r.skipped, 0,
                "accepted != preloaded + acked + skipped");
  const uint64_t acks = r.net.counter_or("net.ingest_acks");
  for (const char* stage : {"decode", "admission", "commit", "respond"}) {
    const uint64_t count =
        Totals({r.net}, std::string("net.ingest_ack_micros.") + stage).count;
    report->Check(count == acks, 0,
                  std::string("stage ") + stage + " has " +
                      std::to_string(count) + " samples for " +
                      std::to_string(acks) + " acks");
  }
  for (size_t i = 0; i < system->num_shards(); ++i) {
    if (auto* segments =
            dynamic_cast<SegmentDiskStore*>(system->shard_store(i)->disk())) {
      r.segments += segments->NumSegments();
    }
  }
  system.reset();

  // Restart: construct a system on the stopped directory.
  std::unique_ptr<ShardedMicroblogSystem> recovered;
  {
    TraceSpan span("bench", "restart");
    const auto t0 = SteadyClock::now();
    recovered = std::make_unique<ShardedMicroblogSystem>(options);
    r.recovery_s = MicrosSince(t0) / 1e6;
  }
  report->Check(recovered->DurabilityStatus().ok(), r.acked,
                "recovery: " + recovered->DurabilityStatus().ToString());
  for (size_t i = 0; i < recovered->num_shards(); ++i) {
    MicroblogStore* store = recovered->shard_store(i);
    const StoreRecoveryStats stats = store->recovery_stats();
    r.recovered_copies += store->disk()->stats().records_recovered +
                          stats.records_recovered_to_disk +
                          stats.records_reinserted_memory;
    r.wal_records += stats.wal_records_recovered;
    r.reinserted += stats.records_reinserted_memory;
  }
  report->Check(r.recovered_copies == r.routed, r.acked,
                "recovered copies " + std::to_string(r.recovered_copies) +
                    " != routed copies " + std::to_string(r.routed));
  const Battery after = RunBattery(recovered.get(),
                                   DeriveSeed(opt.seed, 5, 0), report);
  report->Check(before == after, kBatteryQueries,
                "battery answers differ after the restart");
  recovered.reset();
  std::filesystem::remove_all(dir);
  return r;
}

}  // namespace

void RunWireDurable(const RunOptions& opt, Report* report) {
  std::vector<Round> rounds;
  for (int i = 0; i < kRounds; ++i) {
    rounds.push_back(RunRound(opt, i, report));
    Round& r = rounds.back();
    std::printf("[perfbench] wire_durable round %d: set-up %.3f s, ack p50 "
                "%.1f us, wire query p50 %.1f us, recovery %.3f s\n",
                i, r.setup_s, r.ack_us.Percentile(50),
                r.query_us.Percentile(50), r.recovery_s);
  }

  std::vector<double> setup, rate, recovery, ack_p50;
  Samples ack, query;
  uint64_t user_bytes = 0, sent = 0, late = 0, wal_records = 0,
           reinserted = 0, segments = 0, nacked = 0;
  std::vector<MetricsSnapshot> shard_snaps, net_snaps;
  std::vector<SpanSnapshots> spans;
  for (Round& r : rounds) {
    setup.push_back(r.setup_s);
    rate.push_back(r.acked_per_s);
    recovery.push_back(r.recovery_s);
    ack_p50.push_back(r.ack_us.Percentile(50));
    ack.Append(r.ack_us);
    query.Append(r.query_us);
    user_bytes += r.user_bytes;
    sent += r.sent;
    late += r.late;
    wal_records += r.wal_records;
    reinserted += r.reinserted;
    segments += r.segments;
    nacked += r.nacked;
    shard_snaps.insert(shard_snaps.end(), r.shards.begin(), r.shards.end());
    spans.push_back({{}, r.shards, r.accepted, r.routed});
    net_snaps.push_back(r.net);
  }
  auto per = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const uint64_t n = rounds.size();

  report->EndToEnd("setup_s", Median(setup), "s", Better::kLower, n);
  report->EndToEnd("ops_per_s", Median(rate), "1/s", Better::kHigher, n);
  report->EndToEnd("op_p50_us", Median(ack_p50), "us", Better::kLower,
                   ack.count());
  report->EndToEnd("rss_mb", rounds.back().rss_mb, "MB", Better::kLower, 1);
  report->EndToEnd("ack_p50_us", ack.Percentile(50), "us", Better::kLower,
                   ack.count());
  report->EndToEnd("wire_query_p50_us", query.Percentile(50), "us",
                   Better::kLower, query.count());
  report->EndToEnd("recovery_s", Median(recovery), "s", Better::kLower, n);
  report->Layer("ack_p90_us", ack.Percentile(90), "us", ack.count());
  report->Layer("ack_p99_us", ack.Percentile(99), "us", ack.count());
  report->Layer("nacked_records", static_cast<double>(nacked), "count", n);

  auto stage = [&net_snaps](const char* name) {
    return Totals(net_snaps, std::string("net.ingest_ack_micros.") + name);
  };
  const HistogramTotals decode = stage("decode");
  const HistogramTotals admission = stage("admission");
  const HistogramTotals commit = stage("commit");
  const HistogramTotals respond = stage("respond");
  report->Layer("net.decode_us_mean", decode.Mean(), "us", decode.count);
  report->Layer("net.admission_us_mean", admission.Mean(), "us",
                admission.count);
  report->Layer("net.respond_us_mean", respond.Mean(), "us", respond.count);
  report->Layer("net.transport_us",
                ack.Mean() - decode.Mean() - admission.Mean() - respond.Mean(),
                "us", ack.count());
  const HistogramTotals net_query = Totals(net_snaps, "net.query_micros");
  report->Layer("net.query_us_mean", net_query.Mean(), "us", net_query.count);
  report->Layer("net.commit_ms_mean", commit.Mean() / 1000.0, "ms",
                commit.count);
  const HistogramTotals fsync = Totals(shard_snaps, "wal.fsync_micros");
  report->Layer("wal.fsyncs",
                static_cast<double>(CounterSum(shard_snaps, "wal.fsyncs")),
                "count", n);
  report->Layer("wal.fsync_ms_mean", fsync.Mean() / 1000.0, "ms",
                fsync.count);
  report->Layer(
      "wal.bytes_per_user_byte",
      per(static_cast<double>(CounterSum(shard_snaps, "wal.bytes_appended")),
          static_cast<double>(user_bytes)),
      "ratio", user_bytes);
  report->Layer("disk.segments", static_cast<double>(segments), "count", n);
  ReportStoreLayers(spans, report);
  report->Layer("disk.bytes_written_per_user_byte",
                per(static_cast<double>(
                        CounterSum(shard_snaps, "disk.record_bytes_written")),
                    static_cast<double>(user_bytes)),
                "ratio", user_bytes);
  report->Layer("recover.wal_records", static_cast<double>(wal_records),
                "count", n);
  report->Layer("recover.records_reinserted",
                static_cast<double>(reinserted), "count", n);
  report->Layer("gen.late_frac", per(late, sent), "ratio", sent);

  if (opt.trace) {
    // Each shard's flusher emits the most: under 0.2 events per tweet of
    // preload and wire stream together.
    Report scratch("wire_durable");
    TracedRegion region((rounds.back().offered + kPreloadTweets) / 2 +
                        kTraceSlack);
    Round traced = RunRound(opt, kRounds - 1, &scratch);
    region.Finish(report);
    ReportTraceOverhead(rounds.back().ack_us.Percentile(50),
                        traced.ack_us.Percentile(50), report);
    report->Check(scratch.correct(), 0, "traced round failed its checks");
  }
}

}  // namespace perfbench
}  // namespace kflush
