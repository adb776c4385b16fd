// Network load harness: an open-loop load generator over the TCP
// front-end (src/net). N simulated users pipeline ingest batches and
// top-k queries at a configured total arrival rate — sends happen on the
// arrival schedule, never gated on responses, so the measured latencies
// are free of coordinated omission (each request's latency is clocked
// from its *scheduled* send time to its response).
//
// The harness is also the zero-silent-drop audit: every record carries a
// unique marker keyword bucket, every response is an explicit ack or
// NACK, and at the end each bucket is queried back through the same
// protocol. The run FAILS (exit 1) unless
//
//   offered == acked + skipped + nacked         (protocol accounting)
//   queried-back == acked                       (no admitted record lost)
//
// Rows per arrival-rate point:
//   [net_load] offered_per_sec   <rate>  ...
//   [net_load] acked_per_sec     <rate>  ...
//   [net_load] nack_pct          <rate>  ...
//   [net_load] ingest_p50_micros / _p99 / _p999
//   [net_load] query_p50_micros  / _p99 / _p999
//   [net_load] silent_drops      <rate>  0.0000
//
// BENCH_net_load.json carries, per rate point ("rate<R>"), the aggregated
// shard registry snapshot merged with the server's net.* registry (ack
// counters and the per-stage net.ingest_ack_micros.* histograms), plus
// bench.* gauges (offered/acked/nacked/silent_drops/acked_per_sec/...)
// and the client-side net.ingest_latency_micros /
// net.query_latency_micros histograms. Each stage histogram's count must
// equal net.ingest_acks exactly — the run FAILS otherwise.
// scripts/validate_bench_json.py --bench net_load checks all of it.
//
// Default: in-process server on an ephemeral loopback port (real TCP,
// real epoll loop). --connect HOST:PORT drives an external `kflushctl
// serve` instead (rows + drop audit only; no JSON artifact, since shard
// registries live in the server process).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/metrics_registry.h"
#include "core/sharded_system.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "util/histogram.h"

namespace kflush {
namespace {

using Clock = std::chrono::steady_clock;

// Marker keywords live far above any generator-assigned KeywordId
// (KeywordId is 32-bit; the base + every bucket still fits).
constexpr KeywordId kMarkerBase = 1'000'000'000;
constexpr size_t kBuckets = 64;

struct LoadOptions {
  size_t users = 8;
  size_t batch = 64;
  double seconds = 2.0;
  size_t shards = 4;
  size_t queue_capacity = 128;
  std::vector<double> rates;  // total records/sec per point
  std::string connect_host;   // empty = in-process server
  uint16_t connect_port = 0;
  bool shutdown_after = false;  // --connect mode: protocol shutdown at end
};

struct Pending {
  bool is_query = false;
  uint64_t records = 0;
  size_t bucket = 0;
  uint64_t sched_micros = 0;  // scheduled send time, relative to start
};

struct UserResult {
  uint64_t offered = 0;
  uint64_t acked = 0;
  uint64_t skipped = 0;
  uint64_t nacked = 0;
  uint64_t nacks_overloaded = 0;
  uint64_t nacks_other = 0;
  uint64_t queries_sent = 0;
  uint64_t queries_ok = 0;
  std::vector<uint64_t> bucket_acked = std::vector<uint64_t>(kBuckets, 0);
  Histogram ingest_latency;
  Histogram query_latency;
  bool transport_error = false;
};

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// One simulated user: a sender thread streaming framed requests on the
/// arrival schedule and a reader thread draining responses. Every 8th
/// request is a top-k query against an already-used marker bucket.
void RunUser(const std::string& host, uint16_t port, const LoadOptions& load,
             size_t user, size_t point, Clock::time_point start,
             UserResult* result) {
  auto client = net::NetClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "user %zu: %s\n", user,
                 client.status().ToString().c_str());
    result->transport_error = true;
    return;
  }
  net::NetClient* c = client->get();

  // Per-user send interval so the fleet's total ingest rate is
  // load.rates[point] records/sec.
  const double per_user_rate = load.rates[point] / load.users;
  const double interval_secs = load.batch / per_user_rate;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(interval_secs));
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(load.seconds));

  std::mutex mu;
  std::unordered_map<uint64_t, Pending> pending;
  std::atomic<uint64_t> sent_total{0};
  std::atomic<bool> sender_done{false};

  std::thread reader([&] {
    uint64_t received = 0;
    while (true) {
      if (sender_done.load(std::memory_order_acquire) &&
          received >= sent_total.load(std::memory_order_acquire)) {
        break;
      }
      auto reply = c->RecvMessage();
      if (!reply.ok()) {
        // EOF with everything answered is a clean close; anything else
        // is a transport failure the accounting check will surface.
        if (!(sender_done.load(std::memory_order_acquire) &&
              received >= sent_total.load(std::memory_order_acquire))) {
          result->transport_error = true;
        }
        break;
      }
      ++received;
      Pending p;
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = pending.find(reply->request_id);
        if (it == pending.end()) continue;  // unmatched; counted as lost
        p = it->second;
        pending.erase(it);
      }
      const uint64_t latency =
          MicrosSince(start) > p.sched_micros
              ? MicrosSince(start) - p.sched_micros
              : 0;
      if (p.is_query) {
        result->query_latency.Record(latency);
        if (reply->type == net::MsgType::kQueryResult) ++result->queries_ok;
      } else {
        result->ingest_latency.Record(latency);
        if (reply->type == net::MsgType::kIngestAck) {
          result->acked += reply->admitted;
          result->skipped += reply->skipped;
          result->bucket_acked[p.bucket] += reply->admitted;
        } else if (reply->type == net::MsgType::kNack) {
          result->nacked += p.records;
          if (reply->reason == net::NackReason::kOverloaded) {
            ++result->nacks_overloaded;
          } else {
            ++result->nacks_other;
          }
        }
      }
    }
  });

  uint64_t seq = 0;
  for (;; ++seq) {
    const auto sched = start + interval * seq;
    if (sched >= deadline) break;
    std::this_thread::sleep_until(sched);
    const uint64_t sched_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(sched - start)
            .count());
    const size_t bucket = (user + seq) % kBuckets;
    const KeywordId term = static_cast<KeywordId>(
        kMarkerBase + point * kBuckets + bucket);
    std::string wire;
    const uint64_t id = c->NextRequestId();
    Pending p;
    p.sched_micros = sched_micros;
    p.bucket = bucket;
    if (seq % 8 == 7) {
      p.is_query = true;
      TopKQuery query;
      query.terms = {term};
      query.k = 10;
      net::EncodeQuery(id, query, &wire);
      ++result->queries_sent;
    } else {
      std::vector<Microblog> blogs(load.batch);
      for (size_t i = 0; i < blogs.size(); ++i) {
        blogs[i].user_id = static_cast<UserId>(user);
        blogs[i].keywords = {term};
        blogs[i].text = "net-load";
      }
      p.records = blogs.size();
      result->offered += blogs.size();
      net::EncodeIngest(id, blogs, &wire);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending[id] = p;
    }
    sent_total.fetch_add(1, std::memory_order_release);
    if (!c->SendRaw(wire).ok()) {
      result->transport_error = true;
      break;
    }
  }
  sender_done.store(true, std::memory_order_release);
  // The reader may be blocked in read() with every response already
  // consumed; one final ping unblocks it and is itself consumed.
  {
    std::string wire;
    net::EncodeEmpty(net::MsgType::kPing, c->NextRequestId(), &wire);
    sent_total.fetch_add(1, std::memory_order_release);
    c->SendRaw(wire);
  }
  reader.join();
}

struct PointResult {
  double rate = 0.0;
  double wall_secs = 0.0;
  uint64_t offered = 0, acked = 0, skipped = 0, nacked = 0;
  uint64_t nacks_overloaded = 0, nacks_other = 0;
  uint64_t queries_sent = 0, queries_ok = 0;
  uint64_t queried_back = 0;
  int64_t silent_drops = 0;
  bool transport_error = false;
  Histogram ingest_latency;
  Histogram query_latency;
  MetricsSnapshot snapshot;  // in-process mode only
  bool have_snapshot = false;
};

/// Queries every marker bucket back through the protocol until the
/// returned total stops short of `expect` no longer (the server may still
/// be digesting tail batches), then returns the final count.
uint64_t QueryBack(net::NetClient* c, size_t point,
                   const std::vector<uint64_t>& bucket_acked,
                   uint64_t expect) {
  uint64_t total = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    total = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (bucket_acked[b] == 0) continue;
      TopKQuery query;
      query.terms = {kMarkerBase + point * kBuckets + b};
      query.k = static_cast<uint32_t>(bucket_acked[b] + 16);
      auto result = c->Query(query);
      if (!result.ok()) {
        std::fprintf(stderr, "query-back failed: %s\n",
                     result.status().ToString().c_str());
        return total;
      }
      total += result->results.size();
    }
    if (total >= expect) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return total;
}

PointResult RunPoint(const std::string& host, uint16_t port,
                     const LoadOptions& load, size_t point) {
  PointResult r;
  r.rate = load.rates[point];
  std::vector<UserResult> users(load.users);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (size_t u = 0; u < load.users; ++u) {
    threads.emplace_back(RunUser, host, port, std::cref(load), u, point,
                         start, &users[u]);
  }
  for (auto& t : threads) t.join();
  r.wall_secs = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<uint64_t> bucket_acked(kBuckets, 0);
  for (const UserResult& u : users) {
    r.offered += u.offered;
    r.acked += u.acked;
    r.skipped += u.skipped;
    r.nacked += u.nacked;
    r.nacks_overloaded += u.nacks_overloaded;
    r.nacks_other += u.nacks_other;
    r.queries_sent += u.queries_sent;
    r.queries_ok += u.queries_ok;
    r.transport_error |= u.transport_error;
    r.ingest_latency.Merge(u.ingest_latency);
    r.query_latency.Merge(u.query_latency);
    for (size_t b = 0; b < kBuckets; ++b) bucket_acked[b] += u.bucket_acked[b];
  }

  auto control = net::NetClient::Connect(host, port);
  if (control.ok()) {
    r.queried_back = QueryBack(control->get(), point, bucket_acked, r.acked);
  } else {
    std::fprintf(stderr, "control connect failed: %s\n",
                 control.status().ToString().c_str());
    r.transport_error = true;
  }
  r.silent_drops = static_cast<int64_t>(r.acked) -
                   static_cast<int64_t>(r.queried_back);
  return r;
}

const char* const kStages[] = {"decode", "admission", "commit", "respond"};

void PrintPoint(const PointResult& r) {
  const std::string x = std::to_string(static_cast<long>(r.rate));
  const double secs = r.wall_secs > 0 ? r.wall_secs : 1.0;
  bench::PrintRow("net_load", "offered_per_sec", x, r.offered / secs);
  bench::PrintRow("net_load", "acked_per_sec", x, r.acked / secs);
  bench::PrintRow("net_load", "nack_pct", x,
                  r.offered > 0 ? 100.0 * r.nacked / r.offered : 0.0);
  bench::PrintRow("net_load", "ingest_p50_micros", x,
                  static_cast<double>(r.ingest_latency.Percentile(50)));
  bench::PrintRow("net_load", "ingest_p99_micros", x,
                  static_cast<double>(r.ingest_latency.Percentile(99)));
  bench::PrintRow("net_load", "ingest_p999_micros", x,
                  static_cast<double>(r.ingest_latency.Percentile(99.9)));
  bench::PrintRow("net_load", "query_p50_micros", x,
                  static_cast<double>(r.query_latency.Percentile(50)));
  bench::PrintRow("net_load", "query_p99_micros", x,
                  static_cast<double>(r.query_latency.Percentile(99)));
  bench::PrintRow("net_load", "query_p999_micros", x,
                  static_cast<double>(r.query_latency.Percentile(99.9)));
  bench::PrintRow("net_load", "silent_drops", x,
                  static_cast<double>(r.silent_drops));
  // Server-side ack-latency decomposition (in-process mode only): where
  // the acked ingest time went, per stage.
  if (r.have_snapshot) {
    for (const char* stage : kStages) {
      auto it = r.snapshot.histograms.find(
          std::string("net.ingest_ack_micros.") + stage);
      if (it == r.snapshot.histograms.end()) continue;
      bench::PrintRow("net_load", std::string("stage_") + stage +
                                      "_p50_micros",
                      x, static_cast<double>(it->second.Percentile(50)));
      bench::PrintRow("net_load", std::string("stage_") + stage +
                                      "_p99_micros",
                      x, static_cast<double>(it->second.Percentile(99)));
    }
  }
}

/// Audits one point; returns false (and explains) on any accounting hole.
bool CheckPoint(const PointResult& r) {
  bool ok = true;
  if (r.transport_error) {
    std::fprintf(stderr, "FAIL rate=%ld: transport error during run\n",
                 static_cast<long>(r.rate));
    ok = false;
  }
  if (r.offered != r.acked + r.skipped + r.nacked) {
    std::fprintf(stderr,
                 "FAIL rate=%ld: offered %llu != acked %llu + skipped %llu "
                 "+ nacked %llu (records unaccounted for)\n",
                 static_cast<long>(r.rate),
                 static_cast<unsigned long long>(r.offered),
                 static_cast<unsigned long long>(r.acked),
                 static_cast<unsigned long long>(r.skipped),
                 static_cast<unsigned long long>(r.nacked));
    ok = false;
  }
  if (r.silent_drops != 0) {
    std::fprintf(stderr,
                 "FAIL rate=%ld: %lld acked records not queryable back "
                 "(silent drop!)\n",
                 static_cast<long>(r.rate),
                 static_cast<long long>(r.silent_drops));
    ok = false;
  }
  // Stage-histogram reconciliation: every acked ingest request must have
  // landed exactly one sample in each of the four stage histograms.
  if (r.have_snapshot) {
    const uint64_t acks = r.snapshot.counter_or("net.ingest_acks");
    for (const char* stage : kStages) {
      auto it = r.snapshot.histograms.find(
          std::string("net.ingest_ack_micros.") + stage);
      const uint64_t samples =
          it == r.snapshot.histograms.end() ? 0 : it->second.count();
      if (samples != acks) {
        std::fprintf(stderr,
                     "FAIL rate=%ld: stage %s has %llu samples but "
                     "net.ingest_acks is %llu (stage histograms must "
                     "reconcile exactly)\n",
                     static_cast<long>(r.rate), stage,
                     static_cast<unsigned long long>(samples),
                     static_cast<unsigned long long>(acks));
        ok = false;
      }
    }
  }
  return ok;
}

LoadOptions ParseArgs(int argc, char** argv) {
  LoadOptions load;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (std::strncmp(argv[i], flag, n) != 0) return nullptr;
      if (argv[i][n] == '=') return argv[i] + n + 1;
      if (argv[i][n] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = value("--users")) {
      load.users = static_cast<size_t>(std::atol(v));
    } else if (const char* v = value("--batch")) {
      load.batch = static_cast<size_t>(std::atol(v));
    } else if (const char* v = value("--seconds")) {
      load.seconds = std::atof(v);
    } else if (const char* v = value("--shards")) {
      load.shards = static_cast<size_t>(std::atol(v));
    } else if (const char* v = value("--queue-capacity")) {
      load.queue_capacity = static_cast<size_t>(std::atol(v));
    } else if (const char* v = value("--rates")) {
      load.rates.clear();
      std::string list = v;
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        load.rates.push_back(std::atof(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--shutdown") == 0) {
      load.shutdown_after = true;
    } else if (const char* v = value("--connect")) {
      std::string hp = v;
      size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants HOST:PORT\n");
        std::exit(2);
      }
      load.connect_host = hp.substr(0, colon);
      load.connect_port =
          static_cast<uint16_t>(std::atoi(hp.c_str() + colon + 1));
    }
  }
  if (load.users == 0 || load.batch == 0 || load.rates.size() > 16) {
    std::fprintf(stderr, "bad load options\n");
    std::exit(2);
  }
  if (load.rates.empty()) {
    // Default sweep: below and past the single-digest-thread knee at
    // smoke scale.
    load.rates = {20'000 * bench::Scale(), 80'000 * bench::Scale()};
  }
  return load;
}

}  // namespace
}  // namespace kflush

int main(int argc, char** argv) {
  using namespace kflush;
  auto trace = bench::TraceSessionFromArgs(argc, argv);
  LoadOptions load = ParseArgs(argc, argv);
  bench::PrintHeader(
      "net_load",
      "open-loop TCP load: " + std::to_string(load.users) + " users x " +
          std::to_string(load.rates.size()) + " rate points, batch " +
          std::to_string(load.batch));

  const bool external = !load.connect_host.empty();
  std::vector<std::pair<std::string, MetricsSnapshot>> artifacts;
  bool ok = true;

  for (size_t point = 0; point < load.rates.size(); ++point) {
    PointResult r;
    if (external) {
      r = RunPoint(load.connect_host, load.connect_port, load, point);
    } else {
      // Fresh system + server per rate point: each point's registry
      // snapshot and drop audit cover exactly its own load.
      ShardedSystemOptions options;
      options.num_shards = load.shards;
      options.system.ingest_queue_capacity = load.queue_capacity;
      options.system.store.memory_budget_bytes =
          static_cast<size_t>(32.0 * bench::Scale() * (1 << 20));
      options.system.store.k = 20;
      options.system.store.policy = PolicyKind::kKFlushing;
      ShardedMicroblogSystem system(options);
      system.Start();
      net::ServerOptions server_options;
      server_options.admission_queue_soft_limit = load.queue_capacity;
      net::NetServer server(&system, server_options);
      Status s = server.Start();
      if (!s.ok()) {
        std::fprintf(stderr, "server start: %s\n", s.ToString().c_str());
        return 1;
      }
      r = RunPoint("127.0.0.1", server.port(), load, point);
      server.Stop();
      system.Stop();
      r.snapshot = system.store()->AggregatedMetrics();
      // Merge the server's own net.* families (stage histograms included)
      // after both Stop()s: the registry is quiesced, so the stage counts
      // reconcile exactly against net.ingest_acks.
      MetricsSnapshot net_snap = server.metrics_registry()->Snapshot();
      for (auto& [name, value] : net_snap.counters) {
        r.snapshot.counters[name] = value;
      }
      for (auto& [name, value] : net_snap.gauges) {
        r.snapshot.gauges[name] = value;
      }
      for (auto& [name, hist] : net_snap.histograms) {
        r.snapshot.histograms[name] = std::move(hist);
      }
      r.have_snapshot = true;
    }
    PrintPoint(r);
    ok &= CheckPoint(r);
    if (r.have_snapshot) {
      const double secs = r.wall_secs > 0 ? r.wall_secs : 1.0;
      r.snapshot.gauges["bench.rate_target"] =
          static_cast<int64_t>(r.rate);
      r.snapshot.gauges["bench.users"] = static_cast<int64_t>(load.users);
      r.snapshot.gauges["bench.batch"] = static_cast<int64_t>(load.batch);
      r.snapshot.gauges["bench.offered"] = static_cast<int64_t>(r.offered);
      r.snapshot.gauges["bench.acked"] = static_cast<int64_t>(r.acked);
      r.snapshot.gauges["bench.skipped"] = static_cast<int64_t>(r.skipped);
      r.snapshot.gauges["bench.nacked"] = static_cast<int64_t>(r.nacked);
      r.snapshot.gauges["bench.nacks_overloaded"] =
          static_cast<int64_t>(r.nacks_overloaded);
      r.snapshot.gauges["bench.queries_sent"] =
          static_cast<int64_t>(r.queries_sent);
      r.snapshot.gauges["bench.queries_ok"] =
          static_cast<int64_t>(r.queries_ok);
      r.snapshot.gauges["bench.queried_back"] =
          static_cast<int64_t>(r.queried_back);
      r.snapshot.gauges["bench.silent_drops"] = r.silent_drops;
      r.snapshot.gauges["bench.offered_per_sec"] =
          static_cast<int64_t>(r.offered / secs);
      r.snapshot.gauges["bench.acked_per_sec"] =
          static_cast<int64_t>(r.acked / secs);
      r.snapshot.histograms["net.ingest_latency_micros"] = r.ingest_latency;
      r.snapshot.histograms["net.query_latency_micros"] = r.query_latency;
      artifacts.emplace_back(
          "rate" + std::to_string(static_cast<long>(r.rate)),
          std::move(r.snapshot));
    }
  }

  if (!external) bench::WriteBenchJson("net_load", artifacts);
  if (external && load.shutdown_after) {
    auto control =
        net::NetClient::Connect(load.connect_host, load.connect_port);
    if (!control.ok() || !control->get()->Shutdown().ok()) {
      std::fprintf(stderr, "shutdown request failed\n");
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr, "net_load: accounting FAILED\n");
    return 1;
  }
  std::printf("net_load: accounting clean (every offered record acked, "
              "skipped, or nacked; every ack queryable)\n");
  return 0;
}
