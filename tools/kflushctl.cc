// kflushctl — command-line driver for the kflush library.
//
//   kflushctl gen-trace   --out FILE --count N [stream flags]
//   kflushctl replay      --trace FILE [--policy P] [--k K] [--memory-mb M]
//                         [--shards N]
//   kflushctl recover     --durable-dir DIR [--policy P] [--k K]
//                         [--shards N]
//   kflushctl experiment  [--policy P] [--workload W] [--attribute A]
//                         [--k K] [--memory-mb M] [--flush-pct B]
//                         [--queries N] [--seed S]
//   kflushctl compare     [same flags as experiment; runs all policies]
//   kflushctl trace       --out FILE [experiment flags]
//   kflushctl serve       [--host H] [--port P] [--shards N] [...]
//   kflushctl top         [--host H] [--port P] [--interval-ms I] [--once]
//   kflushctl watch       [--host H] [--port P] --kind keyword|area|user
//                         [--k K] [--term T] [--user U] [--min-lat ..]
//                         [--count N]
//   kflushctl scrape      [--host H] [--port P]
//   kflushctl health      [--host H] [--port P]
//   kflushctl shutdown    [--host H] [--port P]
//
// `experiment` runs the same deterministic steady-state harness as the
// figure benchmarks and prints the full result; `compare` tabulates all
// four policies side by side; `replay` streams a saved trace through a
// deployment and reports ingest + memory statistics.
//
// `recover` opens a durable deployment directory (per-shard WAL +
// segments under DIR/shard-<i>, as `serve` and `experiment` write it),
// runs restart recovery, and reports totals over the shards — the smoke
// test for "will this directory come back after a crash". A directory
// opens only at the shard count that wrote it. Every run command accepts
// --durable-dir DIR [--durability none|batch|commit] to run with the
// durable tier on (the ingest-throughput-vs-durability table in
// docs/EXPERIMENTS.md is measured with `replay` this way).
//
// `trace` runs one experiment with the flush-cycle trace recorder on
// (start -> run -> stop -> dump) and writes Perfetto-loadable Chrome trace
// JSON plus an eviction-audit summary. Every run command (`replay`,
// `experiment`, `compare`) also accepts --trace-out FILE to capture a
// trace of a normal run. (Note: `gen-trace`/`replay` deal in *tweet*
// traces — recorded input streams — an older naming that predates the
// execution tracer.)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_store.h"
#include "core/sharded_system.h"
#include "core/trace.h"
#include "gen/trace.h"
#include "net/client.h"
#include "net/server.h"
#include "sim/experiment.h"
#include "storage/wal.h"

using namespace kflush;

namespace {

struct Flags {
  std::map<std::string, std::string> values;

  bool Has(const std::string& key) const { return values.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  long GetInt(const std::string& key, long fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atol(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    std::string key = arg + 2;
    std::string value = "true";
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    flags.values[key] = value;
  }
  return flags;
}

PolicyKind ParsePolicy(const std::string& name) {
  if (name == "fifo") return PolicyKind::kFifo;
  if (name == "lru") return PolicyKind::kLru;
  if (name == "kflushing") return PolicyKind::kKFlushing;
  if (name == "kflushing-mk" || name == "mk") return PolicyKind::kKFlushingMK;
  std::fprintf(stderr, "unknown policy '%s' (fifo|lru|kflushing|kflushing-mk)\n",
               name.c_str());
  std::exit(2);
}

AttributeKind ParseAttribute(const std::string& name) {
  if (name == "keyword") return AttributeKind::kKeyword;
  if (name == "spatial") return AttributeKind::kSpatial;
  if (name == "user") return AttributeKind::kUser;
  std::fprintf(stderr, "unknown attribute '%s' (keyword|spatial|user)\n",
               name.c_str());
  std::exit(2);
}

ExperimentConfig ConfigFromFlags(const Flags& flags) {
  ExperimentConfig config;
  config.store.policy = ParsePolicy(flags.Get("policy", "kflushing"));
  config.store.attribute = ParseAttribute(flags.Get("attribute", "keyword"));
  config.workload.attribute = config.store.attribute;
  config.store.k = static_cast<uint32_t>(flags.GetInt("k", 20));
  config.store.memory_budget_bytes =
      static_cast<size_t>(flags.GetInt("memory-mb", 32)) << 20;
  config.store.flush_fraction = flags.GetDouble("flush-pct", 10.0) / 100.0;
  config.workload.kind = flags.Get("workload", "correlated") == "uniform"
                             ? WorkloadKind::kUniform
                             : WorkloadKind::kCorrelated;
  config.num_queries =
      static_cast<uint64_t>(flags.GetInt("queries", 20'000));
  config.stream.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.stream.vocabulary_size =
      static_cast<uint64_t>(flags.GetInt("vocab", 200'000));
  config.stream.num_users =
      static_cast<uint64_t>(flags.GetInt("users", 100'000));
  config.stream.keyword_zipf_s = flags.GetDouble("zipf", 1.2);
  config.workload.seed = config.stream.seed ^ 0xABCD;
  // Query temporal locality (drifting hot set) and the Phase 3 ordering
  // ablation switch.
  config.workload.hot_set_p = flags.GetDouble("hot-p", 0.0);
  config.workload.hot_set_size =
      static_cast<uint64_t>(flags.GetInt("hot-size", 0));
  config.store.phase3_by_query_time =
      flags.Get("phase3-order", "queried") != "arrived";
  const long shards = flags.GetInt("shards", 1);
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    std::exit(2);
  }
  config.shards = static_cast<size_t>(shards);
  const std::string durable_dir = flags.Get("durable-dir", "");
  if (!durable_dir.empty()) {
    config.store.durability.enabled = true;
    config.store.durability.dir = durable_dir;
    const std::string level = flags.Get("durability", "batch");
    if (!ParseDurabilityLevel(level, &config.store.durability.level)) {
      std::fprintf(stderr, "unknown durability '%s' (none|batch|commit)\n",
                   level.c_str());
      std::exit(2);
    }
  }
  return config;
}

/// The deployment `recover` and `replay` open: a ShardedMicroblogStore
/// at --shards (default 1), the layout `serve` and `experiment` write.
ShardedStoreOptions DeploymentFromFlags(const Flags& flags) {
  const ExperimentConfig config = ConfigFromFlags(flags);
  ShardedStoreOptions options;
  options.store = config.store;
  options.num_shards = config.shards;
  return options;
}

/// One memory line per shard.
void PrintShardMemory(const ShardedMicroblogStore& store) {
  for (size_t i = 0; i < store.num_shards(); ++i) {
    if (store.num_shards() > 1) std::printf("shard %zu: ", i);
    std::printf("%s\n", store.shard(i)->tracker().ToString().c_str());
  }
}

int CmdRecover(const Flags& flags) {
  const std::string dir = flags.Get("durable-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "recover requires --durable-dir DIR\n");
    return 2;
  }
  const ShardedStoreOptions options = DeploymentFromFlags(flags);
  Stopwatch watch;
  ShardedMicroblogStore store(options);
  const double secs = watch.ElapsedSeconds();
  const Status status = store.DurabilityStatus();
  if (!status.ok()) {
    std::fprintf(stderr, "recovery FAILED: %s\n", status.ToString().c_str());
    return 1;
  }
  // Totals over the shards; a record routed to s shards counts s times.
  StoreRecoveryStats rec;
  MicroblogId max_id = 0;
  size_t disk_records = 0;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    MicroblogStore* shard = store.shard(i);
    const StoreRecoveryStats s = shard->recovery_stats();
    rec.wal_records_recovered += s.wal_records_recovered;
    rec.wal_torn_bytes_truncated += s.wal_torn_bytes_truncated;
    rec.wal_entries_retained += s.wal_entries_retained;
    rec.records_reinserted_memory += s.records_reinserted_memory;
    rec.records_recovered_to_disk += s.records_recovered_to_disk;
    max_id = std::max(max_id, shard->recovered_max_id());
    disk_records += shard->disk()->NumRecords();
  }
  const DiskStats disk = store.AggregatedDiskStats();
  const uint64_t records = disk.records_recovered +
                           rec.records_recovered_to_disk +
                           rec.records_reinserted_memory;
  std::printf("recovered %s in %.3fs (level=%s, shards=%zu): %llu records\n",
              dir.c_str(), secs,
              DurabilityLevelName(options.store.durability.level),
              store.num_shards(), static_cast<unsigned long long>(records));
  std::printf(
      "  segments: %llu records, %llu torn bytes truncated\n",
      static_cast<unsigned long long>(disk.records_recovered),
      static_cast<unsigned long long>(disk.torn_bytes_truncated));
  std::printf(
      "  wal: %llu entries replayed, %llu torn bytes truncated, "
      "%llu retained after compaction\n",
      static_cast<unsigned long long>(rec.wal_records_recovered),
      static_cast<unsigned long long>(rec.wal_torn_bytes_truncated),
      static_cast<unsigned long long>(rec.wal_entries_retained));
  std::printf(
      "  placement: %llu re-inserted in memory, %llu to a recovery "
      "segment\n",
      static_cast<unsigned long long>(rec.records_reinserted_memory),
      static_cast<unsigned long long>(rec.records_recovered_to_disk));
  std::printf("  max record id: %llu | disk records now: %zu\n",
              static_cast<unsigned long long>(max_id), disk_records);
  PrintShardMemory(store);
  return 0;
}

int CmdGenTrace(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen-trace requires --out FILE\n");
    return 2;
  }
  const long count = flags.GetInt("count", 100'000);
  TweetGeneratorOptions opts = ConfigFromFlags(flags).stream;
  TweetGenerator gen(opts);
  auto writer = TraceWriter::Open(out);
  if (!writer.ok()) {
    std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
    return 1;
  }
  for (long i = 0; i < count; ++i) {
    Microblog blog = gen.Next();
    blog.id = static_cast<MicroblogId>(i + 1);
    Status s = (*writer)->Append(blog);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  Status s = (*writer)->Flush();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %ld microblogs to %s\n", count, out.c_str());
  return 0;
}

int CmdReplay(const Flags& flags) {
  const std::string path = flags.Get("trace", "");
  if (path.empty()) {
    std::fprintf(stderr, "replay requires --trace FILE\n");
    return 2;
  }
  auto reader = TraceReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  ShardedMicroblogStore store(DeploymentFromFlags(flags));
  const Status durability = store.DurabilityStatus();
  if (!durability.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 durability.ToString().c_str());
    return 1;
  }
  Stopwatch watch;
  Microblog blog;
  uint64_t count = 0;
  while (true) {
    Status s = (*reader)->Next(&blog);
    if (s.IsNotFound()) break;
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    blog.id = kInvalidMicroblogId;  // the deployment assigns fresh ids
    s = store.Insert(std::move(blog));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    ++count;
  }
  const double secs = watch.ElapsedSeconds();
  std::printf("replayed %llu microblogs in %.2fs (%.0f/s) under %s "
              "(shards=%zu)\n",
              static_cast<unsigned long long>(count), secs,
              secs > 0 ? static_cast<double>(count) / secs : 0.0,
              store.shard(0)->policy()->name(), store.num_shards());
  PrintShardMemory(store);
  std::printf("flushes: %llu | policy: %s\n",
              static_cast<unsigned long long>(
                  store.AggregatedIngestStats().flush_triggers),
              store.AggregatedPolicyStats().ToString().c_str());
  std::printf("terms=%zu k_filled=%zu\n", store.NumTerms(),
              store.NumKFilledTerms());
  WriteAheadLog::Stats wal;
  bool durable = false;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    if (store.shard(i)->wal() == nullptr) continue;
    durable = true;
    const WriteAheadLog::Stats s = store.shard(i)->wal()->stats();
    wal.records_appended += s.records_appended;
    wal.bytes_appended += s.bytes_appended;
    wal.commits += s.commits;
    wal.fsyncs += s.fsyncs;
    wal.fsync_micros.Merge(s.fsync_micros);
  }
  if (durable) {
    std::printf(
        "wal: %llu appends, %llu bytes, %llu commits, %llu fsyncs "
        "(p50 %lluus p99 %lluus)\n",
        static_cast<unsigned long long>(wal.records_appended),
        static_cast<unsigned long long>(wal.bytes_appended),
        static_cast<unsigned long long>(wal.commits),
        static_cast<unsigned long long>(wal.fsyncs),
        static_cast<unsigned long long>(wal.fsync_micros.Percentile(50.0)),
        static_cast<unsigned long long>(wal.fsync_micros.Percentile(99.0)));
  }
  return 0;
}

void PrintExperiment(const ExperimentConfig& config,
                     const ExperimentResult& result) {
  std::printf(
      "policy=%s attribute=%s workload=%s k=%u memory=%zuMB B=%.0f%% "
      "shards=%zu\n",
      PolicyKindName(config.store.policy),
      AttributeKindName(config.store.attribute),
      WorkloadKindName(config.workload.kind), config.store.k,
      config.store.memory_budget_bytes >> 20,
      config.store.flush_fraction * 100.0, config.shards);
  std::printf("  %s\n", result.ToString().c_str());
}

int CmdExperiment(const Flags& flags) {
  ExperimentConfig config = ConfigFromFlags(flags);
  ExperimentResult result = RunExperiment(config);
  PrintExperiment(config, result);
  return 0;
}

int CmdTrace(const Flags& flags) {
  const std::string out = flags.Get("out", flags.Get("trace-out", ""));
  if (out.empty()) {
    std::fprintf(stderr, "trace requires --out FILE\n");
    return 2;
  }
  ExperimentConfig config = ConfigFromFlags(flags);
  config.audit_evictions = true;
  ExperimentResult result;
  {
    ScopedTraceFile trace(out);
    result = RunExperiment(config);
  }
  PrintExperiment(config, result);
  Tracer* tracer = Tracer::Global();
  std::printf(
      "trace: %s (%llu events, %llu dropped by ring wraparound)\n",
      out.c_str(),
      static_cast<unsigned long long>(tracer->events_emitted()),
      static_cast<unsigned long long>(tracer->events_dropped()));
  std::printf("eviction audit: %zu victims, reconciliation vs PhaseStats: %s\n",
              result.eviction_audit.size(),
              result.audit_reconciliation.ToString().c_str());
  return result.audit_reconciliation.ok() ? 0 : 1;
}

int CmdCompare(const Flags& flags) {
  ExperimentConfig base = ConfigFromFlags(flags);
  std::printf("%-14s %10s %10s %8s %8s %8s %8s %12s\n", "policy", "k_filled",
              "useless%", "hit%", "single%", "and%", "or%", "aux_KB");
  for (PolicyKind policy :
       {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
        PolicyKind::kKFlushingMK}) {
    ExperimentConfig config = base;
    config.store.policy = policy;
    ExperimentResult r = RunExperiment(config);
    const auto& m = r.query_metrics;
    std::printf("%-14s %10zu %9.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %12zu\n",
                PolicyKindName(policy), r.k_filled_terms,
                r.frequency.useless_fraction * 100.0, m.HitRatio() * 100.0,
                m.HitRatioFor(QueryType::kSingle) * 100.0,
                m.HitRatioFor(QueryType::kAnd) * 100.0,
                m.HitRatioFor(QueryType::kOr) * 100.0,
                r.aux_memory_bytes / 1024);
  }
  return 0;
}

// SIGINT/SIGTERM handler target for `serve`: RequestStop is
// async-signal-safe (atomic store + eventfd write), the actual teardown
// runs on the main thread after AwaitStop.
net::NetServer* g_serve_server = nullptr;

void ServeSignalHandler(int) {
  if (g_serve_server != nullptr) g_serve_server->RequestStop();
}

int CmdServe(const Flags& flags) {
  ExperimentConfig config = ConfigFromFlags(flags);
  ShardedSystemOptions options;
  options.system.store = config.store;
  options.num_shards = config.shards;
  const long queue_cap = flags.GetInt("queue-capacity", 1024);
  if (queue_cap > 0) {
    options.system.ingest_queue_capacity = static_cast<size_t>(queue_cap);
  }
  ShardedMicroblogSystem system(options);
  const Status durability = system.DurabilityStatus();
  if (!durability.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 durability.ToString().c_str());
    return 1;
  }
  system.Start();

  net::ServerOptions server_options;
  server_options.host = flags.Get("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(flags.GetInt("port", 7411));
  server_options.admission_queue_soft_limit = static_cast<size_t>(
      flags.GetInt("soft-limit", 0));
  server_options.slow_request_micros = static_cast<uint64_t>(
      flags.GetInt("slow-request-micros", 0));
  net::NetServer server(&system, server_options);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "serve: %s\n", s.ToString().c_str());
    system.Stop();
    return 1;
  }
  g_serve_server = &server;
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  std::printf("kflushctl serve: listening on %s:%u (%zu shards, %s, "
              "queue capacity %zu/shard)\n",
              server_options.host.c_str(), server.port(),
              system.num_shards(), PolicyKindName(config.store.policy),
              options.system.ingest_queue_capacity);
  std::fflush(stdout);
  server.AwaitStop();
  std::printf("serve: draining (health=%s)\n",
              net::ServingStateName(server.health()));
  server.Stop();
  g_serve_server = nullptr;
  system.Stop();
  std::printf("%s\n", server.StatsJson().c_str());
  const net::NetServer::Stats stats = server.stats();
  const uint64_t accounted =
      stats.records_acked + stats.records_skipped + stats.records_nacked;
  if (accounted != stats.records_offered) {
    std::fprintf(stderr,
                 "serve: accounting hole: offered %llu != acked+skipped+"
                 "nacked %llu\n",
                 static_cast<unsigned long long>(stats.records_offered),
                 static_cast<unsigned long long>(accounted));
    return 1;
  }
  std::printf("serve: clean shutdown (every offered record acked, skipped, "
              "or nacked)\n");
  return 0;
}

// --- ops commands: the client side of kStatsProm / kHealth --------------

Result<std::unique_ptr<net::NetClient>> ConnectFromFlags(const Flags& flags) {
  return net::NetClient::Connect(
      flags.Get("host", "127.0.0.1"),
      static_cast<uint16_t>(flags.GetInt("port", 7411)));
}

/// One histogram family reassembled from exposition text: cumulative
/// (le, count) pairs plus _sum/_count.
struct PromHistogram {
  std::vector<std::pair<double, double>> buckets;  // ascending le
  double sum = 0;
  double count = 0;

  /// Percentile estimate from the cumulative buckets: the upper bound of
  /// the first bucket covering the target rank (the same upper-bound
  /// convention Histogram::Percentile uses server-side).
  double Percentile(double pct) const {
    if (count <= 0) return 0;
    const double rank = pct / 100.0 * count;
    double prev_le = 0;
    for (const auto& [le, cum] : buckets) {
      if (cum >= rank) {
        if (std::isinf(le)) break;  // fall through to the tail estimate
        return le;
      }
      if (!std::isinf(le)) prev_le = le;
    }
    // Rank lands in the +Inf bucket: the mean is the only bound we have.
    return std::max(prev_le, count > 0 ? sum / count : 0);
  }
};

/// A parsed kStatsProm scrape: scalar samples (counters and gauges) by
/// sanitized name, histogram families reassembled via their # TYPE lines.
struct PromScrape {
  std::map<std::string, double> scalars;
  std::map<std::string, PromHistogram> histograms;

  double Get(const std::string& name, double fallback = 0) const {
    auto it = scalars.find(name);
    return it == scalars.end() ? fallback : it->second;
  }
  const PromHistogram* Hist(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }
};

PromScrape ParsePrometheus(const std::string& text) {
  PromScrape scrape;
  std::set<std::string> hist_names;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# TYPE <name> histogram" announces a family whose _bucket/_sum/
      // _count samples below belong together.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t sp = rest.find(' ');
        if (sp != std::string::npos && rest.substr(sp + 1) == "histogram") {
          hist_names.insert(rest.substr(0, sp));
        }
      }
      continue;
    }
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const double value = std::atof(line.c_str() + sp + 1);
    std::string name = line.substr(0, sp);
    std::string le;
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      const size_t le_pos = name.find("le=\"", brace);
      if (le_pos != std::string::npos) {
        const size_t end = name.find('"', le_pos + 4);
        if (end != std::string::npos) le = name.substr(le_pos + 4,
                                                       end - le_pos - 4);
      }
      name = name.substr(0, brace);
    }
    auto family_of = [&hist_names](const std::string& sample,
                                   const char* suffix) -> std::string {
      const size_t len = std::strlen(suffix);
      if (sample.size() <= len ||
          sample.compare(sample.size() - len, len, suffix) != 0) {
        return "";
      }
      std::string base = sample.substr(0, sample.size() - len);
      return hist_names.count(base) > 0 ? base : "";
    };
    std::string base = family_of(name, "_bucket");
    if (!base.empty() && !le.empty()) {
      scrape.histograms[base].buckets.emplace_back(
          le == "+Inf" ? INFINITY : std::atof(le.c_str()), value);
      continue;
    }
    base = family_of(name, "_sum");
    if (!base.empty()) {
      scrape.histograms[base].sum = value;
      continue;
    }
    base = family_of(name, "_count");
    if (!base.empty()) {
      scrape.histograms[base].count = value;
      continue;
    }
    scrape.scalars[name] = value;
  }
  for (auto& [name, hist] : scrape.histograms) {
    std::sort(hist.buckets.begin(), hist.buckets.end());
  }
  return scrape;
}

int CmdScrape(const Flags& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  Result<std::string> text = (*client)->StatsProm();
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  std::fputs(text->c_str(), stdout);
  return 0;
}

int CmdHealth(const Flags& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  Result<net::NetClient::HealthInfo> info = (*client)->Health();
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("health %s uptime_micros %llu\n",
              net::ServingStateName(info->state),
              static_cast<unsigned long long>(info->uptime_micros));
  return info->state == net::ServingState::kServing ? 0 : 1;
}

int CmdShutdownRemote(const Flags& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  Status s = (*client)->Shutdown();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("shutdown acked\n");
  return 0;
}

/// Counter delta per second between two scrapes.
double Rate(const PromScrape& cur, const PromScrape& prev,
            const std::string& name, double dt) {
  if (dt <= 0) return 0;
  return (cur.Get(name) - prev.Get(name)) / dt;
}

void PrintStageRow(const PromScrape& s, const char* label,
                   const std::string& family) {
  const PromHistogram* h = s.Hist(family);
  if (h == nullptr) {
    std::printf("  %-10s (no samples)\n", label);
    return;
  }
  std::printf("  %-10s count %10.0f   p50 %8.0fus   p99 %8.0fus\n", label,
              h->count, h->Percentile(50.0), h->Percentile(99.0));
}

void RenderTop(const PromScrape& cur, const PromScrape& prev, double dt,
               bool live) {
  if (live) std::printf("\x1b[H\x1b[2J");
  std::printf("kflush top — %.1fs window\n\n", dt);
  std::printf("ingest    %8.0f req/s   %8.0f ack/s   %8.0f rec acked/s\n",
              Rate(cur, prev, "kflush_net_ingest_requests", dt),
              Rate(cur, prev, "kflush_net_ingest_acks", dt),
              Rate(cur, prev, "kflush_net_records_acked", dt));
  std::printf("queries   %8.0f /s      reads  %8.0f B/s  writes %8.0f B/s\n",
              Rate(cur, prev, "kflush_net_queries", dt),
              Rate(cur, prev, "kflush_net_bytes_received", dt),
              Rate(cur, prev, "kflush_net_bytes_sent", dt));
  std::printf("nacks/s   overloaded %.1f  stopped %.1f  malformed %.1f  "
              "too_large %.1f  internal %.1f\n\n",
              Rate(cur, prev, "kflush_net_nacks_overloaded", dt),
              Rate(cur, prev, "kflush_net_nacks_stopped", dt),
              Rate(cur, prev, "kflush_net_nacks_malformed", dt),
              Rate(cur, prev, "kflush_net_nacks_too_large", dt),
              Rate(cur, prev, "kflush_net_nacks_internal", dt));
  std::printf("ack latency by stage (cumulative):\n");
  PrintStageRow(cur, "decode", "kflush_net_ingest_ack_micros_decode");
  PrintStageRow(cur, "admission", "kflush_net_ingest_ack_micros_admission");
  PrintStageRow(cur, "commit", "kflush_net_ingest_ack_micros_commit");
  PrintStageRow(cur, "respond", "kflush_net_ingest_ack_micros_respond");
  PrintStageRow(cur, "query", "kflush_net_query_micros");
  std::printf("\n");
  // Queue depth: per-shard gauges when sharded, the bare system gauge
  // otherwise.
  std::printf("queues    ");
  bool any_shard = false;
  for (int i = 0; i < 256; ++i) {
    const std::string name =
        "kflush_shard" + std::to_string(i) + "_system_queue_depth";
    auto it = cur.scalars.find(name);
    if (it == cur.scalars.end()) break;
    std::printf("s%d:%.0f ", i, it->second);
    any_shard = true;
  }
  if (!any_shard) {
    std::printf("depth %.0f", cur.Get("kflush_system_queue_depth"));
  }
  std::printf("\nwal       %8.0f fsync/s   %8.0f commit/s\n",
              Rate(cur, prev, "kflush_wal_fsyncs", dt),
              Rate(cur, prev, "kflush_wal_commits", dt));
  const double used = cur.Get("kflush_memory_data_used_bytes");
  const double budget = cur.Get("kflush_memory_budget_bytes");
  std::printf("memory    %8.1f / %.1f MB (%.0f%%)\n", used / 1048576.0,
              budget / 1048576.0, budget > 0 ? 100.0 * used / budget : 0.0);
  std::printf("flush     %8.0f cycles   %8.0f rec/s flushed\n",
              cur.Get("kflush_flush_cycles"),
              Rate(cur, prev, "kflush_flush_records_flushed", dt));
  std::printf("conns     live %.0f   pending write %.0f B   read pauses %.0f\n",
              cur.Get("kflush_net_connections_live"),
              cur.Get("kflush_net_pending_write_bytes"),
              cur.Get("kflush_net_read_pauses"));
  if (live) std::printf("\n(ctrl-c to exit)\n");
  std::fflush(stdout);
}

/// Machine-readable one-shot: `key value` lines, consumed by ops-smoke.
void PrintTopOnce(const PromScrape& s) {
  auto put = [&s](const char* key, const char* name) {
    std::printf("%s %.0f\n", key, s.Get(name));
  };
  put("ingest_requests", "kflush_net_ingest_requests");
  put("ingest_acks", "kflush_net_ingest_acks");
  put("records_offered", "kflush_net_records_offered");
  put("records_acked", "kflush_net_records_acked");
  put("records_skipped", "kflush_net_records_skipped");
  put("records_nacked", "kflush_net_records_nacked");
  put("queries", "kflush_net_queries");
  put("connections_live", "kflush_net_connections_live");
  put("pending_write_bytes", "kflush_net_pending_write_bytes");
  put("wal_fsyncs", "kflush_wal_fsyncs");
  put("memory_data_used_bytes", "kflush_memory_data_used_bytes");
  put("memory_budget_bytes", "kflush_memory_budget_bytes");
  put("flush_cycles", "kflush_flush_cycles");
  const char* stages[] = {"decode", "admission", "commit", "respond"};
  for (const char* stage : stages) {
    const PromHistogram* h =
        s.Hist(std::string("kflush_net_ingest_ack_micros_") + stage);
    std::printf("stage_%s_count %.0f\n", stage, h != nullptr ? h->count : 0);
    std::printf("stage_%s_p50_micros %.0f\n", stage,
                h != nullptr ? h->Percentile(50.0) : 0);
    std::printf("stage_%s_p99_micros %.0f\n", stage,
                h != nullptr ? h->Percentile(99.0) : 0);
  }
  const PromHistogram* q = s.Hist("kflush_net_query_micros");
  std::printf("query_count %.0f\n", q != nullptr ? q->count : 0);
  std::printf("query_p99_micros %.0f\n",
              q != nullptr ? q->Percentile(99.0) : 0);
}

int CmdTop(const Flags& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  const bool once = flags.Has("once");
  const long interval_ms = flags.GetInt("interval-ms", 1000);
  PromScrape prev;
  auto prev_at = std::chrono::steady_clock::now();
  bool have_prev = false;
  for (;;) {
    Result<std::string> text = (*client)->StatsProm();
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    const PromScrape cur = ParsePrometheus(*text);
    const auto now = std::chrono::steady_clock::now();
    const double dt =
        std::chrono::duration<double>(now - prev_at).count();
    if (once) {
      PrintTopOnce(cur);
      return 0;
    }
    RenderTop(cur, have_prev ? prev : cur, have_prev ? dt : 0.0,
              /*live=*/true);
    prev = cur;
    prev_at = now;
    have_prev = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int CmdWatch(const Flags& flags) {
  auto client = ConnectFromFlags(flags);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  SubscriptionSpec spec;
  const std::string kind = flags.Get("kind", "keyword");
  if (kind == "keyword") {
    spec.kind = SubKind::kKeyword;
    spec.term = static_cast<TermId>(flags.GetInt("term", 0));
  } else if (kind == "user") {
    spec.kind = SubKind::kUser;
    spec.user = static_cast<UserId>(flags.GetInt("user", 0));
  } else if (kind == "area") {
    spec.kind = SubKind::kArea;
    spec.box.min_lat = flags.GetDouble("min-lat", 0.0);
    spec.box.min_lon = flags.GetDouble("min-lon", 0.0);
    spec.box.max_lat = flags.GetDouble("max-lat", 0.0);
    spec.box.max_lon = flags.GetDouble("max-lon", 0.0);
  } else {
    std::fprintf(stderr, "unknown --kind '%s' (keyword|area|user)\n",
                 kind.c_str());
    return 2;
  }
  spec.k = static_cast<uint32_t>(flags.GetInt("k", 10));
  Result<uint64_t> sub = (*client)->Subscribe(spec);
  if (!sub.ok()) {
    std::fprintf(stderr, "subscribe: %s\n", sub.status().ToString().c_str());
    return 1;
  }
  std::printf("watching sub_id=%llu kind=%s k=%u (ctrl-c to stop)\n",
              static_cast<unsigned long long>(*sub), kind.c_str(), spec.k);
  std::fflush(stdout);
  // --count N: exit cleanly (with an unsubscribe) after N push frames —
  // the smoke tests drive the command this way.
  const long max_pushes = flags.GetInt("count", 0);
  long pushes = 0;
  while (max_pushes <= 0 || pushes < max_pushes) {
    Result<net::Message> push = (*client)->RecvPush();
    if (!push.ok()) {
      std::fprintf(stderr, "%s\n", push.status().ToString().c_str());
      return 1;
    }
    ++pushes;
    if (push->push_terminal) {
      std::printf("sub %llu TERMINATED by server (slow consumer / drain)\n",
                  static_cast<unsigned long long>(push->sub_id));
      return 1;
    }
    for (const SubDelta& d : push->deltas) {
      if (d.kind == SubDeltaKind::kEnter) {
        std::printf("  #%llu ENTER id=%llu score=%.4f \"%s\"\n",
                    static_cast<unsigned long long>(d.seq),
                    static_cast<unsigned long long>(d.id), d.score,
                    d.record.text.c_str());
      } else {
        std::printf("  #%llu EXIT  id=%llu score=%.4f\n",
                    static_cast<unsigned long long>(d.seq),
                    static_cast<unsigned long long>(d.id), d.score);
      }
    }
    std::fflush(stdout);
  }
  Status s = (*client)->Unsubscribe(*sub);
  if (!s.ok()) {
    std::fprintf(stderr, "unsubscribe: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("unsubscribed after %ld push(es)\n", pushes);
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: kflushctl <command> [flags]\n"
      "commands:\n"
      "  gen-trace  --out FILE --count N [--seed S] [--vocab V] [--zipf Z]\n"
      "  replay     --trace FILE [--policy P] [--k K] [--memory-mb M]\n"
      "             [--shards N]\n"
      "  recover    --durable-dir DIR [--policy P] [--k K] [--shards N]\n"
      "  experiment [--policy P] [--workload correlated|uniform]\n"
      "             [--attribute keyword|spatial|user] [--k K]\n"
      "             [--memory-mb M] [--flush-pct B] [--queries N] [--seed S]\n"
      "             [--shards N]\n"
      "  compare    [same flags as experiment]\n"
      "  trace      --out FILE [same flags as experiment]\n"
      "  serve      [--host H] [--port P] [--shards N] [--policy P]\n"
      "             [--memory-mb M] [--queue-capacity Q] [--soft-limit D]\n"
      "             [--slow-request-micros T] [--durable-dir DIR]\n"
      "             (TCP front-end; stop with a protocol shutdown request\n"
      "             or SIGINT/SIGTERM)\n"
      "  top        [--host H] [--port P] [--interval-ms I] [--once]\n"
      "             (live terminal dashboard over kStatsProm; --once\n"
      "             prints machine-readable `key value` lines and exits)\n"
      "  watch      [--host H] [--port P] --kind keyword|area|user [--k K]\n"
      "             [--term T | --user U | --min-lat A --min-lon B\n"
      "             --max-lat C --max-lon D] [--count N]\n"
      "             (standing top-k: subscribe and stream enter/exit\n"
      "             deltas; --count N unsubscribes after N pushes)\n"
      "  scrape     [--host H] [--port P]  (dump Prometheus exposition)\n"
      "  health     [--host H] [--port P]  (exit 0 iff serving)\n"
      "  shutdown   [--host H] [--port P]  (protocol shutdown + ack)\n"
      "flags:\n"
      "  --trace-out FILE  capture a Chrome/Perfetto trace of any run\n"
      "                    command (replay, experiment, compare)\n"
      "  --durable-dir DIR [--durability none|batch|commit]\n"
      "                    run with the durable tier (WAL + segments)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags = ParseFlags(argc, argv, 2);
  // --trace-out: record the whole command and dump on exit.
  ScopedTraceFile trace_out(command == "trace" ? ""
                                               : flags.Get("trace-out", ""));
  if (command == "gen-trace") return CmdGenTrace(flags);
  if (command == "replay") return CmdReplay(flags);
  if (command == "recover") return CmdRecover(flags);
  if (command == "experiment") return CmdExperiment(flags);
  if (command == "compare") return CmdCompare(flags);
  if (command == "trace") return CmdTrace(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "top") return CmdTop(flags);
  if (command == "watch") return CmdWatch(flags);
  if (command == "scrape") return CmdScrape(flags);
  if (command == "health") return CmdHealth(flags);
  if (command == "shutdown") return CmdShutdownRemote(flags);
  Usage();
  return 2;
}
