// The crash-recovery differential oracle: killing the process at an
// arbitrary point inside the durable write paths must never lose an
// acked record or change a query answer.
//
// For every flush policy the oracle first runs a PROBE child over a
// deterministic stream to count how many crash-point sites
// (storage/durability.h CrashPoint) the full run passes through, then
// forks one KILL child per seeded kill point. A kill child replays the
// identical stream into a durable MicroblogStore (auto-flush on, so
// segment writes interleave with WAL appends), group-commits every
// kCommitEvery records, reports each acked high-water mark D over a
// pipe, and _exit()s from the crash hook when its countdown reaches
// zero — mid-append, mid-segment-write, or between fsyncs, with stdio
// buffers deliberately not flushed (that unsynced suffix is exactly what
// a crash destroys).
//
// The parent then recovers the directory in-process and requires:
//   1. recovery succeeds (torn tails truncate; never Corruption),
//   2. the recovered records are a contiguous prefix 1..M of the stream
//      with M >= D: nothing acked is lost, and nothing is recovered
//      out of order or with a hole,
//   3. every recovered record body is field-wise identical to what was
//      inserted (whether it landed in memory or a segment),
//   4. single-term, AND and OR top-k answers are field-wise identical to
//      an uninterrupted reference store fed the same prefix 1..M, and
//   5. after continued ingest on both stores, the answers still agree —
//      the recovered store is a full peer, not a read-only salvage.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "core/store.h"
#include "gtest/gtest.h"
#include "storage/durability.h"
#include "testing/test_util.h"

namespace kflush {
namespace {

using testing_util::MakeBlog;
using testing_util::RecordsEqual;
using testing_util::RemoveTree;

constexpr uint64_t kStreamLen = 1200;
constexpr uint64_t kCommitEvery = 25;
constexpr uint64_t kContinueLen = 50;
constexpr size_t kVocab = 40;
constexpr size_t kHubs = 2;
constexpr size_t kBudget = 64 * 1024;
constexpr int kKillExit = 137;
constexpr uint32_t kSeedBase = 20160516;  // fixed seed matrix (CI replays)
constexpr size_t kRandomKillPoints = 20;

// Crash-hook plumbing. Plain globals: the hook is a bare function
// pointer, and each forked child installs its own copy-on-write state.
std::atomic<uint64_t> g_countdown{0};
std::atomic<uint64_t> g_sites_seen{0};

void CountingHook(const char*) {
  g_sites_seen.fetch_add(1, std::memory_order_relaxed);
}

void KillingHook(const char*) {
  if (g_countdown.fetch_sub(1, std::memory_order_relaxed) == 1) {
    _exit(kKillExit);  // no stdio flush: the unsynced suffix dies here
  }
}

/// The i-th record of the deterministic stream (1-based, id == i): one of
/// kVocab keywords plus a hub keyword that alternates every kVocab
/// records, so AND pairs (keyword, hub) share records.
Microblog StreamRecord(uint64_t i) {
  return MakeBlog(static_cast<MicroblogId>(i), 1000 + i,
                  {static_cast<KeywordId>(i % kVocab),
                   static_cast<KeywordId>(kVocab + (i / kVocab) % kHubs)},
                  1 + (i % 7), "crash stream record " + std::to_string(i));
}

StoreOptions OracleStoreOptions(PolicyKind policy, const std::string& dir) {
  StoreOptions opts;
  opts.memory_budget_bytes = kBudget;
  opts.flush_fraction = 0.2;
  opts.k = 10;
  opts.policy = policy;
  opts.auto_flush = true;  // flush inline: segment writes interleave
  if (!dir.empty()) {
    opts.durability.enabled = true;
    opts.durability.dir = dir;
  }
  return opts;
}

/// Child body: stream records into a durable store, reporting the acked
/// high-water mark after every successful group commit. Runs under
/// whichever crash hook the caller installed; _exit()s always (a forked
/// gtest child must not run the parent's test machinery or atexit).
void RunChild(PolicyKind policy, const std::string& dir, int report_fd) {
  MicroblogStore store(OracleStoreOptions(policy, dir));
  if (!store.durability_status().ok()) _exit(40);
  for (uint64_t i = 1; i <= kStreamLen; ++i) {
    if (!store.Insert(StreamRecord(i)).ok()) _exit(41);
    if (i % kCommitEvery == 0) {
      if (!store.CommitDurable().ok()) _exit(42);
      const uint64_t acked = i;
      if (::write(report_fd, &acked, sizeof(acked)) != sizeof(acked)) {
        _exit(43);
      }
    }
  }
  // Probe protocol: the final value on the pipe is the site count (the
  // kill children never get here — their countdown fires first).
  const uint64_t sites = g_sites_seen.load(std::memory_order_relaxed);
  if (::write(report_fd, &sites, sizeof(sites)) != sizeof(sites)) _exit(43);
  _exit(0);
}

struct ChildRun {
  int exit_code = -1;
  uint64_t last_value = 0;       // last u64 on the pipe
  uint64_t second_last_value = 0;
  size_t values = 0;
};

/// Forks, runs `RunChild` under `hook`, and collects the pipe stream.
ChildRun ForkChild(PolicyKind policy, const std::string& dir,
                   CrashHookFn hook, uint64_t countdown) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    g_countdown.store(countdown, std::memory_order_relaxed);
    g_sites_seen.store(0, std::memory_order_relaxed);
    SetCrashHook(hook);
    RunChild(policy, dir, fds[1]);  // never returns
  }
  ::close(fds[1]);
  ChildRun run;
  uint64_t value = 0;
  while (::read(fds[0], &value, sizeof(value)) == sizeof(value)) {
    run.second_last_value = run.last_value;
    run.last_value = value;
    ++run.values;
  }
  ::close(fds[0]);
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  run.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  return run;
}

/// Top-k answer battery: every single-term query, a ring of OR pairs,
/// and AND pairs of a keyword with a hub it shares records with.
std::vector<TopKQuery> QueryBattery() {
  std::vector<TopKQuery> queries;
  for (size_t t = 0; t < kVocab + kHubs; ++t) {
    TopKQuery q;
    q.terms = {static_cast<TermId>(t)};
    q.type = QueryType::kSingle;
    q.k = 10;
    queries.push_back(q);
  }
  for (size_t t = 0; t < 10; ++t) {
    TopKQuery q;
    q.terms = {static_cast<TermId>(t),
               static_cast<TermId>((t + 7) % kVocab)};
    q.type = QueryType::kOr;
    q.k = 10;
    queries.push_back(q);
  }
  for (size_t t = 0; t < 10; ++t) {
    TopKQuery q;
    q.terms = {static_cast<TermId>(t),
               static_cast<TermId>(kVocab + t % kHubs)};
    q.type = QueryType::kAnd;
    q.k = 10;
    queries.push_back(q);
  }
  return queries;
}

void ExpectSameAnswers(QueryEngine* recovered, QueryEngine* reference,
                       const std::string& label) {
  for (const TopKQuery& query : QueryBattery()) {
    auto ra = recovered->Execute(query);
    auto rb = reference->Execute(query);
    ASSERT_TRUE(ra.ok()) << label;
    ASSERT_TRUE(rb.ok()) << label;
    ASSERT_EQ(ra->results.size(), rb->results.size())
        << label << " term " << query.terms[0];
    for (size_t i = 0; i < ra->results.size(); ++i) {
      ASSERT_TRUE(RecordsEqual(ra->results[i], rb->results[i]))
          << label << " term " << query.terms[0] << " position " << i
          << ": recovered id " << ra->results[i].id << " vs reference id "
          << rb->results[i].id;
    }
  }
}

class CrashRecoveryOracleTest
    : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(CrashRecoveryOracleTest, KillAnywhereLosesNoAckedRecord) {
  const PolicyKind policy = GetParam();
  const std::string dir = testing_util::UniqueTempPath(
      std::string("kflush_crash_oracle_") + PolicyKindName(policy));
  const std::string ref_dir = dir + "_ref";

  // Probe: count the crash-point sites one full run passes through.
  RemoveTree(dir);
  const ChildRun probe = ForkChild(policy, dir, CountingHook, 0);
  ASSERT_EQ(probe.exit_code, 0) << "probe child failed";
  const uint64_t total_sites = probe.last_value;
  ASSERT_GT(total_sites, kStreamLen)
      << "durable write paths fired implausibly few crash points";
  // Sanity: the probe's last acked report covers the whole stream.
  ASSERT_EQ(probe.second_last_value, kStreamLen);

  // The kill-point matrix: seeded-random points across the whole run
  // plus pinned extremes (first appends, mid-run, the final site).
  std::mt19937_64 rng(kSeedBase + static_cast<uint32_t>(policy));
  std::uniform_int_distribution<uint64_t> dist(1, total_sites);
  std::set<uint64_t> kill_points = {1, 2, total_sites / 2, total_sites};
  while (kill_points.size() < kRandomKillPoints + 4) {
    kill_points.insert(dist(rng));
  }

  for (const uint64_t kill_point : kill_points) {
    SCOPED_TRACE("kill point " + std::to_string(kill_point) + "/" +
                 std::to_string(total_sites) + " policy " +
                 PolicyKindName(policy));
    RemoveTree(dir);
    const ChildRun victim = ForkChild(policy, dir, KillingHook, kill_point);
    ASSERT_EQ(victim.exit_code, kKillExit) << "child did not die at its "
                                              "countdown";
    const uint64_t acked = victim.last_value;  // 0 if killed pre-commit

    // Recover in-process.
    MicroblogStore recovered(OracleStoreOptions(policy, dir));
    ASSERT_TRUE(recovered.durability_status().ok())
        << recovered.durability_status().ToString();

    // Zero acked-record loss, and the recovered set is the contiguous
    // stream prefix 1..M.
    const MicroblogId M = recovered.recovered_max_id();
    ASSERT_GE(M, acked) << "acked records lost";
    ASSERT_LE(M, kStreamLen);
    uint64_t present = 0;
    for (uint64_t i = 1; i <= M; ++i) {
      const Microblog expected = StreamRecord(i);
      Microblog actual;
      std::optional<Microblog> in_memory = recovered.raw_store()->Get(i);
      if (in_memory.has_value()) {
        actual = *in_memory;
      } else {
        ASSERT_TRUE(recovered.disk()->GetRecord(i, &actual).ok())
            << "record " << i << " missing from both tiers";
      }
      ASSERT_TRUE(RecordsEqual(actual, expected))
          << "record " << i << " corrupted by recovery";
      ++present;
    }
    ASSERT_EQ(present, M);

    // Differential check: an uninterrupted reference store fed the same
    // prefix answers identically.
    RemoveTree(ref_dir);
    MicroblogStore reference(OracleStoreOptions(policy, ref_dir));
    ASSERT_TRUE(reference.durability_status().ok());
    for (uint64_t i = 1; i <= M; ++i) {
      ASSERT_TRUE(reference.Insert(StreamRecord(i)).ok());
    }
    QueryEngine recovered_engine(&recovered);
    QueryEngine reference_engine(&reference);
    ExpectSameAnswers(&recovered_engine, &reference_engine, "post-recovery");

    // Continued ingest: the recovered store keeps behaving like the
    // uninterrupted one.
    for (uint64_t i = M + 1; i <= M + kContinueLen; ++i) {
      ASSERT_TRUE(recovered.Insert(StreamRecord(i)).ok());
      ASSERT_TRUE(reference.Insert(StreamRecord(i)).ok());
    }
    ExpectSameAnswers(&recovered_engine, &reference_engine,
                      "post-recovery continued ingest");
    RemoveTree(ref_dir);
  }
  RemoveTree(dir);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CrashRecoveryOracleTest,
                         ::testing::ValuesIn(testing_util::AllPolicies()),
                         [](const ::testing::TestParamInfo<PolicyKind>& info) {
                           std::string clean;
                           for (char c : std::string(
                                    PolicyKindName(info.param))) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               clean.push_back(c);
                             }
                           }
                           return clean;
                         });

}  // namespace
}  // namespace kflush
