// The shard oracle: every answer is the exact top-k, at every shard count.
// For every flush policy and every attribute we stream the identical
// deterministic tweet sequence into
//
//   A. a ShardedMicroblogStore with shards = 1,
//   B. a ShardedMicroblogStore with shards = TestShardCount()
//      (KFLUSH_TEST_SHARDS; the CI matrix runs 1 and 4), and
//   C. a plain MicroblogStore + QueryEngine (the shard unit on its own),
//
// and into a brute-force reference that keeps every streamed record. At
// regular points of the stream — including mid-run SetK churn — the
// identical query sequence probes all three, and every Execute answer
// (single, AND and OR, under all four policies) must be field-wise
// identical to the reference's top-k in (score desc, id desc) order
// (ids, timestamps, users, text, keywords). The user surface is held to
// the reference too; the area surface, whose box filter runs after the
// tile query, must agree across A, B and C. memory_hit / from_memory are
// not compared — the shards flush on their own budget slices, so hit
// rates legitimately differ; only answers must not.
//
// The run ends with bookkeeping reconciliation: per-shard eviction audit
// trails must reconcile against each shard's PolicyStats, and the
// aggregated MetricsRegistry snapshot must agree with the aggregated
// PolicyStats/IngestStats structs.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query_engine.h"
#include "core/ranking.h"
#include "core/sharded_store.h"
#include "core/store.h"
#include "core/trace.h"
#include "gen/query_generator.h"
#include "gen/tweet_generator.h"
#include "gtest/gtest.h"
#include "policy/flush_policy.h"
#include "testing/test_util.h"
#include "util/clock.h"

namespace kflush {
namespace {

using testing_util::RecordsEqual;
using testing_util::TestShardCount;

std::string Describe(const Microblog& blog) {
  std::ostringstream os;
  os << "id=" << blog.id << " ts=" << blog.created_at
     << " user=" << blog.user_id;
  return os.str();
}

std::string DescribeQuery(const TopKQuery& query) {
  std::ostringstream os;
  os << QueryTypeName(query.type) << " k=" << query.k << " terms=[";
  for (size_t i = 0; i < query.terms.size(); ++i) {
    os << (i ? "," : "") << query.terms[i];
  }
  os << "]";
  return os.str();
}

/// Asserts two answers are field-wise identical.
void ExpectSameAnswers(const QueryResult& a, const QueryResult& b,
                       const std::string& label) {
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_TRUE(RecordsEqual(a.results[i], b.results[i]))
        << label << " position " << i << ": "
        << Describe(a.results[i]) << " vs " << Describe(b.results[i]);
  }
}

/// The brute-force reference: every streamed record, stamped with the id
/// the deployments assign (its arrival ordinal, term-less records
/// included), indexed by term.
class Reference {
 public:
  Reference(AttributeKind attribute, const TweetGeneratorOptions& stream)
      : extractor_(MakeAttribute(attribute)),
        ranking_(MakeRanking(RankingKind::kTemporal)),
        tweets_(stream) {}

  void StreamOne() {
    Microblog blog = tweets_.Next();
    blog.id = ++next_id_;
    std::vector<TermId> terms;
    extractor_->ExtractTerms(blog, &terms);
    if (terms.empty()) return;  // never stored, like the deployments
    for (TermId term : terms) by_term_[term].push_back(records_.size());
    terms_.push_back(std::move(terms));
    records_.push_back(std::move(blog));
  }

  /// The exact top-k of `query` over every record streamed so far.
  QueryResult TopK(const TopKQuery& query, uint32_t k) const {
    std::vector<size_t> matches;
    for (TermId term : query.terms) {
      auto it = by_term_.find(term);
      if (it == by_term_.end()) continue;
      matches.insert(matches.end(), it->second.begin(), it->second.end());
    }
    std::sort(matches.begin(), matches.end());
    matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
    if (query.type == QueryType::kAnd) {
      matches.erase(
          std::remove_if(matches.begin(), matches.end(),
                         [&](size_t i) {
                           for (TermId term : query.terms) {
                             if (std::find(terms_[i].begin(), terms_[i].end(),
                                           term) == terms_[i].end()) {
                               return true;
                             }
                           }
                           return false;
                         }),
          matches.end());
    }
    std::sort(matches.begin(), matches.end(), [&](size_t a, size_t b) {
      const double sa = ranking_->Score(records_[a]);
      const double sb = ranking_->Score(records_[b]);
      if (sa != sb) return sa > sb;
      return records_[a].id > records_[b].id;
    });
    QueryResult result;
    for (size_t i = 0; i < matches.size() && i < k; ++i) {
      result.results.push_back(records_[matches[i]]);
    }
    return result;
  }

 private:
  std::unique_ptr<AttributeExtractor> extractor_;
  std::unique_ptr<RankingFunction> ranking_;
  TweetGenerator tweets_;
  MicroblogId next_id_ = 0;
  std::vector<Microblog> records_;
  std::vector<std::vector<TermId>> terms_;  // parallel to records_
  std::unordered_map<TermId, std::vector<size_t>> by_term_;
};

/// One deployment under test: a sharded store fed by its own generator
/// instance (same options => identical stream) with per-shard audit
/// trails attached for the end-of-run reconciliation.
struct Deployment {
  Deployment(PolicyKind policy, AttributeKind attribute, size_t shards,
             const TweetGeneratorOptions& stream, size_t total_budget)
      : clock(stream.start_time),
        store([&] {
          ShardedStoreOptions so;
          so.store.memory_budget_bytes = total_budget;
          so.store.flush_fraction = 0.2;
          so.store.k = 10;
          so.store.policy = policy;
          so.store.attribute = attribute;
          so.store.auto_flush = true;
          so.store.clock = &clock;
          so.num_shards = shards;
          return so;
        }()),
        tweets(stream) {
    audits.resize(store.num_shards());
    for (size_t i = 0; i < store.num_shards(); ++i) {
      store.shard(i)->policy()->set_audit_trail(&audits[i]);
    }
  }

  ~Deployment() {
    for (size_t i = 0; i < store.num_shards(); ++i) {
      store.shard(i)->policy()->set_audit_trail(nullptr);
    }
  }

  void StreamOne() {
    Microblog blog = tweets.Next();
    clock.Set(blog.created_at);
    ASSERT_TRUE(store.Insert(std::move(blog)).ok());
  }

  SimClock clock;
  ShardedMicroblogStore store;
  TweetGenerator tweets;
  std::deque<EvictionAuditTrail> audits;
};

/// The shard unit on its own, streamed identically.
struct Baseline {
  Baseline(PolicyKind policy, AttributeKind attribute,
           const TweetGeneratorOptions& stream, size_t total_budget)
      : clock(stream.start_time),
        store([&] {
          StoreOptions so;
          so.memory_budget_bytes = total_budget;
          so.flush_fraction = 0.2;
          so.k = 10;
          so.policy = policy;
          so.attribute = attribute;
          so.auto_flush = true;
          so.clock = &clock;
          return so;
        }()),
        engine(&store),
        tweets(stream) {}

  void StreamOne() {
    Microblog blog = tweets.Next();
    clock.Set(blog.created_at);
    ASSERT_TRUE(store.Insert(std::move(blog)).ok());
  }

  SimClock clock;
  MicroblogStore store;
  QueryEngine engine;
  TweetGenerator tweets;
};

/// End-of-run bookkeeping reconciliation for one deployment.
void ReconcileDeployment(Deployment* d, const std::string& label) {
  // Per-shard audit trail vs per-shard PolicyStats.
  for (size_t i = 0; i < d->store.num_shards(); ++i) {
    const FlushPolicy* policy = d->store.shard(i)->policy();
    const Status s =
        ReconcileAuditWithStats(d->audits[i].Records(), policy->stats());
    EXPECT_TRUE(s.ok()) << label << " shard " << i << ": " << s.ToString();
    // Audit records carry their shard's label.
    for (const EvictionAuditRecord& rec : d->audits[i].Records()) {
      ASSERT_EQ(rec.shard, static_cast<int>(i)) << label;
    }
  }

  // Aggregated registry snapshot vs the aggregated stats structs.
  const MetricsSnapshot snap = d->store.AggregatedMetrics();
  const PolicyStats ps = d->store.AggregatedPolicyStats();
  const IngestStats is = d->store.AggregatedIngestStats();
  EXPECT_EQ(snap.counter_or("flush.cycles"), ps.flush_cycles) << label;
  EXPECT_EQ(snap.counter_or("flush.records_flushed"), ps.records_flushed)
      << label;
  EXPECT_EQ(snap.counter_or("flush.postings_dropped"), ps.postings_dropped)
      << label;
  EXPECT_EQ(snap.counter_or("ingest.inserted"), is.inserted) << label;
  EXPECT_EQ(snap.counter_or("ingest.flush_triggers"), is.flush_triggers)
      << label;

  // Routing-layer invariant: every routed copy was inserted by some
  // shard, and every accepted record with terms produced at least one.
  const ShardedIngestStats ss = d->store.sharded_ingest_stats();
  EXPECT_EQ(is.inserted, ss.routed_copies) << label;
  EXPECT_GE(ss.routed_copies, ss.submitted - ss.skipped_no_terms) << label;
}

struct OracleCase {
  PolicyKind policy;
  AttributeKind attribute;
};

std::string CaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  std::string name = std::string(PolicyKindName(info.param.policy)) + "_" +
                     AttributeKindName(info.param.attribute);
  // gtest parameter names must be alphanumeric ("kFlushing-MK" is not).
  std::string clean;
  for (char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      clean.push_back(c);
    }
  }
  return clean;
}

class ShardOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ShardOracleTest, ShardCountIsInvisibleInAnswers) {
  const PolicyKind policy = GetParam().policy;
  const AttributeKind attribute = GetParam().attribute;
  const size_t shards = TestShardCount();

  // A compact but flush-heavy configuration: ~300-byte records against a
  // 256 KiB total budget mean dozens of flush cycles over the run, with a
  // vocabulary small enough that posting lists get real depth.
  TweetGeneratorOptions stream;
  stream.seed = 20160516;  // deterministic; pass-once == pass-always
  stream.vocabulary_size = 3000;
  stream.num_users = 1500;
  stream.num_hotspots = 16;
  const size_t kBudget = 256 * 1024;
  const uint64_t kTweets = attribute == AttributeKind::kKeyword ? 20'000
                                                                : 12'000;
  const uint64_t kProbeEvery = 2'000;
  const size_t kQueriesPerProbe = 25;

  Deployment one(policy, attribute, 1, stream, kBudget);
  Deployment many(policy, attribute, shards, stream, kBudget);
  Baseline base(policy, attribute, stream, kBudget);
  Reference reference(attribute, stream);
  ASSERT_EQ(many.store.num_shards(), shards);

  QueryWorkloadOptions workload;
  workload.seed = 777;
  workload.kind = WorkloadKind::kCorrelated;
  workload.attribute = attribute;
  QueryGenerator queries(workload, stream);

  const std::vector<GeoPoint> hotspots = MakeHotspots(stream);

  uint64_t streamed = 0;
  uint32_t next_k_churn = 14;  // mid-run SetK churn (paper §IV-C)
  while (streamed < kTweets) {
    for (uint64_t i = 0; i < kProbeEvery && streamed < kTweets; ++i) {
      one.StreamOne();
      many.StreamOne();
      base.StreamOne();
      reference.StreamOne();
      ++streamed;
    }

    // The same query objects probe every deployment, and each answer
    // must be the reference's exact top-k.
    const uint32_t store_k = one.store.k();
    for (size_t q = 0; q < kQueriesPerProbe; ++q) {
      const TopKQuery query = queries.Next();
      // Built with += : GCC 12's -Werror=restrict misfires at -O3 on the
      // chained operator+ form.
      std::string label = "@";
      label += std::to_string(streamed);
      label += ' ';
      label += DescribeQuery(query);
      const QueryResult expected =
          reference.TopK(query, query.k != 0 ? query.k : store_k);
      auto ra = one.store.engine()->Execute(query);
      auto rb = many.store.engine()->Execute(query);
      auto rc = base.engine.Execute(query);
      ASSERT_TRUE(ra.ok()) << label;
      ASSERT_TRUE(rb.ok()) << label;
      ASSERT_TRUE(rc.ok()) << label;
      ExpectSameAnswers(ra.value(), expected, "shards=1 " + label);
      ExpectSameAnswers(rb.value(), expected, "shards=N " + label);
      ExpectSameAnswers(rc.value(), expected, "store " + label);
    }

    if (attribute == AttributeKind::kSpatial) {
      // Area fan-out: a box around each of three hotspots — multi-tile
      // OR queries that hit several tile owners at shards > 1.
      for (size_t h = 0; h < 3 && h < hotspots.size(); ++h) {
        const GeoPoint c = hotspots[h];
        auto ra = one.store.engine()->SearchArea(c.lat - 0.08, c.lon - 0.08,
                                                 c.lat + 0.08, c.lon + 0.08);
        auto rb = many.store.engine()->SearchArea(c.lat - 0.08, c.lon - 0.08,
                                                  c.lat + 0.08, c.lon + 0.08);
        auto rc = base.engine.SearchArea(c.lat - 0.08, c.lon - 0.08,
                                         c.lat + 0.08, c.lon + 0.08);
        ASSERT_TRUE(ra.ok());
        ASSERT_TRUE(rb.ok());
        ASSERT_TRUE(rc.ok());
        const std::string label =
            "area hotspot " + std::to_string(h) + "@" +
            std::to_string(streamed);
        ExpectSameAnswers(ra.value(), rb.value(), label);
        ExpectSameAnswers(ra.value(), rc.value(), label + " (store)");
      }
    }
    if (attribute == AttributeKind::kUser) {
      // The user surface proper (kSingle over TermForUser).
      for (UserId user = 1; user <= 5; ++user) {
        TopKQuery query;
        query.terms = {static_cast<TermId>(user)};
        const QueryResult expected = reference.TopK(query, store_k);
        auto ra = one.store.engine()->SearchUser(user);
        auto rb = many.store.engine()->SearchUser(user);
        auto rc = base.engine.SearchUser(user);
        ASSERT_TRUE(ra.ok());
        ASSERT_TRUE(rb.ok());
        ASSERT_TRUE(rc.ok());
        const std::string label =
            "user " + std::to_string(user) + "@" + std::to_string(streamed);
        ExpectSameAnswers(ra.value(), expected, label);
        ExpectSameAnswers(rb.value(), expected, label + " (shards=N)");
        ExpectSameAnswers(rc.value(), expected, label + " (store)");
      }
    }

    // SetK churn at the halfway probe, applied identically everywhere;
    // policies pick the new k up at their next flush cycle.
    if (streamed >= kTweets / 2 && next_k_churn != 0) {
      one.store.SetK(next_k_churn);
      many.store.SetK(next_k_churn);
      base.store.SetK(next_k_churn);
      next_k_churn = 0;
    }
  }

  // Both deployments consumed the identical stream.
  ASSERT_EQ(one.tweets.generated(), many.tweets.generated());
  ASSERT_EQ(one.store.sharded_ingest_stats().submitted,
            many.store.sharded_ingest_stats().submitted);
  ASSERT_EQ(one.store.sharded_ingest_stats().skipped_no_terms,
            many.store.sharded_ingest_stats().skipped_no_terms);

  // The single-shard deployment must have flushed (otherwise the oracle
  // only ever compared in-memory stores and proves nothing about flush
  // correctness).
  ASSERT_GT(one.store.AggregatedPolicyStats().flush_cycles, 0u);

  ReconcileDeployment(&one, "shards=1");
  ReconcileDeployment(&many, "shards=N");
}

std::vector<OracleCase> AllCases() {
  std::vector<OracleCase> cases;
  for (PolicyKind policy : testing_util::AllPolicies()) {
    for (AttributeKind attribute :
         {AttributeKind::kKeyword, AttributeKind::kSpatial,
          AttributeKind::kUser}) {
      cases.push_back({policy, attribute});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllAttributes, ShardOracleTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace kflush
