// The standing-query differential oracle (the headline artifact of the
// continuous-query subsystem): replay a seeded stream into a sharded
// deployment under every flush policy and shard count {1, 4, 8} with an
// eviction-heavy budget, and hold every subscription's folded delta
// stream — at every probe point — byte-identical to a brute-force
// reference that recomputes the top-k from every record ever ingested.
//
// What "byte-identical" means here: the folded member list must match the
// reference exactly in (score, id) content AND order (the engine's
// score-desc/id-desc materialization order, which the sharded fan-out
// merge must preserve), and every enter delta must carry the full record,
// field-for-field equal to the ingested copy.
//
// Eviction integration is asserted, not assumed: each case must observe
// sub.member_evictions > 0 (standing-result members leaving the memory
// tier under flush pressure), every logged member eviction must name a
// record that entered some standing result, the scheduled disk-backed
// refills must run (sub.refills > 0) and change nothing (records are
// insert-only with immutable scores), and each shard's eviction audit
// trail must reconcile exactly against its policy counters.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <cctype>
#include <string>
#include <vector>

#include "core/sharded_store.h"
#include "core/trace.h"
#include "gtest/gtest.h"
#include "policy/flush_policy.h"
#include "sub/subscription_manager.h"
#include "testing/sub_fold.h"
#include "testing/test_util.h"

namespace kflush {
namespace {

using testing_util::DeltaFolder;
using testing_util::RecordsEqual;

constexpr size_t kStreamLen = 3000;
constexpr size_t kFlushEvery = 100;
constexpr size_t kProbeEvery = 250;
constexpr size_t kMidSubscribeAt = 800;
// Total budget divisible by every shard count compared (1, 4, 8) so the
// per-shard split drops no remainder bytes.
constexpr size_t kTotalBudget = 256 * 1024;
constexpr KeywordId kHotTerms = 8;
constexpr KeywordId kVocab = 64;
// Store-level k stays at 5 while subscriptions go up to 12: members ranked
// 6..12 of a subscribed term are exactly what the k-flushing policies
// evict, so member evictions happen under all four policies.
constexpr uint32_t kStoreK = 5;

struct OracleCase {
  PolicyKind policy;
  size_t shards;
};

std::string CaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  std::string name = std::string(PolicyKindName(info.param.policy)) +
                     "_shards" + std::to_string(info.param.shards);
  // gtest parameter names allow only [A-Za-z0-9_] ("kFlushing-MK" has a dash).
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  return name;
}

std::vector<OracleCase> AllCases() {
  std::vector<OracleCase> cases;
  for (PolicyKind policy : testing_util::AllPolicies()) {
    for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
      cases.push_back({policy, shards});
    }
  }
  return cases;
}

/// Deterministic stream: ids pre-stamped, timestamps non-monotonic in
/// arrival order (so displacement exits are not just "oldest member"),
/// keyword mass concentrated on the hot terms subscriptions watch, and
/// text padding sized so the stream overshoots the budget several times.
std::vector<Microblog> MakeStream() {
  std::vector<Microblog> stream;
  stream.reserve(kStreamLen);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t i = 0; i < kStreamLen; ++i) {
    Microblog blog;
    blog.id = static_cast<MicroblogId>(i + 1);
    blog.created_at = 1'000'000 + static_cast<Timestamp>(next() % 500'000);
    blog.user_id = 1 + (next() % 50);
    const KeywordId first = (next() % 100 < 75)
                                ? static_cast<KeywordId>(next() % kHotTerms)
                                : static_cast<KeywordId>(next() % kVocab);
    blog.keywords = {first};
    if (next() % 100 < 15) {
      const KeywordId second = static_cast<KeywordId>(next() % kVocab);
      if (second != first) blog.keywords.push_back(second);
    }
    blog.text = std::string(80, 'a' + static_cast<char>(i % 26));
    stream.push_back(std::move(blog));
  }
  return stream;
}

struct StandingQuery {
  uint64_t id = 0;
  TermId term = 0;
  uint32_t k = 0;
  DeltaFolder fold;
  std::set<MicroblogId> ever_entered;
};

class SubscriptionOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SubscriptionOracleTest, FoldedDeltasMatchBruteForceAtEveryProbe) {
  const OracleCase param = GetParam();

  ShardedStoreOptions opts;
  opts.store = testing_util::SmallStoreOptions(param.policy, kTotalBudget,
                                               kStoreK);
  opts.store.flush_fraction = 0.3;  // eviction-heavy
  opts.num_shards = param.shards;
  ShardedMicroblogStore store(opts);

  // Install the audit trails before the first flush so each covers its
  // policy's whole lifetime (ReconcileAuditWithStats requires that).
  std::vector<std::unique_ptr<EvictionAuditTrail>> trails;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    trails.push_back(std::make_unique<EvictionAuditTrail>());
    store.shard(i)->policy()->set_audit_trail(trails.back().get());
  }

  auto subs = MakeSubscriptions(store.engine());
  const std::vector<Microblog> stream = MakeStream();
  std::map<MicroblogId, const Microblog*> by_id;
  for (const Microblog& blog : stream) by_id[blog.id] = &blog;

  std::vector<StandingQuery> standing;
  auto subscribe = [&](TermId term, uint32_t k) {
    SubscriptionSpec spec;
    spec.kind = SubKind::kKeyword;
    spec.k = k;
    spec.term = term;
    auto id = subs->Subscribe(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    standing.push_back(StandingQuery{*id, term, k, DeltaFolder{}, {}});
  };
  for (KeywordId term = 0; term < kHotTerms; ++term) {
    subscribe(static_cast<TermId>(term), term % 2 == 0 ? 3 : 12);
    if (::testing::Test::HasFatalFailure()) return;
  }

  const RankingFunction* ranking = store.shard(0)->ranking();
  auto brute_force = [&](const StandingQuery& sub,
                         size_t ingested) -> std::vector<Posting> {
    std::vector<Posting> all;
    for (size_t i = 0; i < ingested; ++i) {
      const Microblog& blog = stream[i];
      if (std::find(blog.keywords.begin(), blog.keywords.end(),
                    static_cast<KeywordId>(sub.term)) == blog.keywords.end()) {
        continue;
      }
      all.push_back(Posting{blog.id, ranking->Score(blog)});
    }
    std::sort(all.begin(), all.end(), RanksBefore);
    if (all.size() > sub.k) all.resize(sub.k);
    return all;
  };

  auto probe = [&](size_t ingested) {
    subs->ProcessPendingRefills();
    for (StandingQuery& sub : standing) {
      std::vector<SubDelta> deltas;
      ASSERT_TRUE(subs->DrainDeltas(sub.id, &deltas));
      for (const SubDelta& delta : deltas) {
        if (delta.kind != SubDeltaKind::kEnter) continue;
        sub.ever_entered.insert(delta.id);
        auto it = by_id.find(delta.id);
        ASSERT_NE(it, by_id.end()) << "enter for unknown id " << delta.id;
        ASSERT_TRUE(RecordsEqual(delta.record, *it->second))
            << "enter record for id " << delta.id
            << " is not byte-identical to the ingested copy";
      }
      ASSERT_TRUE(sub.fold.ApplyAll(deltas))
          << "sub " << sub.id << " (term " << sub.term << ") after "
          << ingested << " inserts";
      std::vector<Posting> live;
      ASSERT_TRUE(subs->SnapshotMembers(sub.id, &live));
      ASSERT_TRUE(sub.fold.MatchesReference(live))
          << "folded stream diverged from live result, sub " << sub.id;
      ASSERT_TRUE(sub.fold.MatchesReference(brute_force(sub, ingested)))
          << "DIVERGENCE: sub " << sub.id << " (term " << sub.term << ", k "
          << sub.k << ") after " << ingested << " inserts, "
          << store.num_shards() << " shards, "
          << PolicyKindName(param.policy);
    }
  };

  uint32_t churn = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(store.Insert(stream[i]).ok());
    const size_t ingested = i + 1;
    if (ingested % kFlushEvery == 0) store.FlushAllOnce();
    if (ingested == kMidSubscribeAt) {
      // Late subscribers seed through the force-disk snapshot: part of
      // their initial answer is already disk-resident by now.
      for (KeywordId term = 0; term < 4; ++term) {
        subscribe(static_cast<TermId>(term), 7);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    if (ingested % kProbeEvery == 0) {
      // SetK churn: shrink and grow in turn, exercised mid-stream.
      StandingQuery& sub = standing[churn % standing.size()];
      sub.k = (churn % 3 == 0) ? 2 : (churn % 3 == 1 ? 12 : 6);
      ASSERT_TRUE(subs->SetK(sub.id, sub.k).ok());
      ++churn;
      probe(ingested);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  store.FlushAllOnce();
  probe(stream.size());
  if (::testing::Test::HasFatalFailure()) return;

  // Eviction integration happened and was audited.
  auto* reg = subs->metrics_registry();
  EXPECT_GT(reg->counter("sub.member_evictions")->value(), 0u)
      << "budget was not eviction-heavy enough to evict a standing member";
  EXPECT_GT(reg->counter("sub.refills")->value(), 0u);
  std::set<MicroblogId> entered_any;
  for (const StandingQuery& sub : standing) {
    entered_any.insert(sub.ever_entered.begin(), sub.ever_entered.end());
  }
  for (MicroblogId id : subs->member_eviction_ids()) {
    EXPECT_TRUE(entered_any.count(id) > 0)
        << "member-eviction log names id " << id
        << " which never entered any standing result";
  }
  uint64_t audited_evictions = 0;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    const Status reconciled = ReconcileAuditWithStats(
        trails[i]->Records(), store.shard(i)->policy()->stats());
    EXPECT_TRUE(reconciled.ok())
        << "shard " << i << ": " << reconciled.ToString();
    for (const EvictionAuditRecord& record : trails[i]->Records()) {
      audited_evictions += record.records_flushed;
    }
  }
  EXPECT_GT(audited_evictions, 0u);

  // Terminal accounting: undrained deltas (there should be none — the
  // final probe drained everything) plus drained ones partition published.
  subs->Shutdown();
  EXPECT_EQ(reg->counter("sub.deltas_published")->value(),
            reg->counter("sub.deltas_pushed")->value() +
                reg->counter("sub.deltas_dropped_on_disconnect")->value());
  EXPECT_EQ(reg->counter("sub.deltas_dropped_on_disconnect")->value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllShardCounts, SubscriptionOracleTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace kflush
