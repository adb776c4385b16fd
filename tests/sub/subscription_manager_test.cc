// SubscriptionManager unit tests: spec validation, snapshot seeding,
// incremental enter/exit publication, SetK shrink/grow, the
// eviction-refill path (provably a no-op on a correct standing result),
// notifier wiring, and the delta accounting invariant
// sub.deltas_published == sub.deltas_pushed + sub.deltas_dropped_on_disconnect.

#include "sub/subscription_manager.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/query_engine.h"
#include "core/store.h"
#include "gtest/gtest.h"
#include "testing/sub_fold.h"
#include "testing/test_util.h"

namespace kflush {
namespace {

using testing_util::DeltaFolder;
using testing_util::MakeBlog;
using testing_util::RecordsEqual;
using testing_util::SmallStoreOptions;

class SubscriptionManagerTest : public ::testing::Test {
 protected:
  explicit SubscriptionManagerTest(PolicyKind policy = PolicyKind::kFifo)
      : store_(SmallStoreOptions(policy)),
        engine_(&store_),
        subs_(MakeSubscriptions(&engine_)) {}

  /// Inserts a record with a pre-stamped id (so tests know it) and keeps a
  /// copy for byte-identity checks.
  const Microblog& Insert(MicroblogId id, Timestamp ts, KeywordId term) {
    Microblog blog = MakeBlog(id, ts, {term});
    kept_.push_back(blog);
    EXPECT_TRUE(store_.Insert(std::move(blog)).ok());
    return kept_.back();
  }

  uint64_t Counter(const std::string& name) {
    return subs_->metrics_registry()->counter(name)->value();
  }

  void ExpectAccountingInvariant() {
    EXPECT_EQ(Counter("sub.deltas_published"),
              Counter("sub.deltas_pushed") +
                  Counter("sub.deltas_dropped_on_disconnect"));
  }

  MicroblogStore store_;
  QueryEngine engine_;
  std::unique_ptr<SubscriptionManager> subs_;
  std::vector<Microblog> kept_;
};

SubscriptionSpec KeywordSpec(TermId term, uint32_t k) {
  SubscriptionSpec spec;
  spec.kind = SubKind::kKeyword;
  spec.k = k;
  spec.term = term;
  return spec;
}

TEST_F(SubscriptionManagerTest, RejectsInvalidSpecs) {
  // k out of range.
  EXPECT_TRUE(subs_->Subscribe(KeywordSpec(7, 0)).status().IsInvalidArgument());
  EXPECT_TRUE(
      subs_->Subscribe(KeywordSpec(7, 200000)).status().IsInvalidArgument());
  // Keyword subscription without a term.
  EXPECT_TRUE(subs_->Subscribe(KeywordSpec(kInvalidTermId, 5))
                  .status()
                  .IsInvalidArgument());
  // Kind/attribute mismatches on this keyword deployment.
  SubscriptionSpec user;
  user.kind = SubKind::kUser;
  user.k = 5;
  user.user = 42;
  EXPECT_TRUE(subs_->Subscribe(user).status().IsInvalidArgument());
  SubscriptionSpec area;
  area.kind = SubKind::kArea;
  area.k = 5;
  area.box = {0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(subs_->Subscribe(area).status().IsInvalidArgument());
  EXPECT_EQ(subs_->num_active(), 0u);
  EXPECT_EQ(Counter("sub.registered"), 0u);
}

TEST_F(SubscriptionManagerTest, SubscribeWithoutStoreFails) {
  SubscriptionManager bare(nullptr);
  EXPECT_TRUE(bare.Subscribe(KeywordSpec(7, 5)).status().IsInvalidArgument());
}

TEST_F(SubscriptionManagerTest, UnknownIdsAreNotFound) {
  EXPECT_TRUE(subs_->Unsubscribe(999).IsNotFound());
  EXPECT_TRUE(subs_->SetK(999, 5).IsNotFound());
  std::vector<SubDelta> out;
  EXPECT_FALSE(subs_->DrainDeltas(999, &out));
  std::vector<Posting> members;
  EXPECT_FALSE(subs_->SnapshotMembers(999, &members));
}

TEST_F(SubscriptionManagerTest, SeedsFromExistingRecords) {
  for (MicroblogId id = 1; id <= 10; ++id) {
    Insert(id, 1000 + id, /*term=*/7);
    Insert(100 + id, 1000 + id, /*term=*/8);  // other term: must not leak in
  }
  auto sub = subs_->Subscribe(KeywordSpec(7, 5));
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(subs_->num_active(), 1u);

  std::vector<SubDelta> deltas;
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  ASSERT_EQ(deltas.size(), 5u);
  DeltaFolder fold;
  ASSERT_TRUE(fold.ApplyAll(deltas));
  // Top-5 on term 7 by (score desc, id desc): ids 10..6, seeded best-first.
  ASSERT_EQ(fold.members().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fold.members()[i].id, 10 - i);
  }
  // Enter deltas carry the full record, byte-identical to what was stored.
  for (const SubDelta& delta : deltas) {
    auto it = std::find_if(kept_.begin(), kept_.end(), [&](const Microblog& b) {
      return b.id == delta.id;
    });
    ASSERT_NE(it, kept_.end());
    EXPECT_TRUE(RecordsEqual(delta.record, *it));
  }
  // Folded state equals the live standing result.
  std::vector<Posting> members;
  ASSERT_TRUE(subs_->SnapshotMembers(*sub, &members));
  EXPECT_TRUE(fold.MatchesReference(members));
}

TEST_F(SubscriptionManagerTest, PublishesEntersAndDisplacementExits) {
  auto sub = subs_->Subscribe(KeywordSpec(7, 2));
  ASSERT_TRUE(sub.ok());
  DeltaFolder fold;
  std::vector<SubDelta> deltas;

  Insert(1, 1001, 7);
  Insert(2, 1002, 7);
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  ASSERT_TRUE(fold.ApplyAll(deltas));
  EXPECT_EQ(fold.members().size(), 2u);

  // A better record displaces the worst member: exactly one exit (id 1,
  // the lowest score) then one enter.
  deltas.clear();
  Insert(3, 1003, 7);
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].kind, SubDeltaKind::kExit);
  EXPECT_EQ(deltas[0].id, 1u);
  EXPECT_EQ(deltas[1].kind, SubDeltaKind::kEnter);
  EXPECT_EQ(deltas[1].id, 3u);
  ASSERT_TRUE(fold.ApplyAll(deltas));

  // A record below the full top-k publishes nothing.
  deltas.clear();
  Insert(4, 900, 7);
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  EXPECT_TRUE(deltas.empty());

  std::vector<Posting> members;
  ASSERT_TRUE(subs_->SnapshotMembers(*sub, &members));
  EXPECT_TRUE(fold.MatchesReference(members));
}

TEST_F(SubscriptionManagerTest, SetKShrinkEmitsExitsForTrimmedTail) {
  for (MicroblogId id = 1; id <= 6; ++id) Insert(id, 1000 + id, 7);
  auto sub = subs_->Subscribe(KeywordSpec(7, 5));
  ASSERT_TRUE(sub.ok());
  std::vector<SubDelta> deltas;
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  DeltaFolder fold;
  ASSERT_TRUE(fold.ApplyAll(deltas));

  deltas.clear();
  ASSERT_TRUE(subs_->SetK(*sub, 2).ok());
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  ASSERT_EQ(deltas.size(), 3u);  // exits for ranks 3..5 (ids 4, 3, 2)
  for (const SubDelta& delta : deltas) {
    EXPECT_EQ(delta.kind, SubDeltaKind::kExit);
  }
  ASSERT_TRUE(fold.ApplyAll(deltas));
  ASSERT_EQ(fold.members().size(), 2u);
  EXPECT_EQ(fold.members()[0].id, 6u);
  EXPECT_EQ(fold.members()[1].id, 5u);
}

TEST_F(SubscriptionManagerTest, SetKGrowRefillsFromSnapshot) {
  for (MicroblogId id = 1; id <= 6; ++id) Insert(id, 1000 + id, 7);
  auto sub = subs_->Subscribe(KeywordSpec(7, 2));
  ASSERT_TRUE(sub.ok());
  std::vector<SubDelta> deltas;
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  DeltaFolder fold;
  ASSERT_TRUE(fold.ApplyAll(deltas));
  EXPECT_EQ(fold.members().size(), 2u);

  // Growing k rebuilds the larger result from the full record set; the two
  // current members are deduped, the next three enter.
  deltas.clear();
  ASSERT_TRUE(subs_->SetK(*sub, 5).ok());
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  ASSERT_EQ(deltas.size(), 3u);
  ASSERT_TRUE(fold.ApplyAll(deltas));
  ASSERT_EQ(fold.members().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fold.members()[i].id, 6 - i);
  }

  // Growing past the record count: the one remaining record enters (the
  // five current members are deduped by the snapshot offer), and a further
  // grow with nothing left publishes nothing at all.
  deltas.clear();
  ASSERT_TRUE(subs_->SetK(*sub, 10).ok());
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].kind, SubDeltaKind::kEnter);
  EXPECT_EQ(deltas[0].id, 1u);
  ASSERT_TRUE(fold.ApplyAll(deltas));
  ASSERT_EQ(fold.members().size(), 6u);

  deltas.clear();
  ASSERT_TRUE(subs_->SetK(*sub, 20).ok());
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  EXPECT_TRUE(deltas.empty());
}

TEST_F(SubscriptionManagerTest, UnsubscribeCountsUndrainedAsDropped) {
  for (MicroblogId id = 1; id <= 4; ++id) Insert(id, 1000 + id, 7);
  auto sub = subs_->Subscribe(KeywordSpec(7, 5));
  ASSERT_TRUE(sub.ok());
  // Four seed enters are published but never drained.
  EXPECT_EQ(Counter("sub.deltas_published"), 4u);
  ASSERT_TRUE(subs_->Unsubscribe(*sub).ok());
  EXPECT_EQ(Counter("sub.deltas_dropped_on_disconnect"), 4u);
  EXPECT_EQ(Counter("sub.deltas_pushed"), 0u);
  EXPECT_EQ(subs_->num_active(), 0u);
  EXPECT_EQ(Counter("sub.unsubscribed"), 1u);
  ExpectAccountingInvariant();
}

TEST_F(SubscriptionManagerTest, EvictionSchedulesRefillThatIsANoOp) {
  // FIFO evicts whole oldest records, so standing-result members (a k far
  // above the record count makes every record a member) leave memory
  // under flush pressure.
  auto sub = subs_->Subscribe(KeywordSpec(7, 10000));
  ASSERT_TRUE(sub.ok());
  std::vector<uint64_t> notified;
  subs_->set_notifier([&](uint64_t id) { notified.push_back(id); });

  MicroblogId next_id = 1;
  while (!store_.MemoryFull()) {
    Microblog blog = MakeBlog(next_id, 1000 + next_id, {7});
    kept_.push_back(blog);
    ASSERT_TRUE(store_.Insert(std::move(blog)).ok());
    ++next_id;
  }
  std::vector<SubDelta> deltas;
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  DeltaFolder fold;
  ASSERT_TRUE(fold.ApplyAll(deltas));
  const size_t members_before = fold.members().size();
  ASSERT_GT(members_before, 0u);
  EXPECT_FALSE(notified.empty());  // insert-path notifications
  notified.clear();

  ASSERT_GT(store_.FlushOnce(), 0u);
  EXPECT_GT(Counter("sub.member_evictions"), 0u);
  // Every logged member eviction names a record that entered the result.
  std::set<MicroblogId> entered;
  for (const auto& [id, record] : fold.records()) entered.insert(id);
  for (MicroblogId id : subs_->member_eviction_ids()) {
    EXPECT_TRUE(entered.count(id) > 0) << "evicted non-member " << id;
  }
  // The flushing thread notified the holder so a drainer wakes promptly.
  EXPECT_FALSE(notified.empty());

  // The refill re-executes the snapshot with force_disk and must be a
  // no-op: records are insert-only with immutable scores, so eviction to
  // disk cannot change the top-k.
  subs_->ProcessPendingRefills();
  EXPECT_GT(Counter("sub.refills"), 0u);
  deltas.clear();
  ASSERT_TRUE(subs_->DrainDeltas(*sub, &deltas));
  EXPECT_TRUE(deltas.empty());
  std::vector<Posting> members;
  ASSERT_TRUE(subs_->SnapshotMembers(*sub, &members));
  EXPECT_TRUE(fold.MatchesReference(members));
  EXPECT_EQ(members.size(), members_before);
}

TEST_F(SubscriptionManagerTest, NotifierQuiescesOnClear) {
  auto sub = subs_->Subscribe(KeywordSpec(7, 5));
  ASSERT_TRUE(sub.ok());
  int fires = 0;
  subs_->set_notifier([&](uint64_t) { ++fires; });
  Insert(1, 1001, 7);
  EXPECT_EQ(fires, 1);
  subs_->set_notifier(nullptr);
  Insert(2, 1002, 7);
  EXPECT_EQ(fires, 1);  // cleared notifier never runs again
}

TEST_F(SubscriptionManagerTest, ShutdownHoldsAccountingInvariant) {
  for (MicroblogId id = 1; id <= 8; ++id) Insert(id, 1000 + id, 7);
  auto a = subs_->Subscribe(KeywordSpec(7, 3));
  auto b = subs_->Subscribe(KeywordSpec(7, 5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Drain one subscription, leave the other undrained.
  std::vector<SubDelta> deltas;
  ASSERT_TRUE(subs_->DrainDeltas(*a, &deltas));
  EXPECT_EQ(deltas.size(), 3u);
  subs_->Shutdown();
  EXPECT_EQ(subs_->num_active(), 0u);
  EXPECT_EQ(Counter("sub.deltas_pushed"), 3u);
  EXPECT_EQ(Counter("sub.deltas_dropped_on_disconnect"), 5u);
  ExpectAccountingInvariant();
  // Idempotent.
  subs_->Shutdown();
  ExpectAccountingInvariant();
}

}  // namespace
}  // namespace kflush
