// 500-seed fold property test: under random interleavings of ingest,
// flush cycles, SetK churn, and subscribe/unsubscribe, every
// subscription's drained delta stream must fold — with contiguous
// sequence numbers, no duplicate enters, and no exits of non-members —
// into exactly the brute-force top-k over every record ever ingested,
// and into exactly the manager's live standing result. Policies rotate
// across seeds so all four flush behaviors (including LRU, whose memory
// postings are not a score-prefix) face the same property.

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/query_engine.h"
#include "core/store.h"
#include "gtest/gtest.h"
#include "sub/subscription_manager.h"
#include "testing/sub_fold.h"
#include "testing/test_util.h"

namespace kflush {
namespace {

using testing_util::AllPolicies;
using testing_util::DeltaFolder;
using testing_util::MakeBlog;
using testing_util::SmallStoreOptions;

constexpr int kSeeds = 500;
constexpr int kOpsPerSeed = 80;
constexpr KeywordId kNumTerms = 4;
constexpr uint32_t kMaxK = 8;

struct LiveSub {
  uint64_t id = 0;
  TermId term = 0;
  uint32_t k = 0;
  DeltaFolder fold;
};

class FoldPropertyRun {
 public:
  explicit FoldPropertyRun(uint64_t seed)
      : rng_(seed),
        store_(SmallStoreOptions(AllPolicies()[seed % AllPolicies().size()],
                                 /*budget=*/64 * 1024)),
        engine_(&store_),
        subs_(MakeSubscriptions(&engine_)) {}

  void Run() {
    SubscribeOne();  // at least one standing query from the start
    for (int op = 0; op < kOpsPerSeed; ++op) {
      const uint32_t dice = Rand(100);
      if (dice < 55) {
        InsertOne();
      } else if (dice < 65) {
        store_.FlushOnce();
      } else if (dice < 75 && !live_.empty()) {
        LiveSub& sub = live_[Rand(live_.size())];
        sub.k = 1 + Rand(kMaxK);
        ASSERT_TRUE(subs_->SetK(sub.id, sub.k).ok());
      } else if (dice < 80 && live_.size() < 4) {
        SubscribeOne();
      } else if (dice < 85 && live_.size() > 1) {
        const size_t victim = Rand(live_.size());
        ASSERT_TRUE(subs_->Unsubscribe(live_[victim].id).ok());
        live_.erase(live_.begin() + victim);
      } else {
        ProbeAll();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    ProbeAll();
    subs_->Shutdown();
    auto* reg = subs_->metrics_registry();
    EXPECT_EQ(reg->counter("sub.deltas_published")->value(),
              reg->counter("sub.deltas_pushed")->value() +
                  reg->counter("sub.deltas_dropped_on_disconnect")->value());
  }

 private:
  uint32_t Rand(size_t bound) {
    return static_cast<uint32_t>(rng_() % bound);
  }

  void InsertOne() {
    Microblog blog = MakeBlog(next_id_++, 1000 + Rand(5000),
                              {static_cast<KeywordId>(Rand(kNumTerms))});
    kept_.push_back(blog);
    ASSERT_TRUE(store_.Insert(std::move(blog)).ok());
  }

  void SubscribeOne() {
    SubscriptionSpec spec;
    spec.kind = SubKind::kKeyword;
    spec.k = 1 + Rand(kMaxK);
    spec.term = static_cast<TermId>(Rand(kNumTerms));
    auto id = subs_->Subscribe(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    live_.push_back(LiveSub{*id, spec.term, spec.k, DeltaFolder{}});
  }

  /// Reference top-k for one subscription over every record ever ingested
  /// (flushing moves records to disk, it never deletes them).
  std::vector<Posting> BruteForce(const LiveSub& sub) const {
    std::vector<Posting> all;
    for (const Microblog& blog : kept_) {
      if (std::find(blog.keywords.begin(), blog.keywords.end(),
                    static_cast<KeywordId>(sub.term)) == blog.keywords.end()) {
        continue;
      }
      all.push_back(Posting{blog.id, store_.ranking()->Score(blog)});
    }
    std::sort(all.begin(), all.end(), RanksBefore);
    if (all.size() > sub.k) all.resize(sub.k);
    return all;
  }

  void ProbeAll() {
    subs_->ProcessPendingRefills();
    for (LiveSub& sub : live_) {
      std::vector<SubDelta> deltas;
      ASSERT_TRUE(subs_->DrainDeltas(sub.id, &deltas));
      ASSERT_TRUE(sub.fold.ApplyAll(deltas)) << "sub " << sub.id;
      ASSERT_LE(sub.fold.members().size(), sub.k);
      std::vector<Posting> members;
      ASSERT_TRUE(subs_->SnapshotMembers(sub.id, &members));
      ASSERT_TRUE(sub.fold.MatchesReference(members))
          << "folded stream diverged from live result, sub " << sub.id;
      ASSERT_TRUE(sub.fold.MatchesReference(BruteForce(sub)))
          << "folded stream diverged from brute force, sub " << sub.id;
    }
  }

  std::mt19937_64 rng_;
  MicroblogStore store_;
  QueryEngine engine_;
  std::unique_ptr<SubscriptionManager> subs_;
  std::vector<Microblog> kept_;
  std::vector<LiveSub> live_;
  MicroblogId next_id_ = 1;
};

TEST(SubscriptionFoldProperty, FiveHundredSeeds) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    FoldPropertyRun run(seed);
    run.Run();
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "replay with seed " << seed;
    }
  }
}

}  // namespace
}  // namespace kflush
