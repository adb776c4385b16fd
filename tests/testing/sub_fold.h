// DeltaFolder: the consumer-side model of a subscription's delta stream,
// shared by the subscription unit tests, the 500-seed fold property test,
// the standing-query differential oracle, and the network loopback tests.
// Folding is strict: every delta must have the next contiguous sequence
// number, an enter may not duplicate a current member, an exit must name a
// current member at its recorded score, and the folded set stays sorted in
// the engine's (score desc, id desc) materialization order. Any violation
// is a protocol bug, reported as a failed AssertionResult with the
// offending delta.

#ifndef KFLUSH_TESTS_TESTING_SUB_FOLD_H_
#define KFLUSH_TESTS_TESTING_SUB_FOLD_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "index/posting_list.h"
#include "sub/subscription.h"

namespace kflush {
namespace testing_util {

class DeltaFolder {
 public:
  ::testing::AssertionResult Apply(const SubDelta& delta) {
    if (delta.seq != next_seq_) {
      return ::testing::AssertionFailure()
             << "seq gap: got " << delta.seq << ", want " << next_seq_;
    }
    ++next_seq_;
    switch (delta.kind) {
      case SubDeltaKind::kEnter: {
        if (IsMember(delta.id)) {
          return ::testing::AssertionFailure()
                 << "duplicate enter for id " << delta.id << " at seq "
                 << delta.seq;
        }
        if (delta.record.id != delta.id) {
          return ::testing::AssertionFailure()
                 << "enter delta seq " << delta.seq << " carries record id "
                 << delta.record.id << " != delta id " << delta.id;
        }
        Posting incoming{delta.id, delta.score};
        auto pos = std::lower_bound(members_.begin(), members_.end(),
                                    incoming, RanksBefore);
        members_.insert(pos, incoming);
        records_[delta.id] = delta.record;
        return ::testing::AssertionSuccess();
      }
      case SubDeltaKind::kExit: {
        auto it = std::find_if(members_.begin(), members_.end(),
                               [&](const Posting& m) {
                                 return m.id == delta.id;
                               });
        if (it == members_.end()) {
          return ::testing::AssertionFailure()
                 << "exit for non-member id " << delta.id << " at seq "
                 << delta.seq;
        }
        if (it->score != delta.score) {
          return ::testing::AssertionFailure()
                 << "exit for id " << delta.id << " at score " << delta.score
                 << " but member holds score " << it->score;
        }
        members_.erase(it);
        records_.erase(delta.id);
        return ::testing::AssertionSuccess();
      }
      case SubDeltaKind::kTerminal:
        terminated_ = true;
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "unknown delta kind " << static_cast<int>(delta.kind)
           << " at seq " << delta.seq;
  }

  ::testing::AssertionResult ApplyAll(const std::vector<SubDelta>& deltas) {
    for (const SubDelta& delta : deltas) {
      ::testing::AssertionResult r = Apply(delta);
      if (!r) return r;
    }
    return ::testing::AssertionSuccess();
  }

  bool IsMember(MicroblogId id) const {
    return std::any_of(members_.begin(), members_.end(),
                       [&](const Posting& m) { return m.id == id; });
  }

  /// Folded standing result, best-first (maintained sorted).
  const std::vector<Posting>& members() const { return members_; }

  /// The full record each current member entered with.
  const std::unordered_map<MicroblogId, Microblog>& records() const {
    return records_;
  }

  uint64_t deltas_applied() const { return next_seq_ - 1; }
  bool terminated() const { return terminated_; }

  /// Exact (score, id) comparison against a reference top-k, best-first.
  ::testing::AssertionResult MatchesReference(
      const std::vector<Posting>& expect) const {
    if (members_.size() != expect.size()) {
      return ::testing::AssertionFailure()
             << "folded size " << members_.size() << " != reference size "
             << expect.size();
    }
    for (size_t i = 0; i < expect.size(); ++i) {
      if (members_[i].id != expect[i].id ||
          members_[i].score != expect[i].score) {
        return ::testing::AssertionFailure()
               << "rank " << i << ": folded (" << members_[i].score << ", "
               << members_[i].id << ") != reference (" << expect[i].score
               << ", " << expect[i].id << ")";
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  uint64_t next_seq_ = 1;
  std::vector<Posting> members_;
  std::unordered_map<MicroblogId, Microblog> records_;
  bool terminated_ = false;
};

}  // namespace testing_util
}  // namespace kflush

#endif  // KFLUSH_TESTS_TESTING_SUB_FOLD_H_
