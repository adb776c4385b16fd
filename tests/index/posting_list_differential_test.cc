// 1000-seed differential property test: PostingList (slab-backed
// structure-of-arrays storage, charged-prefix bookkeeping) against a
// deque-based reference that replicates the pre-slab semantics. Every
// mutator runs under a random schedule of ks, predicates, and score
// patterns, and after every operation the test checks
//
//   * structural equality (ids and scores, position by position),
//   * charged() == min(k of the last mutation, size()),
//   * the net effect of the charge/uncharge callback stream: each id's
//     charge count stays in {0, 1} and the charged set is exactly the ids
//     of the first charged() positions — i.e. callbacks report every
//     transition exactly once, under any interleaving of inserts, trims,
//     predicate removals, id removals, and k changes.
//
// This is the test that licenses swapping the storage engine under the
// index: any deviation from the historical semantics (tie order, trim
// boundaries, charge transitions) shows up as a seed + operation trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "index/posting_list.h"
#include "util/random.h"

namespace kflush {
namespace {

/// Pre-slab reference: a deque kept in descending (score, arrival) order
/// under the same insert rule PostingList documents.
class DequeModel {
 public:
  void Insert(MicroblogId id, double score) {
    if (items_.empty() || score >= items_.front().score) {
      items_.push_front({id, score});
      return;
    }
    auto it = std::upper_bound(
        items_.begin(), items_.end(), score,
        [](double s, const Posting& p) { return s >= p.score; });
    items_.insert(it, {id, score});
  }

  /// Returns ids trimmed (positions >= k matching `pred`), in position
  /// order.
  template <typename Pred>
  std::vector<MicroblogId> TrimBeyondK(size_t k, const Pred& pred) {
    std::vector<MicroblogId> trimmed;
    std::deque<Posting> kept;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (i >= k && pred(items_[i].id)) {
        trimmed.push_back(items_[i].id);
      } else {
        kept.push_back(items_[i]);
      }
    }
    items_ = std::move(kept);
    return trimmed;
  }

  template <typename Pred>
  std::vector<MicroblogId> RemoveIf(const Pred& pred) {
    std::vector<MicroblogId> removed;
    std::deque<Posting> kept;
    for (const Posting& p : items_) {
      if (pred(p.id)) {
        removed.push_back(p.id);
      } else {
        kept.push_back(p);
      }
    }
    items_ = std::move(kept);
    return removed;
  }

  bool Remove(MicroblogId id) {
    for (size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].id == id) {
        items_.erase(items_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  const std::deque<Posting>& items() const { return items_; }

 private:
  std::deque<Posting> items_;
};

/// Net-effect observer over the charge/uncharge callback stream.
class ChargeLedger {
 public:
  TopKChargeFn Charge() {
    return [this](MicroblogId id) {
      const int count = ++counts_[id];
      ASSERT_EQ(count, 1) << "double charge on id " << id;
    };
  }
  TopKChargeFn Uncharge() {
    return [this](MicroblogId id) {
      const int count = --counts_[id];
      ASSERT_EQ(count, 0) << "uncharge without charge on id " << id;
    };
  }
  /// Uncharge reported out-of-band (RemoveIf/Remove `was_charged`).
  void DropCharge(MicroblogId id) {
    const int count = --counts_[id];
    ASSERT_EQ(count, 0) << "was_charged on uncharged id " << id;
  }

  std::set<MicroblogId> ChargedIds() const {
    std::set<MicroblogId> ids;
    for (const auto& [id, count] : counts_) {
      if (count != 0) ids.insert(id);
    }
    return ids;
  }

 private:
  std::map<MicroblogId, int> counts_;
};

void ExpectEquivalent(const PostingList& list, const DequeModel& model,
                      size_t k, const ChargeLedger& ledger) {
  ASSERT_EQ(list.size(), model.items().size());
  for (size_t i = 0; i < model.items().size(); ++i) {
    ASSERT_EQ(list.at(i).id, model.items()[i].id) << "position " << i;
    ASSERT_DOUBLE_EQ(list.at(i).score, model.items()[i].score)
        << "position " << i;
  }
  // Charged prefix re-aligns to min(k, size) on every mutation.
  ASSERT_EQ(list.charged(), std::min(k, list.size()));
  // The callback stream's net effect is exactly the prefix membership.
  std::set<MicroblogId> expect;
  for (size_t i = 0; i < list.charged(); ++i) expect.insert(list.at(i).id);
  ASSERT_EQ(ledger.ChargedIds(), expect);
}

TEST(PostingListDifferentialTest, ThousandSeedsMatchDequeReference) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed * 2654435761u + 1);
    SlabPool pool;
    PostingList list(&pool);
    DequeModel model;
    ChargeLedger ledger;
    const TopKChargeFn on_charge = ledger.Charge();
    const TopKChargeFn on_uncharge = ledger.Uncharge();

    size_t k = rng.Uniform(8);
    MicroblogId next_id = 1;
    std::vector<MicroblogId> live;
    double clock = 0;

    for (int op = 0; op < 220; ++op) {
      // Occasionally change k mid-stream (the SetK churn that motivates
      // charged-prefix bookkeeping) and re-align via Rebalance.
      if (rng.Bernoulli(0.08)) {
        k = rng.Uniform(16);
        list.Rebalance(k, on_charge, on_uncharge);
      }
      const uint64_t action = rng.Uniform(100);
      if (action < 55) {
        // Insert: mostly increasing scores, with duplicates and stale
        // scores mixed in.
        clock += 1;
        double score = clock;
        if (rng.Bernoulli(0.15)) score = rng.Uniform(static_cast<uint64_t>(clock) + 1);
        if (rng.Bernoulli(0.1) && !live.empty()) {
          // Exact duplicate of an existing score: tie-order coverage.
          score = model.items()[rng.Uniform(model.items().size())].score;
        }
        list.Insert(next_id, score, k, on_charge, on_uncharge);
        model.Insert(next_id, score);
        live.push_back(next_id);
        ++next_id;
      } else if (action < 70) {
        // TrimBeyondK, half the time with a predicate.
        const size_t trim_k = rng.Uniform(12);
        const bool all = rng.Bernoulli(0.5);
        auto pred = [&](MicroblogId id) { return all || id % 3 == 0; };
        std::vector<Posting> out;
        list.TrimBeyondK(
            trim_k, all ? std::function<bool(MicroblogId)>() : pred, &out,
            on_charge, on_uncharge);
        std::vector<MicroblogId> want = model.TrimBeyondK(trim_k, pred);
        // The real list walks its tail back to front, so trimmed postings
        // come out worst-ranked first.
        std::reverse(want.begin(), want.end());
        ASSERT_EQ(out.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(out[i].id, want[i]) << "trim order, position " << i;
        }
        for (MicroblogId id : want) {
          live.erase(std::remove(live.begin(), live.end(), id), live.end());
        }
        k = trim_k;
      } else if (action < 80) {
        // RemoveIf with a random residue predicate (flush eviction shape).
        const uint64_t residue = rng.Uniform(4);
        auto pred = [&](MicroblogId id) { return id % 4 == residue; };
        std::vector<MicroblogId> got;
        list.RemoveIf(
            k, pred,
            [&](const Posting& p, bool was_charged) {
              got.push_back(p.id);
              if (was_charged) ledger.DropCharge(p.id);
            },
            on_charge, on_uncharge);
        ASSERT_EQ(got, model.RemoveIf(pred));
        for (MicroblogId id : got) {
          live.erase(std::remove(live.begin(), live.end(), id), live.end());
        }
      } else if (action < 92 && !live.empty()) {
        // Remove one id (present 90% of the time).
        MicroblogId id;
        if (rng.Bernoulli(0.9)) {
          id = live[rng.Uniform(live.size())];
        } else {
          id = 1'000'000 + rng.Uniform(100);
        }
        Posting removed;
        bool was_charged = false;
        const bool a =
            list.Remove(id, k, &removed, &was_charged, on_charge, on_uncharge);
        const bool b = model.Remove(id);
        ASSERT_EQ(a, b);
        if (a) {
          ASSERT_EQ(removed.id, id);
          if (was_charged) ledger.DropCharge(id);
          live.erase(std::remove(live.begin(), live.end(), id), live.end());
        }
      } else {
        // Query-side checks ride along: Top and membership.
        const size_t limit = rng.Uniform(10) + 1;
        std::vector<Posting> top;
        list.Top(limit, &top);
        const size_t want_n = std::min(limit, model.items().size());
        ASSERT_EQ(top.size(), want_n);
        for (size_t i = 0; i < want_n; ++i) {
          ASSERT_EQ(top[i].id, model.items()[i].id);
          ASSERT_DOUBLE_EQ(top[i].score, model.items()[i].score);
        }
        if (!live.empty()) {
          ASSERT_TRUE(list.Contains(live[rng.Uniform(live.size())]));
        }
        ASSERT_FALSE(list.Contains(5'000'000));
        continue;  // no mutation: skip the k-sensitive prefix check below
      }
      ExpectEquivalent(list, model, k, ledger);
    }
    ExpectEquivalent(list, model, k, ledger);
  }
}

}  // namespace
}  // namespace kflush
