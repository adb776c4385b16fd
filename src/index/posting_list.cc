#include "index/posting_list.h"

namespace kflush {

PostingInsertResult PostingList::Insert(MicroblogId id, double score, size_t k,
                                        const TopKChargeFn& on_charge,
                                        const TopKChargeFn& on_uncharge) {
  return InsertWith(id, score, k, MaybeChargeFn{on_charge},
                    MaybeChargeFn{on_uncharge});
}

void PostingList::Rebalance(size_t k, const TopKChargeFn& on_charge,
                            const TopKChargeFn& on_uncharge) {
  RebalanceWith(k, MaybeChargeFn{on_charge}, MaybeChargeFn{on_uncharge});
}

size_t PostingList::Top(size_t limit, std::vector<Posting>* out) const {
  const size_t n = std::min(limit, store_.size());
  const uint64_t* ids = store_.ids();
  const double* scores = store_.scores();
  const size_t base = out->size();
  out->resize(base + n);
  for (size_t i = 0; i < n; ++i) (*out)[base + i] = Posting{ids[i], scores[i]};
  return n;
}

size_t PostingList::TrimBeyondK(
    size_t k, const std::function<bool(MicroblogId)>& should_trim,
    std::vector<Posting>* out, const TopKChargeFn& on_charge,
    const TopKChargeFn& on_uncharge) {
  size_t trimmed = 0;
  if (store_.size() > k) {
    // Walk the tail back to front, keeping only postings the filter
    // protects. Popping a kept posting shrinks the list, so "positions
    // >= k remain unprocessed" is exactly size() > k.
    std::vector<Posting> kept_tail;
    while (store_.size() > k) {
      const size_t last = store_.size() - 1;
      const Posting p{store_.id(last), store_.score(last)};
      store_.PopBack();
      if (store_.size() < charged_) {
        // A stale charge from a larger k: popping from the back shrinks
        // the prefix one at a time, so it stays contiguous.
        --charged_;
        if (on_uncharge) on_uncharge(p.id);
      }
      if (!should_trim || should_trim(p.id)) {
        out->push_back(p);
        ++trimmed;
      } else {
        kept_tail.push_back(p);
      }
    }
    for (auto it = kept_tail.rbegin(); it != kept_tail.rend(); ++it) {
      store_.PushBack(it->id, it->score);
    }
    store_.MaybeShrink();
  }
  Rebalance(k, on_charge, on_uncharge);
  return trimmed;
}

size_t PostingList::RemoveIf(
    size_t k, const std::function<bool(MicroblogId)>& should_remove,
    const std::function<void(const Posting&, bool)>& on_removed,
    const TopKChargeFn& on_charge, const TopKChargeFn& on_uncharge) {
  size_t removed = 0;
  size_t kept_charged = 0;
  size_t write = 0;
  double* scores = store_.mutable_scores();
  uint64_t* ids = store_.mutable_ids();
  const size_t n = store_.size();
  for (size_t pos = 0; pos < n; ++pos) {
    const bool was_charged = pos < charged_;
    if (!should_remove || should_remove(ids[pos])) {
      if (on_removed) on_removed(Posting{ids[pos], scores[pos]}, was_charged);
      ++removed;
    } else {
      scores[write] = scores[pos];
      ids[write] = ids[pos];
      ++write;
      if (was_charged) ++kept_charged;
    }
  }
  store_.TruncateTo(write);
  store_.MaybeShrink();
  // Surviving charged postings compact into a prefix (charges came from a
  // prefix, removals only close gaps).
  charged_ = kept_charged;
  Rebalance(k, on_charge, on_uncharge);
  return removed;
}

bool PostingList::Remove(MicroblogId id, size_t k, Posting* removed,
                         bool* was_charged, const TopKChargeFn& on_charge,
                         const TopKChargeFn& on_uncharge) {
  const size_t i = simd::FindU64(store_.ids(), store_.size(), id);
  if (i == store_.size()) return false;
  if (removed != nullptr) *removed = Posting{store_.id(i), store_.score(i)};
  if (was_charged != nullptr) *was_charged = i < charged_;
  if (i < charged_) --charged_;  // caller owns the removed charge
  store_.EraseAt(i);
  store_.MaybeShrink();
  Rebalance(k, on_charge, on_uncharge);
  return true;
}

bool PostingList::IsInTopK(MicroblogId id, size_t k) const {
  const size_t n = std::min(k, store_.size());
  return simd::FindU64(store_.ids(), n, id) < n;
}

bool PostingList::Contains(MicroblogId id) const {
  return simd::FindU64(store_.ids(), store_.size(), id) < store_.size();
}

}  // namespace kflush
