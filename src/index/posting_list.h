// A score-ordered posting list: the per-term id list inside an index entry
// (paper Figure 3/4). Ranking scores are computed on microblog arrival
// (paper §IV-B), so the list is maintained in descending score order:
// position 0 is the best-ranked (most recent, under temporal ranking)
// posting and trims happen at the tail. This head-insert / tail-trim
// separation is what lets the flushing thread work without contending with
// digestion (paper §III-A).
//
// Storage is a slab-backed structure-of-arrays block (posting_block.h):
// tiny lists live inline in the object, hot terms grow geometrically
// through the owning shard's SlabPool, and the contiguous score/id arrays
// feed the SIMD scan kernels (util/simd.h).
//
// Top-k charges: policies that maintain per-record top-k reference counts
// (the kFlushing-MK extension, §IV-D) need the set of postings "counted as
// top-k" to change only through explicit, observed transitions — judging
// membership by position against the *current* k is not enough, because k
// itself changes (SetK) and counts granted under one k would be revoked
// under another, drifting without bound. The list therefore owns a charged
// prefix: its first charged() postings hold a charge, every mutation
// reports charge/uncharge transitions through callbacks, and the prefix is
// re-aligned to min(k, size()) lazily as the list is touched. The charged
// set is always a subset of the list, so a record's total charge count
// never exceeds its reference count, under any k schedule.
//
// Charge callbacks come in two flavors: the std::function API below (used
// by policy code, where a per-call indirection is noise against the flush
// work it wraps) and the `*With` templates taking the functors by
// reference, so the digestion fast path — k == 0, no charge observers —
// inlines to a PushFront and nothing else.

#ifndef KFLUSH_INDEX_POSTING_LIST_H_
#define KFLUSH_INDEX_POSTING_LIST_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "index/posting_block.h"
#include "model/microblog.h"
#include "util/simd.h"

namespace kflush {

/// One indexed reference: microblog id plus its precomputed ranking score.
struct Posting {
  MicroblogId id = kInvalidMicroblogId;
  double score = 0.0;
};

/// The total order every posting list keeps, in memory and on disk, and
/// every query answer is ranked by: score desc, then id desc.
inline bool RanksBefore(const Posting& a, const Posting& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id > b.id;
}

/// Outcome of a PostingList insert, consumed by policies that track over-k
/// entries (kFlushing's list L).
struct PostingInsertResult {
  /// List length after the insert.
  size_t size_after = 0;
  /// 0-based position the new posting landed at.
  size_t insert_pos = 0;
};

/// Charge-transition callback: the id gaining or losing a top-k charge.
/// Both callbacks of a pair run while the owning shard lock is held.
using TopKChargeFn = std::function<void(MicroblogId)>;

/// No-op charge observer for paths with no top-k bookkeeping; lets the
/// templated mutators compile the charge machinery away entirely.
struct NoChargeFn {
  void operator()(MicroblogId) const {}
};

/// Adapts a possibly-empty std::function to the templated mutators (the
/// bridge the std::function convenience overloads go through).
struct MaybeChargeFn {
  const TopKChargeFn& fn;
  void operator()(MicroblogId id) const {
    if (fn) fn(id);
  }
};

/// Descending-score list of postings. Not thread-safe; the owning index
/// entry is locked by its shard.
class PostingList {
 public:
  /// `pool`, when given, supplies block storage and must outlive the list
  /// (in the index it is the owning shard's pool).
  explicit PostingList(SlabPool* pool = nullptr) : store_(pool) {}

  /// Inserts keeping (score desc, id desc) order — the exact total order
  /// the query engine's Materialize sorts candidates by, so truncating
  /// this list at any prefix can never disagree with the engine's
  /// tie-break. O(1) when the new posting is the best-ranked (the
  /// overwhelmingly common case under temporal ranking), O(log n) search
  /// + shift of the shorter side otherwise. The charged prefix is
  /// re-aligned to min(k, size()); with k == 0 and NoChargeFn this
  /// compiles to the bare structural insert.
  template <typename ChargeFn, typename UnchargeFn>
  PostingInsertResult InsertWith(MicroblogId id, double score, size_t k,
                                 const ChargeFn& on_charge,
                                 const UnchargeFn& on_uncharge) {
    PostingInsertResult result;
    if (store_.empty() || score > store_.score(0) ||
        (score == store_.score(0) && id > store_.id(0))) {
      // Fast path: new best-ranked posting.
      store_.PushFront(id, score);
      result.insert_pos = 0;
    } else {
      // First position with a strictly smaller score, then back up over
      // the equal-score run so ties stay ordered by descending id.
      size_t pos = simd::InsertPosDesc(store_.scores(), store_.size(), score);
      while (pos > 0 && store_.score(pos - 1) == score &&
             store_.id(pos - 1) < id) {
        --pos;
      }
      result.insert_pos = pos;
      store_.InsertAt(pos, id, score);
    }
    result.size_after = store_.size();
    if (result.insert_pos < charged_) {
      // Landed inside the charged prefix: charge it so the prefix stays
      // contiguous; Rebalance below sheds the excess from the prefix tail
      // (in the steady state that is exactly the posting pushed out of the
      // top-k region).
      on_charge(id);
      ++charged_;
    }
    RebalanceWith(k, on_charge, on_uncharge);
    return result;
  }

  /// std::function convenience overload (policy code); empty callbacks are
  /// allowed and skipped.
  PostingInsertResult Insert(MicroblogId id, double score, size_t k = 0,
                             const TopKChargeFn& on_charge = {},
                             const TopKChargeFn& on_uncharge = {});

  /// Appends up to `limit` best-ranked postings (id and the score fixed
  /// at arrival) to `out`. Returns the number appended.
  size_t Top(size_t limit, std::vector<Posting>* out) const;

  /// Removes postings at positions >= k for which `should_trim` returns
  /// true (always true if `should_trim` is empty). Trimmed postings are
  /// appended to `out`; a trimmed (or tail-kept) posting that held a charge
  /// is uncharged, and the prefix is re-aligned to min(k, size()) before
  /// returning. Positions < k are never removed. Returns count trimmed.
  size_t TrimBeyondK(size_t k,
                     const std::function<bool(MicroblogId)>& should_trim,
                     std::vector<Posting>* out,
                     const TopKChargeFn& on_charge = {},
                     const TopKChargeFn& on_uncharge = {});

  /// Removes every posting for which `should_remove` returns true (all if
  /// empty). Each removed posting is reported through `on_removed` along
  /// with whether it held a charge (callers maintaining per-record top-k
  /// refcounts decrement exactly for those). Survivors keep their charges,
  /// then the prefix re-aligns to min(k, size()): postings promoted into it
  /// are reported via `on_charge`, demoted ones via `on_uncharge`. Returns
  /// count removed.
  size_t RemoveIf(size_t k,
                  const std::function<bool(MicroblogId)>& should_remove,
                  const std::function<void(const Posting&, bool /*was_charged*/)>&
                      on_removed,
                  const TopKChargeFn& on_charge = {},
                  const TopKChargeFn& on_uncharge = {});

  /// Removes the posting with `id` if present. Returns true if removed;
  /// sets `*removed` to the removed posting and `*was_charged` when
  /// non-null (the caller owns the removed posting's uncharge). The prefix
  /// then re-aligns to min(k, size()).
  bool Remove(MicroblogId id, size_t k, Posting* removed, bool* was_charged,
              const TopKChargeFn& on_charge = {},
              const TopKChargeFn& on_uncharge = {});

  /// Re-aligns the charged prefix to min(k, size()), reporting each
  /// transition. Used when k changes without a structural mutation.
  template <typename ChargeFn, typename UnchargeFn>
  void RebalanceWith(size_t k, const ChargeFn& on_charge,
                     const UnchargeFn& on_uncharge) {
    const size_t target = std::min(k, store_.size());
    while (charged_ < target) {
      on_charge(store_.id(charged_));
      ++charged_;
    }
    while (charged_ > target) {
      --charged_;
      on_uncharge(store_.id(charged_));
    }
  }

  void Rebalance(size_t k, const TopKChargeFn& on_charge,
                 const TopKChargeFn& on_uncharge);

  /// Number of leading postings currently holding a top-k charge.
  size_t charged() const { return charged_; }

  /// True if `id` occupies a position < k.
  bool IsInTopK(MicroblogId id, size_t k) const;

  bool Contains(MicroblogId id) const;

  size_t size() const { return store_.size(); }
  bool empty() const { return store_.empty(); }

  Posting at(size_t pos) const {
    return Posting{store_.id(pos), store_.score(pos)};
  }

  /// Contiguous SoA views, best-ranked first (SIMD scans, tests).
  const double* scores() const { return store_.scores(); }
  const MicroblogId* ids() const { return store_.ids(); }

  /// Block bytes currently held from the pool (0 while inline).
  size_t BlockBytes() const { return store_.BlockBytes(); }

  /// Bytes charged to the index tracker per posting.
  static constexpr size_t kBytesPerPosting = sizeof(Posting);

 private:
  PostingBlock store_;
  /// Length of the charged prefix; the first charged_ postings hold
  /// charges.
  size_t charged_ = 0;
};

static_assert(sizeof(MicroblogId) == sizeof(uint64_t),
              "posting blocks store ids as raw u64 arrays");

}  // namespace kflush

#endif  // KFLUSH_INDEX_POSTING_LIST_H_
