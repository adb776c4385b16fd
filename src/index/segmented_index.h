// Temporally segmented index: the substrate of the FIFO baseline. The index
// is a chain of temporally disjoint segments; inserts go to the newest
// (active) segment, and flushing drops whole oldest segments (paper §V:
// "FIFO ... is implemented based on a temporally-segmented hash index that
// consists of multiple temporally disjoint segments. On full memory, the
// oldest index segments are completely flushed out from memory."). Because
// segments double as flush units, FIFO needs no per-item bookkeeping and no
// separate flush buffer — which is why it has the lowest overhead in the
// paper's Figure 10(a).

#ifndef KFLUSH_INDEX_SEGMENTED_INDEX_H_
#define KFLUSH_INDEX_SEGMENTED_INDEX_H_

#include <deque>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"

namespace kflush {

/// A chain of InvertedIndex segments, newest first. Thread-safe.
class SegmentedIndex {
 public:
  explicit SegmentedIndex(MemoryTracker* tracker = nullptr);

  SegmentedIndex(const SegmentedIndex&) = delete;
  SegmentedIndex& operator=(const SegmentedIndex&) = delete;

  /// Inserts into the active (newest) segment.
  void Insert(TermId term, MicroblogId id, double score, Timestamp now);

  /// Top-`limit` postings for `term` merged across all segments in
  /// (score desc, id desc) order (each segment's list is score-ordered;
  /// merging keeps global order under any ranking function). Appends to
  /// `out`, returns count.
  size_t Query(TermId term, size_t limit, std::vector<Posting>* out) const;

  /// Postings under `term` across all segments.
  size_t EntrySize(TermId term) const;

  /// Seals the active segment and opens a new one. The caller (the FIFO
  /// policy) decides the sealing cadence from its byte accounting.
  void SealActiveSegment();

  /// Detaches and returns the oldest segment; queries no longer see it.
  /// When it is the only segment, a fresh active segment replaces it.
  /// `handoff`, when set, first runs on the oldest segment under the
  /// exclusive lock, so no reader sees its postings gone until it returns
  /// (the FIFO flush registers them on disk there); it must not reenter
  /// this index. The returned segment's entries still charge the tracker
  /// until removed or destroyed.
  std::unique_ptr<InvertedIndex> PopOldestSegment(
      const std::function<void(const InvertedIndex&)>& handoff = {});

  size_t NumSegments() const;

  /// Distinct terms whose postings across segments total at least `k`
  /// (the k-filled metric for FIFO).
  size_t NumTermsWithAtLeast(size_t k) const;

  size_t NumTerms() const;
  size_t TotalPostings() const;
  size_t MemoryBytes() const;

  /// Calls `fn(term, count)` once per (segment, term) pair; a term spanning
  /// multiple segments is reported once per segment, so callers aggregate.
  void ForEachTermCount(
      const std::function<void(TermId, size_t)>& fn) const;

 private:
  MemoryTracker* tracker_;
  mutable std::shared_mutex mu_;
  /// segments_.front() is the active (newest) segment.
  std::deque<std::unique_ptr<InvertedIndex>> segments_;
};

}  // namespace kflush

#endif  // KFLUSH_INDEX_SEGMENTED_INDEX_H_
