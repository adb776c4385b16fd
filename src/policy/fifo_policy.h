// The FIFO (temporal) flushing baseline: what existing microblog systems do
// implicitly or explicitly (paper §V, Earlybird-style). The index is
// temporally segmented; the active segment seals once it accumulates one
// flush-budget's worth of data, and flushing drops whole oldest segments.
// No per-item bookkeeping at all — lowest overhead, lowest hit ratio.

#ifndef KFLUSH_POLICY_FIFO_POLICY_H_
#define KFLUSH_POLICY_FIFO_POLICY_H_

#include <atomic>

#include "index/segmented_index.h"
#include "policy/flush_policy.h"

namespace kflush {

/// Temporal flushing over a segmented index. Thread-safe.
class FifoPolicy : public FlushPolicy {
 public:
  /// `segment_bytes` is the data volume (records + postings) after which
  /// the active segment seals; sizing it to the flush budget B means one
  /// flush typically drops one segment.
  FifoPolicy(const PolicyContext& ctx, uint32_t k, size_t segment_bytes);

  PolicyKind kind() const override { return PolicyKind::kFifo; }

  void Insert(const Microblog& blog, const std::vector<TermId>& terms,
              double score) override;
  size_t QueryTerm(TermId term, size_t limit,
                   std::vector<Posting>* out) override;
  size_t EntrySize(TermId term) const override;

  size_t NumTerms() const override;
  size_t NumKFilledTerms() const override;
  void CollectEntrySizes(std::vector<size_t>* out) const override;
  size_t AuxMemoryBytes() const override;

  size_t NumSegments() const { return index_.NumSegments(); }

 protected:
  size_t FlushImpl(size_t bytes_needed) override;

 private:
  SegmentedIndex index_;
  const size_t segment_bytes_;
  std::atomic<size_t> active_segment_bytes_{0};
};

}  // namespace kflush

#endif  // KFLUSH_POLICY_FIFO_POLICY_H_
