#include "policy/fifo_policy.h"

#include <algorithm>

namespace kflush {

FifoPolicy::FifoPolicy(const PolicyContext& ctx, uint32_t k,
                       size_t segment_bytes)
    : FlushPolicy(ctx, k), index_(ctx.tracker), segment_bytes_(segment_bytes) {}

void FifoPolicy::Insert(const Microblog& blog, const std::vector<TermId>& terms,
                        double score) {
  const Timestamp now = Now();
  for (TermId term : terms) {
    index_.Insert(term, blog.id, score, now);
  }
  const size_t added = RawDataStore::RecordBytes(blog) +
                       terms.size() * PostingList::kBytesPerPosting;
  const size_t total =
      active_segment_bytes_.fetch_add(added, std::memory_order_relaxed) +
      added;
  if (total >= segment_bytes_) {
    // Single sealer: the thread that crosses the threshold resets the
    // counter, so concurrent inserts cannot seal twice for one crossing.
    size_t expected = total;
    if (active_segment_bytes_.compare_exchange_strong(
            expected, 0, std::memory_order_relaxed)) {
      index_.SealActiveSegment();
    }
  }
}

size_t FifoPolicy::QueryTerm(TermId term, size_t limit,
                             std::vector<Posting>* out) {
  // FIFO keeps no recency metadata; queries are pure reads.
  return index_.Query(term, limit, out);
}

size_t FifoPolicy::EntrySize(TermId term) const {
  return index_.EntrySize(term);
}

size_t FifoPolicy::FlushImpl(size_t bytes_needed) {
  Stopwatch watch;
  size_t freed = 0;
  size_t segments_flushed = 0;
  std::vector<TermId> terms;
  std::vector<Posting> run;
  // Drop whole oldest segments until the budget is met. Flushing the only
  // (active) segment empties memory entirely; stop there regardless.
  while (freed < bytes_needed) {
    const size_t segments_before = index_.NumSegments();
    // Audit granularity: one victim per flushed segment (FIFO has no
    // per-entry decision to record; the whole oldest segment goes).
    BeginVictim(/*phase=*/1, kInvalidTermId);
    const size_t freed_before = freed;
    std::unique_ptr<InvertedIndex> segment = index_.PopOldestSegment();
    // The segment's MemoryBytes() covers every posting and entry, so only
    // the record-side bytes of each drop are added below — adding the
    // run's posting bytes too would overstate `freed` and let the cycle
    // stop short of the B budget (memory-accounting drift vs. the
    // tracker's actual delta).
    freed += segment->MemoryBytes();
    terms.clear();
    segment->ForEachEntry(
        [&](const EntryMeta& meta) { terms.push_back(meta.term); });
    // Victim order must not depend on hash-map iteration: equal-score disk
    // postings are served in registration order, so replayable runs need
    // the segment's entries dropped in a stable (term id) order.
    std::sort(terms.begin(), terms.end());
    ChargeStage(FlushStage::kSelect);
    for (TermId term : terms) {
      run.clear();
      segment->RemoveMatching(
          term, /*k=*/0, /*should_remove=*/nullptr,
          [&](const Posting& p, bool) { run.push_back(p); });
      ChargeStage(FlushStage::kIndex);
      freed += DropPostings(term, run) -
               run.size() * PostingList::kBytesPerPosting;
      ChargeStage(FlushStage::kDrop);
    }
    EndVictim(freed - freed_before);
    ++segments_flushed;
    if (segments_before <= 1) break;  // flushed the last segment
  }
  // Single-phase policy: everything reports under phases[0]; a "candidate"
  // here is a whole flushed segment.
  std::lock_guard<std::mutex> lock(stats_mu_);
  PhaseStats& ps = stats_.phases[0];
  ++ps.runs;
  ps.candidates_scanned += segments_flushed;
  ps.bytes_freed += freed;
  ps.micros += watch.ElapsedMicros();
  return freed;
}

size_t FifoPolicy::NumTerms() const { return index_.NumTerms(); }

size_t FifoPolicy::NumKFilledTerms() const {
  return index_.NumTermsWithAtLeast(k());
}

void FifoPolicy::CollectEntrySizes(std::vector<size_t>* out) const {
  // Per-term totals across segments.
  std::unordered_map<TermId, size_t> counts;
  // SegmentedIndex has no cross-segment iteration helper beyond the stats
  // methods; reuse NumTermsWithAtLeast-style accounting via a snapshot.
  index_.ForEachTermCount(
      [&](TermId term, size_t count) { counts[term] += count; });
  out->reserve(out->size() + counts.size());
  for (const auto& [term, count] : counts) out->push_back(count);
}

size_t FifoPolicy::AuxMemoryBytes() const {
  // Segment headers only: FIFO tracks nothing per item or per entry.
  return index_.NumSegments() * 64;
}

}  // namespace kflush
