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
  std::vector<std::vector<Posting>> runs;  // runs[i]: terms[i]'s postings
  // Drop whole oldest segments until the budget is met. Flushing the only
  // (active) segment empties memory entirely; stop there regardless.
  while (freed < bytes_needed) {
    const size_t segments_before = index_.NumSegments();
    // Audit granularity: one victim per flushed segment (FIFO has no
    // per-entry decision to record; the whole oldest segment goes).
    BeginVictim(/*phase=*/1, kInvalidTermId);
    const size_t freed_before = freed;
    // Every run of the segment reaches disk before the pop detaches it.
    std::unique_ptr<InvertedIndex> segment =
        index_.PopOldestSegment([&](const InvertedIndex& oldest) {
          terms.clear();
          oldest.ForEachEntry(
              [&](const EntryMeta& meta) { terms.push_back(meta.term); });
          // Term-id order, not hash-map order, so the records reach the
          // flush buffer (and the sink) in the same order on every run.
          std::sort(terms.begin(), terms.end());
          runs.resize(terms.size());
          for (size_t i = 0; i < terms.size(); ++i) {
            runs[i].clear();
            oldest.Peek(terms[i], ~size_t{0}, &runs[i]);
            RegisterOnDisk(terms[i], runs[i]);
          }
        });
    ChargeStage(FlushStage::kIndex);
    // The segment's MemoryBytes() covers every posting and entry (released
    // when it is destroyed below), so only the record-side bytes of each
    // drop are added — adding the runs' posting bytes too would overstate
    // `freed` and let the cycle stop short of the B budget
    // (memory-accounting drift vs. the tracker's actual delta).
    freed += segment->MemoryBytes();
    for (size_t i = 0; i < terms.size(); ++i) {
      freed += DropPostings(runs[i]) -
               runs[i].size() * PostingList::kBytesPerPosting;
    }
    segment.reset();
    ChargeStage(FlushStage::kDrop);
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
