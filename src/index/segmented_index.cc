#include "index/segmented_index.h"

#include <algorithm>
#include <queue>

namespace kflush {

SegmentedIndex::SegmentedIndex(MemoryTracker* tracker) : tracker_(tracker) {
  segments_.push_front(std::make_unique<InvertedIndex>(tracker_));
}

void SegmentedIndex::Insert(TermId term, MicroblogId id, double score,
                            Timestamp now) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Charge-free overload: FIFO never consumes top-k displacement reports.
  segments_.front()->Insert(term, id, score, now);
}

size_t SegmentedIndex::Query(TermId term, size_t limit,
                             std::vector<Posting>* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Each segment's list is score-ordered; pull the per-segment top-`limit`
  // postings and merge by score. Under temporal ranking newer segments
  // strictly dominate older ones, but a general ranking can interleave.
  const size_t base = out->size();
  for (const auto& segment : segments_) segment->Peek(term, limit, out);
  std::sort(out->begin() + base, out->end(), RanksBefore);
  const size_t n = std::min(limit, out->size() - base);
  out->resize(base + n);
  return n;
}

size_t SegmentedIndex::EntrySize(TermId term) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = 0;
  for (const auto& segment : segments_) total += segment->EntrySize(term);
  return total;
}

void SegmentedIndex::SealActiveSegment() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  segments_.push_front(std::make_unique<InvertedIndex>(tracker_));
}

std::unique_ptr<InvertedIndex> SegmentedIndex::PopOldestSegment(
    const std::function<void(const InvertedIndex&)>& handoff) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (handoff) handoff(*segments_.back());
  std::unique_ptr<InvertedIndex> oldest = std::move(segments_.back());
  segments_.pop_back();
  if (segments_.empty()) {
    segments_.push_front(std::make_unique<InvertedIndex>(tracker_));
  }
  return oldest;
}

size_t SegmentedIndex::NumSegments() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return segments_.size();
}

void SegmentedIndex::ForEachTermCount(
    const std::function<void(TermId, size_t)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& segment : segments_) {
    segment->ForEachEntry(
        [&](const EntryMeta& meta) { fn(meta.term, meta.count); });
  }
}

size_t SegmentedIndex::NumTermsWithAtLeast(size_t k) const {
  std::unordered_map<TermId, size_t> counts;
  ForEachTermCount([&](TermId term, size_t count) { counts[term] += count; });
  size_t result = 0;
  for (const auto& [term, count] : counts) {
    if (count >= k) ++result;
  }
  return result;
}

size_t SegmentedIndex::NumTerms() const {
  std::unordered_map<TermId, size_t> counts;
  ForEachTermCount([&](TermId term, size_t count) { counts[term] += count; });
  return counts.size();
}

size_t SegmentedIndex::TotalPostings() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = 0;
  for (const auto& segment : segments_) total += segment->TotalPostings();
  return total;
}

size_t SegmentedIndex::MemoryBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t total = 0;
  for (const auto& segment : segments_) total += segment->MemoryBytes();
  return total;
}

}  // namespace kflush
