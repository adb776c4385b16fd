#include "policy/lru_policy.h"

namespace kflush {

LruPolicy::LruPolicy(const PolicyContext& ctx, uint32_t k)
    : FlushPolicy(ctx, k), index_(ctx.tracker) {}

LruPolicy::~LruPolicy() {
  if (ctx_.tracker != nullptr) {
    std::lock_guard<std::mutex> lock(lru_mu_);
    ctx_.tracker->Release(MemoryComponent::kPolicyOverhead,
                          lru_.size() * kBytesPerNode);
  }
}

void LruPolicy::Touch(MicroblogId id) {
  std::lock_guard<std::mutex> lock(lru_mu_);
  auto it = position_.find(id);
  if (it != position_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second = lru_.begin();
    return;
  }
  lru_.push_front(id);
  position_[id] = lru_.begin();
  if (ctx_.tracker != nullptr) {
    ctx_.tracker->Charge(MemoryComponent::kPolicyOverhead, kBytesPerNode);
  }
}

MicroblogId LruPolicy::PopColdest() {
  std::lock_guard<std::mutex> lock(lru_mu_);
  if (lru_.empty()) return kInvalidMicroblogId;
  const MicroblogId id = lru_.back();
  lru_.pop_back();
  position_.erase(id);
  if (ctx_.tracker != nullptr) {
    ctx_.tracker->Release(MemoryComponent::kPolicyOverhead, kBytesPerNode);
  }
  return id;
}

void LruPolicy::Untrack(MicroblogId id) {
  std::lock_guard<std::mutex> lock(lru_mu_);
  auto it = position_.find(id);
  if (it == position_.end()) return;
  lru_.erase(it->second);
  position_.erase(it);
  if (ctx_.tracker != nullptr) {
    ctx_.tracker->Release(MemoryComponent::kPolicyOverhead, kBytesPerNode);
  }
}

void LruPolicy::Insert(const Microblog& blog, const std::vector<TermId>& terms,
                       double score) {
  const Timestamp now = Now();
  for (TermId term : terms) {
    index_.Insert(term, blog.id, score, now, /*k=*/0);
  }
  // New arrivals enter at the MRU head (H-Store semantics).
  Touch(blog.id);
}

size_t LruPolicy::QueryTerm(TermId term, size_t limit,
                            std::vector<Posting>* out) {
  // LRU recency updates happen via OnResultAccess.
  return index_.Query(term, limit, Now(), out);
}

void LruPolicy::OnResultAccess(const std::vector<MicroblogId>& ids) {
  // Every microblog returned to a query moves to the MRU head — the
  // global-list contention that throttles H-Store-style anti-caching.
  for (MicroblogId id : ids) Touch(id);
}

size_t LruPolicy::EntrySize(TermId term) const {
  return index_.EntrySize(term);
}

size_t LruPolicy::FlushImpl(size_t bytes_needed) {
  Stopwatch watch;
  size_t freed = 0;
  size_t victims_examined = 0;
  size_t entries_erased = 0;
  std::vector<TermId> terms;
  std::vector<Posting> run(1);  // one posting per (term, victim)
  while (freed < bytes_needed) {
    const MicroblogId victim = PopColdest();
    if (victim == kInvalidMicroblogId) break;  // memory is empty
    ++victims_examined;
    // Recover the victim's terms and unlink it from every index entry.
    if (!ctx_.raw_store->TermsOf(victim, *ctx_.extractor, &terms)) {
      continue;  // already gone (defensive)
    }
    // Audit granularity: one victim per evicted record (LRU's decision
    // unit), identified by record id rather than term.
    BeginVictim(/*phase=*/1, kInvalidTermId, /*heap_rank=*/-1,
                /*order_key=*/0, victim);
    const size_t freed_before = freed;
    size_t record_entries_erased = 0;
    ChargeStage(FlushStage::kSelect);
    for (TermId term : terms) {
      const bool unlinked =
          index_.RemoveId(term, victim, /*k=*/0, &run[0], nullptr, {}, {},
                          [&] { RegisterOnDisk(term, run); });
      ChargeStage(FlushStage::kIndex);
      if (unlinked) {
        freed += DropPostings(run);
        ChargeStage(FlushStage::kDrop);
        // Entry erased when it became empty.
        if (index_.EntrySize(term) == 0) {
          freed += InvertedIndex::kBytesPerEntry;
          ++record_entries_erased;
        }
      }
    }
    entries_erased += record_entries_erased;
    EndVictim(freed - freed_before, record_entries_erased);
  }
  // Single-phase policy: everything reports under phases[0].
  std::lock_guard<std::mutex> lock(stats_mu_);
  PhaseStats& ps = stats_.phases[0];
  ++ps.runs;
  ps.candidates_scanned += victims_examined;
  ps.entries += entries_erased;
  ps.bytes_freed += freed;
  ps.micros += watch.ElapsedMicros();
  return freed;
}

size_t LruPolicy::NumTerms() const { return index_.NumEntries(); }

size_t LruPolicy::NumKFilledTerms() const {
  return index_.NumEntriesWithAtLeast(k());
}

void LruPolicy::CollectEntrySizes(std::vector<size_t>* out) const {
  index_.ForEachEntry(
      [&](const EntryMeta& meta) { out->push_back(meta.count); });
}

size_t LruPolicy::AuxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(lru_mu_);
  return lru_.size() * kBytesPerNode;
}

size_t LruPolicy::LruListSize() const {
  std::lock_guard<std::mutex> lock(lru_mu_);
  return lru_.size();
}

}  // namespace kflush
