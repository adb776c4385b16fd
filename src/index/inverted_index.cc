#include "index/inverted_index.h"

namespace kflush {

namespace {
// Finalizer from MurmurHash3: spreads dense TermIds across shards.
inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

InvertedIndex::InvertedIndex(MemoryTracker* tracker)
    : tracker_(tracker), shards_(kNumShards) {}

InvertedIndex::~InvertedIndex() { Clear(); }

InvertedIndex::Shard& InvertedIndex::ShardFor(TermId term) {
  return shards_[MixHash(term) % kNumShards];
}

const InvertedIndex::Shard& InvertedIndex::ShardFor(TermId term) const {
  return shards_[MixHash(term) % kNumShards];
}

IndexInsertResult InvertedIndex::Insert(TermId term, MicroblogId id,
                                        double score, Timestamp now, size_t k,
                                        const TopKChargeFn& on_charge,
                                        const TopKChargeFn& on_uncharge) {
  return InsertWith(term, id, score, now, k, MaybeChargeFn{on_charge},
                    MaybeChargeFn{on_uncharge});
}

size_t InvertedIndex::Query(TermId term, size_t limit, Timestamp now,
                            std::vector<Posting>* out) {
  Shard& shard = ShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(term);
  if (it == shard.entries.end()) return 0;
  it->second.last_query = now;
  return it->second.postings.Top(limit, out);
}

size_t InvertedIndex::Peek(TermId term, size_t limit,
                           std::vector<Posting>* out) const {
  const Shard& shard = ShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(term);
  if (it == shard.entries.end()) return 0;
  return it->second.postings.Top(limit, out);
}

size_t InvertedIndex::EntrySize(TermId term) const {
  const Shard& shard = ShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(term);
  return it == shard.entries.end() ? 0 : it->second.postings.size();
}

bool InvertedIndex::GetEntryMeta(TermId term, EntryMeta* meta) const {
  const Shard& shard = ShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(term);
  if (it == shard.entries.end()) return false;
  const Entry& e = it->second;
  meta->term = term;
  meta->count = e.postings.size();
  meta->bytes =
      kBytesPerEntry + e.postings.size() * PostingList::kBytesPerPosting;
  meta->last_arrival = e.last_arrival;
  meta->last_query = e.last_query;
  return true;
}

size_t InvertedIndex::TrimBeyondK(
    TermId term, size_t k, const std::function<bool(MicroblogId)>& should_trim,
    std::vector<Posting>* out, const TopKChargeFn& on_charge,
    const TopKChargeFn& on_uncharge, const HandoffFn& handoff) {
  Shard& shard = ShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(term);
  if (it == shard.entries.end()) return 0;
  const size_t trimmed = it->second.postings.TrimBeyondK(
      k, should_trim, out, on_charge, on_uncharge);
  if (trimmed > 0) {
    shard.num_postings.Sub(trimmed);
    shard.bytes.Sub(trimmed * PostingList::kBytesPerPosting);
    if (tracker_ != nullptr) {
      tracker_->Release(MemoryComponent::kIndex,
                        trimmed * PostingList::kBytesPerPosting);
    }
  }
  if (it->second.postings.empty()) {
    shard.entries.erase(it);
    shard.num_entries.Sub(1);
    shard.bytes.Sub(kBytesPerEntry);
    if (tracker_ != nullptr) {
      tracker_->Release(MemoryComponent::kIndex, kBytesPerEntry);
    }
  }
  if (trimmed > 0 && handoff) handoff();
  return trimmed;
}

size_t InvertedIndex::RemoveMatching(
    TermId term, size_t k,
    const std::function<bool(MicroblogId)>& should_remove,
    const std::function<void(const Posting&, bool)>& on_removed,
    const TopKChargeFn& on_charge, const TopKChargeFn& on_uncharge,
    const HandoffFn& handoff) {
  Shard& shard = ShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(term);
  if (it == shard.entries.end()) return 0;
  const size_t removed = it->second.postings.RemoveIf(
      k, should_remove, on_removed, on_charge, on_uncharge);
  if (removed > 0) {
    shard.num_postings.Sub(removed);
    shard.bytes.Sub(removed * PostingList::kBytesPerPosting);
    if (tracker_ != nullptr) {
      tracker_->Release(MemoryComponent::kIndex,
                        removed * PostingList::kBytesPerPosting);
    }
  }
  if (it->second.postings.empty()) {
    shard.entries.erase(it);
    shard.num_entries.Sub(1);
    shard.bytes.Sub(kBytesPerEntry);
    if (tracker_ != nullptr) {
      tracker_->Release(MemoryComponent::kIndex, kBytesPerEntry);
    }
  }
  if (removed > 0 && handoff) handoff();
  return removed;
}

bool InvertedIndex::ContainsId(TermId term, MicroblogId id) const {
  const Shard& shard = ShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(term);
  if (it == shard.entries.end()) return false;
  return it->second.postings.Contains(id);
}

bool InvertedIndex::RemoveId(TermId term, MicroblogId id, size_t k,
                             Posting* removed, bool* was_charged,
                             const TopKChargeFn& on_charge,
                             const TopKChargeFn& on_uncharge,
                             const HandoffFn& handoff) {
  Shard& shard = ShardFor(term);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(term);
  if (it == shard.entries.end()) return false;
  if (!it->second.postings.Remove(id, k, removed, was_charged, on_charge,
                                  on_uncharge)) {
    return false;
  }
  shard.num_postings.Sub(1);
  shard.bytes.Sub(PostingList::kBytesPerPosting);
  if (tracker_ != nullptr) {
    tracker_->Release(MemoryComponent::kIndex, PostingList::kBytesPerPosting);
  }
  if (it->second.postings.empty()) {
    shard.entries.erase(it);
    shard.num_entries.Sub(1);
    shard.bytes.Sub(kBytesPerEntry);
    if (tracker_ != nullptr) {
      tracker_->Release(MemoryComponent::kIndex, kBytesPerEntry);
    }
  }
  if (handoff) handoff();
  return true;
}

void InvertedIndex::RebalanceAll(size_t k, const TopKChargeFn& on_charge,
                                 const TopKChargeFn& on_uncharge) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [term, entry] : shard.entries) {
      entry.postings.Rebalance(k, on_charge, on_uncharge);
    }
  }
}

void InvertedIndex::ForEachEntry(
    const std::function<void(const EntryMeta&)>& fn) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [term, entry] : shard.entries) {
      EntryMeta meta;
      meta.term = term;
      meta.count = entry.postings.size();
      meta.bytes = kBytesPerEntry +
                   entry.postings.size() * PostingList::kBytesPerPosting;
      meta.last_arrival = entry.last_arrival;
      meta.last_query = entry.last_query;
      fn(meta);
    }
  }
}

void InvertedIndex::Snapshot(IndexSnapshot* snap) const {
  snap->Clear();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [term, entry] : shard.entries) {
      snap->terms.push_back(term);
      snap->counts.push_back(static_cast<uint32_t>(entry.postings.size()));
      snap->last_arrival.push_back(entry.last_arrival);
      snap->last_query.push_back(entry.last_query);
    }
  }
}

size_t InvertedIndex::NumEntries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.num_entries.Get();
  return total;
}

size_t InvertedIndex::NumEntriesWithAtLeast(size_t k) const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [term, entry] : shard.entries) {
      if (entry.postings.size() >= k) ++count;
    }
  }
  return count;
}

size_t InvertedIndex::TotalPostings() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.num_postings.Get();
  return total;
}

size_t InvertedIndex::MemoryBytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.bytes.Get();
  return total;
}

size_t InvertedIndex::PoolFootprintBytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.pool.FootprintBytes();
  }
  return total;
}

void InvertedIndex::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [term, entry] : shard.entries) {
      const size_t bytes =
          entry.postings.size() * PostingList::kBytesPerPosting +
          kBytesPerEntry;
      shard.bytes.Sub(bytes);
      shard.num_postings.Sub(entry.postings.size());
      shard.num_entries.Sub(1);
      if (tracker_ != nullptr) {
        tracker_->Release(MemoryComponent::kIndex, bytes);
      }
    }
    shard.entries.clear();
  }
}

}  // namespace kflush
