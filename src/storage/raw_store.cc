#include "storage/raw_store.h"

namespace kflush {

namespace {

inline uint64_t MixHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Scratch record for TermsOf/ForEach: its string/vector keep their
/// capacity across calls, so steady-state reads allocate nothing. Valid
/// because neither the extractor nor ForEach's callback reenters the
/// store.
Microblog& ScratchBlog() {
  static thread_local Microblog scratch;
  return scratch;
}

}  // namespace

size_t RawDataStore::RecordBytesOf(const Record& rec) {
  // Mirrors RecordBytes() for an encoded record.
  return EncodedFootprintBytes(rec.blob) + kBytesPerRecordOverhead;
}

RawDataStore::RawDataStore(MemoryTracker* tracker)
    : tracker_(tracker), shards_(kNumShards) {}

RawDataStore::~RawDataStore() {
  for (Shard& shard : shards_) {
    // No lock needed during destruction; free blobs so oversize ones (heap
    // fallback) do not leak. Pool chunks release with the pool.
    for (auto& [id, rec] : shard.records) {
      shard.pool.Free(rec.blob, rec.blob_bytes);
    }
  }
  if (tracker_ != nullptr) {
    tracker_->Release(MemoryComponent::kRawStore, MemoryBytes());
  }
}

RawDataStore::Shard& RawDataStore::ShardFor(MicroblogId id) {
  return shards_[MixHash(id) % kNumShards];
}

const RawDataStore::Shard& RawDataStore::ShardFor(MicroblogId id) const {
  return shards_[MixHash(id) % kNumShards];
}

Status RawDataStore::Put(const Microblog& blog, uint32_t pcount) {
  const MicroblogId id = blog.id;
  const size_t bytes = RecordBytes(blog);
  const size_t blob_bytes = EncodedRecordBytes(blog);
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.records.try_emplace(id);
  if (!inserted) {
    return Status::AlreadyExists("microblog id already stored");
  }
  Record& rec = it->second;
  rec.blob = static_cast<uint8_t*>(shard.pool.Alloc(blob_bytes));
  rec.blob_bytes = static_cast<uint32_t>(blob_bytes);
  EncodeRecord(blog, rec.blob);
  rec.pcount = pcount;
  rec.topk_count = 0;
  shard.count.Add(1);
  shard.bytes.Add(bytes);
  if (tracker_ != nullptr) tracker_->Charge(MemoryComponent::kRawStore, bytes);
  return Status::OK();
}

bool RawDataStore::Contains(MicroblogId id) const {
  const Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.records.count(id) > 0;
}

std::optional<Microblog> RawDataStore::Get(MicroblogId id) const {
  const Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.records.find(id);
  if (it == shard.records.end()) return std::nullopt;
  Microblog blog;
  DecodeRecord(it->second.blob, &blog);
  return blog;
}

bool RawDataStore::TermsOf(MicroblogId id, const AttributeExtractor& extractor,
                           std::vector<TermId>* terms) const {
  Microblog& scratch = ScratchBlog();
  {
    const Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.records.find(id);
    if (it == shard.records.end()) {
      terms->clear();
      return false;
    }
    DecodeRecordWithoutText(it->second.blob, &scratch);
  }
  extractor.ExtractTerms(scratch, terms);
  return true;
}

size_t RawDataStore::Release(MicroblogId id, RecordBatch* batch) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.records.find(id);
  if (it == shard.records.end()) return 0;
  Record& rec = it->second;
  if (rec.pcount > 1) {
    --rec.pcount;
    return 0;
  }
  const size_t bytes = RecordBytesOf(rec);
  batch->Append(rec.blob);
  shard.pool.Free(rec.blob, rec.blob_bytes);
  shard.records.erase(it);
  shard.count.Sub(1);
  shard.bytes.Sub(bytes);
  if (tracker_ != nullptr) {
    tracker_->Release(MemoryComponent::kRawStore, bytes);
  }
  return bytes;
}

uint32_t RawDataStore::Pcount(MicroblogId id) const {
  const Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.records.find(id);
  return it == shard.records.end() ? 0 : it->second.pcount;
}

void RawDataStore::IncrementTopK(MicroblogId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.records.find(id);
  if (it != shard.records.end()) ++it->second.topk_count;
}

uint32_t RawDataStore::DecrementTopK(MicroblogId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.records.find(id);
  if (it == shard.records.end()) return 0;
  if (it->second.topk_count > 0) --it->second.topk_count;
  return it->second.topk_count;
}

uint32_t RawDataStore::TopKCount(MicroblogId id) const {
  const Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.records.find(id);
  return it == shard.records.end() ? 0 : it->second.topk_count;
}

void RawDataStore::ForEach(
    const std::function<void(const Microblog&, uint32_t, uint32_t)>& fn)
    const {
  Microblog& scratch = ScratchBlog();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [id, record] : shard.records) {
      DecodeRecord(record.blob, &scratch);
      fn(scratch, record.pcount, record.topk_count);
    }
  }
}

size_t RawDataStore::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.count.Get();
  return total;
}

size_t RawDataStore::MemoryBytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.bytes.Get();
  return total;
}

size_t RawDataStore::PoolFootprintBytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.pool.FootprintBytes();
  }
  return total;
}

}  // namespace kflush
