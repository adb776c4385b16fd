// The in-memory raw data store (paper Figure 3): the container of complete
// microblog records, keyed by id. Index entries hold ids that point here.
// Each record carries its reference count `pcount` — the number of index
// entries still referencing it (paper §III-A) — and, for the kFlushing-MK
// extension, the number of entries in which it currently ranks within
// top-k. A record leaves memory exactly when pcount reaches zero.
//
// Records live as flat blobs (storage/record_batch.h): the fixed fields,
// keyword array, and text of a Microblog are encoded into one contiguous
// allocation from the owning shard's SlabPool (util/arena.h), so storing a
// record costs a single pool Alloc + memcpy instead of the std::string/
// std::vector heap round-trips a Microblog copy pays. Eviction copies the
// blob, still encoded, into the flush batch and returns it to the pool for
// the next arrival. Readers materialize a Microblog view on demand (TermsOf/
// ForEach reuse a scratch record, so steady-state reads allocate nothing).
//
// Byte accounting is logical (RecordBytes of the content, as before) and
// per-shard: counters are plain relaxed atomics written only under the
// shard lock — single-writer, so no RMW contention — and aggregated on
// read.

#ifndef KFLUSH_STORAGE_RAW_STORE_H_
#define KFLUSH_STORAGE_RAW_STORE_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "model/attribute.h"
#include "model/microblog.h"
#include "storage/record_batch.h"
#include "util/arena.h"
#include "util/memory_tracker.h"
#include "util/relaxed_counter.h"
#include "util/status.h"

namespace kflush {

/// Sharded id -> record map with byte accounting. Thread-safe.
class RawDataStore {
 public:
  /// Fixed per-record bookkeeping bytes (hash node, refcounts) charged on
  /// top of Microblog::FootprintBytes().
  static constexpr size_t kBytesPerRecordOverhead = 48;

  /// `tracker` may be null; when set, record bytes are charged to
  /// MemoryComponent::kRawStore.
  explicit RawDataStore(MemoryTracker* tracker = nullptr);
  ~RawDataStore();

  RawDataStore(const RawDataStore&) = delete;
  RawDataStore& operator=(const RawDataStore&) = delete;

  /// Stores `blog` with an initial reference count. Fails with
  /// AlreadyExists if the id is present.
  Status Put(const Microblog& blog, uint32_t pcount);

  bool Contains(MicroblogId id) const;

  /// Copies the record out (safe to use without holding locks).
  std::optional<Microblog> Get(MicroblogId id) const;

  /// Fills `terms` (cleared first) with the terms `extractor` maps record
  /// `id` to. Decodes the record's fields but not its text (the extractor
  /// sees an empty text) into a thread-local scratch record under the
  /// shard lock, so steady-state calls allocate nothing, and runs the
  /// extractor after releasing it. Returns false, leaving `terms` empty,
  /// if the record is absent.
  bool TermsOf(MicroblogId id, const AttributeExtractor& extractor,
               std::vector<TermId>* terms) const;

  /// Drops one reference to `id`. When it was the last one, removes the
  /// record in the same lookup, appends its encoded bytes to `batch`, and
  /// returns the bytes released (RecordBytes of the record); otherwise
  /// returns 0. An absent id is a no-op.
  size_t Release(MicroblogId id, RecordBatch* batch);

  uint32_t Pcount(MicroblogId id) const;

  /// Top-k reference count maintenance (kFlushing-MK bookkeeping).
  void IncrementTopK(MicroblogId id);
  uint32_t DecrementTopK(MicroblogId id);
  uint32_t TopKCount(MicroblogId id) const;

  /// Visits every record under its shard lock (shards visited one at a
  /// time). The reference is to a scratch record valid only during the
  /// callback. `fn` must not reenter the store.
  void ForEach(const std::function<void(const Microblog&, uint32_t /*pcount*/,
                                        uint32_t /*topk_count*/)>& fn) const;

  size_t size() const;
  size_t MemoryBytes() const;

  /// Bytes held from the OS by the record pools (slab footprint; the
  /// physical-overhead view next to the logical MemoryBytes accounting).
  size_t PoolFootprintBytes() const;

  /// Bytes a record of this shape accounts for.
  static size_t RecordBytes(const Microblog& blog) {
    return blog.FootprintBytes() + kBytesPerRecordOverhead;
  }

 private:
  struct Record {
    uint8_t* blob = nullptr;
    uint32_t blob_bytes = 0;
    uint32_t pcount = 0;
    uint32_t topk_count = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    // Declared before `records` so it is destroyed after them: blobs never
    // outlive their pool.
    SlabPool pool;
    std::unordered_map<MicroblogId, Record> records;
    // Written only under `mu` (single writer at a time), read lock-free by
    // the aggregating getters.
    ShardCounter count;
    ShardCounter bytes;
  };

  static constexpr size_t kNumShards = 64;

  Shard& ShardFor(MicroblogId id);
  const Shard& ShardFor(MicroblogId id) const;

  /// Logical accounting bytes of the record encoded in `rec`.
  static size_t RecordBytesOf(const Record& rec);

  MemoryTracker* tracker_;
  std::vector<Shard> shards_;
};

}  // namespace kflush

#endif  // KFLUSH_STORAGE_RAW_STORE_H_
