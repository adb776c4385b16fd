// The main-memory attribute index (paper Figure 3): a hash inverted table
// mapping TermIds (keywords / spatial tiles / user ids) to posting lists,
// with per-entry last-arrival and last-query timestamps — the only per-key
// metadata the kFlushing phases need (paper §III-B/III-C: "a single
// timestamp with each keyword rather than a timestamp per each data item").
//
// The table is sharded; each shard holds its own hash map behind a mutex so
// the digestion thread, query threads, and the flushing thread contend only
// on colliding shards. This realizes the paper's "entries are locked one at
// a time so that atomicity overhead is negligible". Each shard also owns a
// SlabPool from which its posting lists draw block storage (see
// posting_block.h), and its statistics counters are shard-local relaxed
// counters aggregated on read — the digestion hot path touches no shared
// atomic.

#ifndef KFLUSH_INDEX_INVERTED_INDEX_H_
#define KFLUSH_INDEX_INVERTED_INDEX_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "index/posting_list.h"
#include "util/clock.h"
#include "util/memory_tracker.h"
#include "util/relaxed_counter.h"

namespace kflush {

/// Result of an index insert, consumed by flushing policies.
struct IndexInsertResult {
  /// Entry size after the insert.
  size_t size_after = 0;
  /// Position the posting landed at (0 = best ranked).
  size_t insert_pos = 0;
};

/// Metadata snapshot of one entry, used by the Phase 2/3 selection scans.
struct EntryMeta {
  TermId term = kInvalidTermId;
  size_t count = 0;
  /// Index-side bytes this entry accounts for (postings + entry overhead).
  size_t bytes = 0;
  Timestamp last_arrival = 0;
  Timestamp last_query = 0;
};

/// Column-oriented snapshot of every entry's scan metadata, one row per
/// entry. The kFlushing phase scans consume this instead of a per-entry
/// callback: the flat count/timestamp arrays are SIMD-scannable
/// (util/simd.h) and the vectors' capacity survives across cycles.
struct IndexSnapshot {
  std::vector<TermId> terms;
  std::vector<uint32_t> counts;
  std::vector<Timestamp> last_arrival;
  std::vector<Timestamp> last_query;

  size_t size() const { return terms.size(); }
  void Clear() {
    terms.clear();
    counts.clear();
    last_arrival.clear();
    last_query.clear();
  }
};

/// Runs after a removal that took postings out of an entry, before the
/// entry's shard lock is released, so no reader sees the removed postings
/// gone until it returns: the flush path hands them to the disk tier
/// here. Must not reenter the index.
using HandoffFn = std::function<void()>;

/// Sharded hash inverted index. Thread-safe.
class InvertedIndex {
 public:
  /// Index-side fixed cost per entry (hash node, timestamps, list header),
  /// charged to MemoryComponent::kIndex alongside the postings.
  static constexpr size_t kBytesPerEntry = 96;

  /// `tracker` may be null (unit tests); when set, index memory is charged
  /// to MemoryComponent::kIndex.
  explicit InvertedIndex(MemoryTracker* tracker = nullptr);
  ~InvertedIndex();

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Inserts `id` with `score` under `term`, stamping the entry's
  /// last-arrival time with `now`. `k` sizes the entry's charged top-k
  /// prefix (pass 0 to disable charging); `on_charge` / `on_uncharge`
  /// report every charge transition (see PostingList) while the entry's
  /// shard lock is still held, so callers can update bookkeeping (e.g.
  /// per-record top-k refcounts) atomically with the structural change — a
  /// concurrent eviction of the same entry then observes either both or
  /// neither. The callbacks must not reenter the index (they may take
  /// raw-store locks: index -> raw is the documented lock order).
  ///
  /// This template takes the callbacks by reference so charge-free callers
  /// (k == 0 with NoChargeFn) compile the bookkeeping away; the
  /// std::function overload below serves policy code.
  template <typename ChargeFn, typename UnchargeFn>
  IndexInsertResult InsertWith(TermId term, MicroblogId id, double score,
                               Timestamp now, size_t k,
                               const ChargeFn& on_charge,
                               const UnchargeFn& on_uncharge) {
    Shard& shard = ShardFor(term);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.entries.try_emplace(term, &shard.pool);
    Entry& entry = it->second;
    size_t charged = PostingList::kBytesPerPosting;
    if (inserted) {
      shard.num_entries.Add(1);
      charged += kBytesPerEntry;
    }
    entry.last_arrival = now;
    const PostingInsertResult pres =
        entry.postings.InsertWith(id, score, k, on_charge, on_uncharge);
    shard.num_postings.Add(1);
    shard.bytes.Add(charged);
    if (tracker_ != nullptr) {
      tracker_->Charge(MemoryComponent::kIndex, charged);
    }
    return IndexInsertResult{pres.size_after, pres.insert_pos};
  }

  /// Charge-free insert (FIFO segments, non-MK policies): the whole top-k
  /// charge machinery compiles to nothing.
  IndexInsertResult Insert(TermId term, MicroblogId id, double score,
                           Timestamp now) {
    return InsertWith(term, id, score, now, /*k=*/0, NoChargeFn{},
                      NoChargeFn{});
  }

  /// std::function overload; empty callbacks are allowed and skipped.
  IndexInsertResult Insert(TermId term, MicroblogId id, double score,
                           Timestamp now, size_t k,
                           const TopKChargeFn& on_charge = {},
                           const TopKChargeFn& on_uncharge = {});

  /// Appends up to `limit` best-ranked postings for `term` to `out`, in
  /// (score desc, id desc) order, and stamps the entry's last-query time
  /// with `now`. Returns the count appended (0 if the term has no entry).
  size_t Query(TermId term, size_t limit, Timestamp now,
               std::vector<Posting>* out);

  /// Like Query but does not touch last-query time (policy internals, the
  /// segmented index's merge, tests). Safe to call concurrently with
  /// everything else.
  size_t Peek(TermId term, size_t limit, std::vector<Posting>* out) const;

  /// Number of postings under `term` (0 if absent).
  size_t EntrySize(TermId term) const;

  /// Metadata snapshot for `term`; returns false if absent.
  bool GetEntryMeta(TermId term, EntryMeta* meta) const;

  /// Trims postings of `term` beyond position k for which `should_trim`
  /// returns true (all of them if empty). Trimmed postings are appended to
  /// `out`; charge transitions are reported via the callbacks (see
  /// PostingList::TrimBeyondK). Removes the entry entirely if it becomes
  /// empty. `handoff` runs if anything was trimmed. Returns count trimmed.
  size_t TrimBeyondK(TermId term, size_t k,
                     const std::function<bool(MicroblogId)>& should_trim,
                     std::vector<Posting>* out,
                     const TopKChargeFn& on_charge = {},
                     const TopKChargeFn& on_uncharge = {},
                     const HandoffFn& handoff = {});

  /// Removes from `term`'s entry every posting for which `should_remove`
  /// returns true (all if empty); each removal is reported via `on_removed`
  /// with whether it held a top-k charge, and survivors' charge
  /// transitions via `on_charge` / `on_uncharge` (see
  /// PostingList::RemoveIf). All callbacks run under the shard lock and
  /// must not reenter the index. The entry is deleted when it becomes
  /// empty. `handoff` runs if anything was removed. Returns count removed.
  size_t RemoveMatching(
      TermId term, size_t k,
      const std::function<bool(MicroblogId)>& should_remove,
      const std::function<void(const Posting&, bool /*was_charged*/)>&
          on_removed,
      const TopKChargeFn& on_charge = {},
      const TopKChargeFn& on_uncharge = {}, const HandoffFn& handoff = {});

  /// Removes a single id from `term`'s entry (the LRU eviction path).
  /// Returns true if found; sets `*removed` and `*was_charged` when
  /// non-null (the caller owns the removed posting's uncharge), then runs
  /// `handoff`.
  bool RemoveId(TermId term, MicroblogId id, size_t k, Posting* removed,
                bool* was_charged, const TopKChargeFn& on_charge = {},
                const TopKChargeFn& on_uncharge = {},
                const HandoffFn& handoff = {});

  /// Re-aligns every entry's charged prefix to min(k, entry size),
  /// reporting transitions through the callbacks — one shard at a time
  /// under its lock. Used after k changes (paper §IV-C) so top-k refcounts
  /// converge to the new k in one pass.
  void RebalanceAll(size_t k, const TopKChargeFn& on_charge,
                    const TopKChargeFn& on_uncharge);

  /// True if `term`'s entry currently references `id`.
  bool ContainsId(TermId term, MicroblogId id) const;

  /// Calls `fn` for every entry's metadata. Shards are visited one at a
  /// time under their lock; the callback must not reenter the index.
  void ForEachEntry(const std::function<void(const EntryMeta&)>& fn) const;

  /// Fills `snap` with one row per entry (Clear()ed first; capacity is
  /// reused). Shards are visited one at a time under their lock, so the
  /// snapshot is per-shard-consistent, like ForEachEntry.
  void Snapshot(IndexSnapshot* snap) const;

  size_t NumEntries() const;

  /// Number of entries holding at least `k` postings (the paper's
  /// "k-filled keywords" metric, Figures 7/11/12).
  size_t NumEntriesWithAtLeast(size_t k) const;

  size_t TotalPostings() const;

  /// Index-side bytes currently charged (entries + postings).
  size_t MemoryBytes() const;

  /// Bytes the per-shard posting pools hold from the OS (physical slab
  /// footprint backing MemoryBytes' logical accounting).
  size_t PoolFootprintBytes() const;

  /// Removes everything (releases all charged bytes).
  void Clear();

 private:
  struct Entry {
    explicit Entry(SlabPool* pool) : postings(pool) {}
    PostingList postings;
    Timestamp last_arrival = 0;
    Timestamp last_query = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    // Declared before `entries` so it outlives them on destruction:
    // posting blocks never outlive their pool.
    SlabPool pool;
    std::unordered_map<TermId, Entry> entries;
    // Written only under `mu`, read lock-free by the aggregating getters.
    ShardCounter bytes;
    ShardCounter num_entries;
    ShardCounter num_postings;
  };

  static constexpr size_t kNumShards = 64;

  Shard& ShardFor(TermId term);
  const Shard& ShardFor(TermId term) const;

  MemoryTracker* tracker_;
  std::vector<Shard> shards_;
};

}  // namespace kflush

#endif  // KFLUSH_INDEX_INVERTED_INDEX_H_
