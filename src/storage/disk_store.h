// Disk-side storage. When the flushing policy drops a run of postings from
// a memory index entry, the associations are registered with the disk
// store before the index lock that removed them is released (AddPostings,
// which therefore must do no I/O and take no other lock); the record
// payload itself is written, still encoded, once its last in-memory
// reference disappears (WriteBatch, fed by the FlushBuffer, which holds it
// readable until then). Memory ∪
// flush buffer ∪ disk therefore always covers the complete answer of any
// query — the property the paper's hit-ratio metric presumes ("flushed
// data is moved to disk, and hence the answers are always accurate", §VI).
//
// Two implementations ship: SimDiskStore (an accounting disk for fast
// experiments) and SegmentDiskStore (checksummed segment files, the
// durable tier; storage/segment.h).

#ifndef KFLUSH_STORAGE_DISK_STORE_H_
#define KFLUSH_STORAGE_DISK_STORE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "index/posting_list.h"
#include "model/microblog.h"
#include "storage/record_batch.h"
#include "util/status.h"

namespace kflush {

/// Shared maintenance of a disk-side posting list, kept in ascending
/// RanksBefore order (the reverse of memory's) and read back-to-front at
/// query time, so the descending read yields (score desc, id desc) — the
/// order of the in-memory lists and of every answer, and a top-k
/// truncation at either tier picks identical winners. Registers every
/// posting of `run` (any order), skipping duplicate (term, id)
/// registrations, and returns the count added. Runs come sorted one way
/// or the other (a trimmed tail worst first, an evicted entry best first)
/// and outrank the term's older disk postings, so registering them worst
/// first makes the common insert an O(1) push_back.
inline size_t DiskPostingsInsertAscending(std::vector<Posting>* list,
                                          const std::vector<Posting>& run) {
  size_t added = 0;
  auto insert = [&](const Posting& posting) {
    if (list->empty() || RanksBefore(posting, list->back())) {
      list->push_back(posting);
      ++added;
      return;
    }
    auto slot = std::lower_bound(
        list->begin(), list->end(), posting,
        [](const Posting& a, const Posting& b) { return RanksBefore(b, a); });
    if (slot != list->end() && slot->id == posting.id) return;
    list->insert(slot, posting);
    ++added;
  };
  if (run.size() > 1 && RanksBefore(run.front(), run.back())) {
    for (auto it = run.rbegin(); it != run.rend(); ++it) insert(*it);
  } else {
    for (const Posting& posting : run) insert(posting);
  }
  return added;
}

/// Appends the `limit` best-ranked postings of an ascending list to `out`
/// (descending; equal scores by descending id, matching Materialize).
inline size_t DiskPostingsTopN(const std::vector<Posting>& list, size_t limit,
                               std::vector<Posting>* out) {
  const size_t n = std::min(limit, list.size());
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) out->push_back(list[list.size() - 1 - i]);
  return n;
}

/// Access counters; the experiments read hit/miss economics off these.
struct DiskStats {
  uint64_t postings_added = 0;
  uint64_t records_written = 0;
  uint64_t record_bytes_written = 0;
  uint64_t write_batches = 0;
  uint64_t term_queries = 0;
  uint64_t records_read = 0;
  /// Read-side byte traffic: record payload bytes returned by GetRecord
  /// and posting bytes returned by QueryTerm (disk-fallback query cost).
  uint64_t record_bytes_read = 0;
  uint64_t posting_bytes_read = 0;
  /// Records rebuilt into the catalog by restart recovery. Deliberately
  /// separate from records_written: recovery must not inflate the
  /// write-path counters the experiments measure.
  uint64_t records_recovered = 0;
  /// Bytes of torn tail (partial frame / failed checksum) dropped by
  /// recovery instead of surfacing Corruption.
  uint64_t torn_bytes_truncated = 0;
  /// fdatasync calls issued by the write path (0 at durability "none").
  uint64_t fsyncs = 0;

  std::string ToString() const;
};

/// Abstract disk storage + disk-side term index.
class DiskStore {
 public:
  virtual ~DiskStore() = default;

  /// Registers that each posting of `run` (a record id with its ranking
  /// score) now lives under `term` on disk: one call per run. Idempotent
  /// per (term, id). Called under an index lock: no I/O, no other lock.
  virtual Status AddPostings(TermId term, const std::vector<Posting>& run) = 0;

  /// Persists encoded record payloads (called by the flush buffer drain,
  /// which keeps `batch` until this returns).
  virtual Status WriteBatch(const RecordBatch& batch) = 0;

  /// Appends up to `limit` best-ranked disk postings for `term` to `out`.
  virtual Status QueryTerm(TermId term, size_t limit,
                           std::vector<Posting>* out) = 0;

  /// Fetches a record payload written earlier. NotFound if the payload has
  /// not reached disk (e.g. the record is still memory-resident).
  virtual Status GetRecord(MicroblogId id, Microblog* out) = 0;

  /// True when `id`'s payload is disk-resident (GetRecord would succeed).
  /// Default implementation probes GetRecord; implementations override
  /// with a catalog lookup.
  virtual bool Contains(MicroblogId id) {
    Microblog scratch;
    return GetRecord(id, &scratch).ok();
  }

  /// Highest disk-posting score registered under `term`, or false when the
  /// term has no disk postings. Recovery uses this to re-partition replayed
  /// records so memory postings stay a score-prefix of memory ∪ disk.
  /// Default implementation asks QueryTerm for the top posting.
  virtual bool MaxTermScore(TermId term, double* score) {
    std::vector<Posting> top;
    if (!QueryTerm(term, 1, &top).ok() || top.empty()) return false;
    *score = top.front().score;
    return true;
  }

  virtual DiskStats stats() const = 0;

  virtual size_t NumRecords() const = 0;
  virtual size_t NumPostings() const = 0;
};

}  // namespace kflush

#endif  // KFLUSH_STORAGE_DISK_STORE_H_
