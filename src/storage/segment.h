// Checksummed, self-describing segment files: the durable disk tier
// (docs/INTERNALS.md, "Durability").
//
// Each flush batch seals exactly one segment file `seg-NNNNNN.kseg`:
//
//   header : "KFLUSHSG" magic (8 bytes) | u64 sequence number
//   frames : checksummed frames (storage/durability.h), payload =
//              0x01 | <EncodeMicroblog record>   (record frame)
//              0x02 | u64 record_count           (footer frame, last)
//
// The footer seals the segment; a segment without one is torn (the
// process died mid-flush). Recovery salvages a torn segment frame by
// frame — every record frame that checksums is kept, the tail is
// truncated, and the segment is resealed with a fresh footer — so a
// crash costs at most the unsynced suffix of one batch, never the file.
//
// The record catalog (id -> segment/offset) and the term posting index
// live in memory and are rebuilt on OpenOrRecover by scanning segments;
// records the crash caught outside any segment are re-covered by the WAL
// (storage/wal.h).

#ifndef KFLUSH_STORAGE_SEGMENT_H_
#define KFLUSH_STORAGE_SEGMENT_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/attribute.h"
#include "storage/disk_store.h"
#include "storage/durability.h"

namespace kflush {

/// One segment file per flush batch, under one directory per store (per
/// shard in the sharded deployment). Thread-safe.
class SegmentDiskStore : public DiskStore {
 public:
  /// Opens the segment directory (created if absent), rebuilding the
  /// record catalog from every segment and salvaging a torn final
  /// segment. When `extractor` and `score_fn` are supplied the term
  /// index is rebuilt too (both are deterministic, so recovered postings
  /// rank exactly as the pre-crash ones did).
  static Result<std::unique_ptr<SegmentDiskStore>> OpenOrRecover(
      const std::string& dir, DurabilityLevel level,
      const AttributeExtractor* extractor = nullptr,
      const std::function<double(const Microblog&)>& score_fn = nullptr);

  ~SegmentDiskStore() override;

  SegmentDiskStore(const SegmentDiskStore&) = delete;
  SegmentDiskStore& operator=(const SegmentDiskStore&) = delete;

  Status AddPostings(TermId term, const std::vector<Posting>& run) override;
  /// Seals one new segment holding `batch` (each record re-encoded into a
  /// serde frame), fsynced per the durability level before the catalog is
  /// updated (so an acked write is durable).
  Status WriteBatch(const RecordBatch& batch) override;
  Status QueryTerm(TermId term, size_t limit,
                   std::vector<Posting>* out) override;
  Status GetRecord(MicroblogId id, Microblog* out) override;

  bool Contains(MicroblogId id) override;
  bool MaxTermScore(TermId term, double* score) override;

  DiskStats stats() const override;
  size_t NumRecords() const override;
  size_t NumPostings() const override;

  const std::string& dir() const { return dir_; }
  size_t NumSegments() const;
  /// Highest record id in any segment (0 when empty); restart id
  /// allocation resumes past max(this, WAL max).
  MicroblogId MaxRecordId() const;

 private:
  SegmentDiskStore(std::string dir, DurabilityLevel level);

  struct Segment {
    std::string path;
    std::FILE* file = nullptr;  // owned read handle
    uint64_t seq = 0;
  };
  struct RecordLocation {
    uint32_t segment = 0;  // index into segments_
    uint64_t offset = 0;   // of the encoded record within the file
    uint32_t length = 0;
  };

  /// Loads one existing segment file: salvages + reseals if torn,
  /// registers its records, opens the read handle. Caller holds no lock
  /// (recovery only).
  Status LoadSegment(const std::string& path, uint64_t seq,
                     const AttributeExtractor* extractor,
                     const std::function<double(const Microblog&)>& score_fn);

  const std::string dir_;
  const DurabilityLevel level_;

  mutable std::mutex mu_;
  std::vector<Segment> segments_;
  uint64_t next_seq_ = 1;
  MicroblogId max_record_id_ = 0;
  std::unordered_map<MicroblogId, RecordLocation> locations_;
  std::unordered_map<TermId, std::vector<Posting>> postings_;
  size_t num_postings_ = 0;
  DiskStats stats_;
};

}  // namespace kflush

#endif  // KFLUSH_STORAGE_SEGMENT_H_
