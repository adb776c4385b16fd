// Encoded microblog records. This module is the one home of the blob
// encoding the raw store keeps its records in, and of RecordBatch: a run
// of such blobs. An evicted record travels from the raw store through the
// flush buffer to the disk tier as the bytes it is stored as; nothing on
// that path builds a Microblog.
//
// Blob layout: a fixed header (id, timestamps, user, location, follower
// count, text and keyword lengths, location flag), then the keyword array,
// then the raw text bytes. Readers copy fields out with memcpy, so a blob
// may start at any byte offset.

#ifndef KFLUSH_STORAGE_RECORD_BATCH_H_
#define KFLUSH_STORAGE_RECORD_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "model/microblog.h"

namespace kflush {

/// Bytes of `blog`'s encoded blob.
size_t EncodedRecordBytes(const Microblog& blog);

/// Encodes `blog` into `dst`, which holds EncodedRecordBytes(blog) bytes.
void EncodeRecord(const Microblog& blog, uint8_t* dst);

/// Decodes the blob at `blob` into `out`, reusing its string and vector
/// capacity.
void DecodeRecord(const uint8_t* blob, Microblog* out);

/// Like DecodeRecord, but skips the text: `out->text` is left empty.
void DecodeRecordWithoutText(const uint8_t* blob, Microblog* out);

/// Fields read off an encoded record's header: its id, its length in
/// bytes, and Microblog::FootprintBytes() of the record it encodes.
MicroblogId EncodedRecordId(const uint8_t* blob);
size_t EncodedLength(const uint8_t* blob);
size_t EncodedFootprintBytes(const uint8_t* blob);

/// Encoded records in append order. Blobs are packed into fixed-size
/// slices, so a growing batch never reallocates or moves what it holds
/// (a blob's address is stable for the batch's lifetime) and never asks
/// the allocator for a large block. Movable, not copyable; not
/// thread-safe.
class RecordBatch {
 public:
  RecordBatch() = default;
  /// Encodes `blogs` in order. Implicit, so callers holding Microblogs
  /// (recovery, tests) pass them wherever a batch is expected.
  RecordBatch(const std::vector<Microblog>& blogs);  // NOLINT
  RecordBatch(std::initializer_list<Microblog> blogs);

  void Add(const Microblog& blog);
  /// Copies in a blob encoded by EncodeRecord; returns the copy.
  const uint8_t* Append(const uint8_t* blob);
  /// Copies in every record of `other`, after this batch's.
  void Append(const RecordBatch& other);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Sum of the records' footprints (Microblog::FootprintBytes()).
  size_t footprint_bytes() const { return footprint_bytes_; }
  /// Heap bytes the batch holds (its slices).
  size_t capacity_bytes() const;

  /// The blob of record `id`, or nullptr when absent (a linear walk).
  const uint8_t* Find(MicroblogId id) const;

  /// Calls fn(blob) for every record, in append order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slice& slice : slices_) {
      const uint8_t* end = slice.data.get() + slice.used;
      for (const uint8_t* p = slice.data.get(); p < end;
           p += EncodedLength(p)) {
        fn(p);
      }
    }
  }

 private:
  /// Sized below glibc's default mmap threshold, so slices come from the
  /// heap and a drained batch's slices serve the next one.
  static constexpr size_t kSliceBytes = 64 * 1024;

  struct Slice {
    std::unique_ptr<uint8_t[]> data;
    size_t used = 0;
    size_t capacity = 0;
  };

  /// Space for a `len`-byte blob at the end of the last slice, or of a
  /// new one (a blob never spans slices).
  uint8_t* Extend(size_t len);

  std::vector<Slice> slices_;
  size_t count_ = 0;
  size_t footprint_bytes_ = 0;
};

}  // namespace kflush

#endif  // KFLUSH_STORAGE_RECORD_BATCH_H_
