// Temporary main-memory buffer collecting flush victims before they are
// written to disk in one batch (paper §III-A: "All flushed data are
// collected in a temporary main-memory buffer before writing them to disk.
// This is mainly to reduce the number of I/O operations."). Victims arrive
// and leave as encoded records (storage/record_batch.h), never as
// Microblogs. Their transient footprint is charged to
// MemoryComponent::kFlushBuffer, which is how the ~2 GB temporary-buffer
// overhead of Figure 10(a) is measured.
//
// A buffered record exists nowhere else: its raw-store copy is gone and
// the disk has not acknowledged it. So the buffer stays readable (Get)
// until the disk acknowledges the write, and a query looks here for a
// record that neither the raw store nor the disk holds.

#ifndef KFLUSH_STORAGE_FLUSH_BUFFER_H_
#define KFLUSH_STORAGE_FLUSH_BUFFER_H_

#include <mutex>

#include "model/microblog.h"
#include "storage/disk_store.h"
#include "storage/record_batch.h"
#include "util/memory_tracker.h"

namespace kflush {

class WriteAheadLog;

/// Thread-safe victim accumulator. The flushing thread appends records as
/// their pcount reaches zero, then drains once per flush cycle; one drain
/// runs at a time.
class FlushBuffer {
 public:
  explicit FlushBuffer(MemoryTracker* tracker = nullptr);
  ~FlushBuffer();

  FlushBuffer(const FlushBuffer&) = delete;
  FlushBuffer& operator=(const FlushBuffer&) = delete;

  /// Runs `fill(RecordBatch*)` on the pending batch under the buffer lock
  /// and charges the records it appended. A caller moving records in from
  /// the raw store releases them inside `fill`, so a reader that misses a
  /// record in the raw store and then takes this lock finds it here, or
  /// on the disk once drained (lock order: buffer -> raw-store shard,
  /// never the reverse).
  template <typename Fill>
  void Append(Fill&& fill) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t before = pending_.footprint_bytes();
    fill(&pending_);
    ChargeLocked(pending_.footprint_bytes() - before);
  }

  /// Decodes buffered record `id` into `out`, whether pending or being
  /// written. False when absent.
  bool Get(MicroblogId id, Microblog* out) const;

  /// Writes all buffered records to `disk` as one batch, by reference,
  /// and empties the buffer. No-op (OK) when empty. The batch stays
  /// readable and charged until the write is acknowledged; on a failed
  /// write it is re-queued ahead of records appended meanwhile, with its
  /// charge — a flush failure must never silently drop records, since
  /// their memory-index postings are already gone. An acknowledged batch
  /// gives its memory back.
  Status DrainTo(DiskStore* disk);

  /// Write-ahead rule of the durable store: every drain commits `wal`
  /// before writing to disk (a failed commit fails the drain like a
  /// failed write), so a record reaches a segment only once its WAL
  /// entry, and every earlier one, is durable. Set before the first drain.
  void set_wal(WriteAheadLog* wal) { wal_ = wal; }

  size_t count() const;
  size_t bytes() const;
  /// Heap bytes the buffered batches hold (their buffers' capacity).
  size_t capacity_bytes() const;

  /// Peak bytes ever held (reported as flushing overhead).
  size_t peak_bytes() const;

  /// Failed drains whose batch was put back for retry.
  size_t requeues() const;

 private:
  void ChargeLocked(size_t bytes);

  MemoryTracker* tracker_;
  WriteAheadLog* wal_ = nullptr;
  mutable std::mutex mu_;
  /// Records appended since the last drain began.
  RecordBatch pending_;
  /// The batch a drain is writing, until the disk acknowledges it. Only
  /// DrainTo replaces it, under mu_; the write reads it without the lock.
  RecordBatch writing_;
  size_t bytes_ = 0;
  size_t peak_bytes_ = 0;
  size_t requeues_ = 0;
};

}  // namespace kflush

#endif  // KFLUSH_STORAGE_FLUSH_BUFFER_H_
