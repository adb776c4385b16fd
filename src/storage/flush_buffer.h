// Temporary main-memory buffer collecting flush victims before they are
// written to disk in one batch (paper §III-A: "All flushed data are
// collected in a temporary main-memory buffer before writing them to disk.
// This is mainly to reduce the number of I/O operations."). Its transient
// footprint is charged to MemoryComponent::kFlushBuffer, which is how the
// ~2 GB temporary-buffer overhead of Figure 10(a) is measured.

#ifndef KFLUSH_STORAGE_FLUSH_BUFFER_H_
#define KFLUSH_STORAGE_FLUSH_BUFFER_H_

#include <mutex>
#include <vector>

#include "model/microblog.h"
#include "storage/disk_store.h"
#include "util/memory_tracker.h"

namespace kflush {

class WriteAheadLog;

/// Thread-safe victim accumulator. The flushing thread Adds records as
/// their pcount reaches zero, then Drains once per flush cycle.
class FlushBuffer {
 public:
  explicit FlushBuffer(MemoryTracker* tracker = nullptr);
  ~FlushBuffer();

  FlushBuffer(const FlushBuffer&) = delete;
  FlushBuffer& operator=(const FlushBuffer&) = delete;

  /// Takes ownership of a victim record.
  void Add(Microblog blog);

  /// Writes all buffered records to `disk` as one batch and empties the
  /// buffer. No-op (OK) when empty. On a failed write the batch is
  /// re-queued (ahead of records added meanwhile) and its memory charge
  /// retained — a flush failure must never silently drop records, since
  /// their memory-index postings are already gone.
  Status DrainTo(DiskStore* disk);

  /// Write-ahead rule of the durable store: every drain commits `wal`
  /// before writing to disk (a failed commit fails the drain like a
  /// failed write), so a record reaches a segment only once its WAL
  /// entry, and every earlier one, is durable. Set before the first drain.
  void set_wal(WriteAheadLog* wal) { wal_ = wal; }

  size_t count() const;
  size_t bytes() const;

  /// Peak bytes ever held (reported as flushing overhead).
  size_t peak_bytes() const;

  /// Failed drains whose batch was put back for retry.
  size_t requeues() const;

 private:
  MemoryTracker* tracker_;
  WriteAheadLog* wal_ = nullptr;
  mutable std::mutex mu_;
  std::vector<Microblog> records_;
  size_t bytes_ = 0;
  size_t peak_bytes_ = 0;
  size_t requeues_ = 0;
};

}  // namespace kflush

#endif  // KFLUSH_STORAGE_FLUSH_BUFFER_H_
