#include "storage/flush_buffer.h"

#include <algorithm>

#include "storage/wal.h"

namespace kflush {

FlushBuffer::FlushBuffer(MemoryTracker* tracker) : tracker_(tracker) {}

FlushBuffer::~FlushBuffer() {
  if (tracker_ != nullptr && bytes_ > 0) {
    tracker_->Release(MemoryComponent::kFlushBuffer, bytes_);
  }
}

void FlushBuffer::Add(Microblog blog) {
  const size_t record_bytes = blog.FootprintBytes();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(blog));
  bytes_ += record_bytes;
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  if (tracker_ != nullptr) {
    tracker_->Charge(MemoryComponent::kFlushBuffer, record_bytes);
  }
}

Status FlushBuffer::DrainTo(DiskStore* disk) {
  std::vector<Microblog> batch;
  size_t drained_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (records_.empty()) return Status::OK();
    batch.swap(records_);
    drained_bytes = bytes_;
    bytes_ = 0;
  }
  // The batch is copied, not moved: until WriteBatch acknowledges, these
  // records exist nowhere else (their memory-index postings are already
  // dropped), so a failed write must put them back rather than lose them.
  Status status = wal_ != nullptr ? wal_->Commit() : Status::OK();
  if (status.ok()) status = disk->WriteBatch(batch);
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-queue ahead of anything added while the write was in flight so
    // the retry preserves the original flush order.
    records_.insert(records_.begin(),
                    std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
    bytes_ += drained_bytes;
    peak_bytes_ = std::max(peak_bytes_, bytes_);
    ++requeues_;
    return status;
  }
  // Only a durable batch releases its memory accounting.
  if (tracker_ != nullptr) {
    tracker_->Release(MemoryComponent::kFlushBuffer, drained_bytes);
  }
  return status;
}

size_t FlushBuffer::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

size_t FlushBuffer::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t FlushBuffer::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_bytes_;
}

size_t FlushBuffer::requeues() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requeues_;
}

}  // namespace kflush
