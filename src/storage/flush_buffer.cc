#include "storage/flush_buffer.h"

#include <algorithm>
#include <utility>

#include "storage/wal.h"

namespace kflush {

FlushBuffer::FlushBuffer(MemoryTracker* tracker) : tracker_(tracker) {}

FlushBuffer::~FlushBuffer() {
  if (tracker_ != nullptr && bytes_ > 0) {
    tracker_->Release(MemoryComponent::kFlushBuffer, bytes_);
  }
}

void FlushBuffer::ChargeLocked(size_t bytes) {
  bytes_ += bytes;
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  if (tracker_ != nullptr && bytes > 0) {
    tracker_->Charge(MemoryComponent::kFlushBuffer, bytes);
  }
}

bool FlushBuffer::Get(MicroblogId id, Microblog* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RecordBatch* batch : {&writing_, &pending_}) {
    if (const uint8_t* blob = batch->Find(id)) {
      DecodeRecord(blob, out);
      return true;
    }
  }
  return false;
}

Status FlushBuffer::DrainTo(DiskStore* disk) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return Status::OK();
    writing_ = std::exchange(pending_, RecordBatch());
  }
  Status status = wal_ != nullptr ? wal_->Commit() : Status::OK();
  if (status.ok()) status = disk->WriteBatch(writing_);
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok()) {
    // Re-queue ahead of anything appended while the write was in flight
    // so the retry preserves the original flush order.
    writing_.Append(pending_);
    pending_ = std::exchange(writing_, RecordBatch());
    ++requeues_;
    return status;
  }
  // Only a durable batch releases its memory accounting.
  bytes_ -= writing_.footprint_bytes();
  if (tracker_ != nullptr) {
    tracker_->Release(MemoryComponent::kFlushBuffer,
                      writing_.footprint_bytes());
  }
  writing_ = RecordBatch();
  return status;
}

size_t FlushBuffer::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size() + writing_.size();
}

size_t FlushBuffer::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t FlushBuffer::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.capacity_bytes() + writing_.capacity_bytes();
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
