#include "storage/sim_disk_store.h"

#include <algorithm>

#include "core/trace.h"

namespace kflush {

Status SimDiskStore::AddPostings(TermId term,
                                 const std::vector<Posting>& run) {
  std::lock_guard<std::mutex> lock(mu_);
  // Duplicates are dropped (a record may be re-registered if it was
  // trimmed from an entry and later the whole record is flushed).
  const size_t added = DiskPostingsInsertAscending(&postings_[term], run);
  num_postings_ += added;
  stats_.postings_added += added;
  return Status::OK();
}

Status SimDiskStore::WriteBatch(const RecordBatch& batch) {
  TraceSpan span("disk", "write_batch",
                 {TraceArg::Uint("records", batch.size())});
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.write_batches;
  batch.ForEach([this](const uint8_t* blob) {
    const uint8_t* copy = stored_.Append(blob);
    locations_[EncodedRecordId(copy)] = copy;
  });
  stats_.record_bytes_written += batch.footprint_bytes();
  stats_.records_written += batch.size();
  return Status::OK();
}

Status SimDiskStore::QueryTerm(TermId term, size_t limit,
                               std::vector<Posting>* out) {
  TraceSpan span("disk", "query_term", {TraceArg::Uint("term", term)});
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.term_queries;
  auto it = postings_.find(term);
  if (it == postings_.end()) return Status::OK();
  const size_t n = DiskPostingsTopN(it->second, limit, out);
  stats_.posting_bytes_read += n * sizeof(Posting);
  return Status::OK();
}

Status SimDiskStore::GetRecord(MicroblogId id, Microblog* out) {
  TraceSpan span("disk", "get_record", {TraceArg::Uint("id", id)});
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.records_read;
  auto it = locations_.find(id);
  if (it == locations_.end()) {
    return Status::NotFound("record not on disk");
  }
  DecodeRecord(it->second, out);
  stats_.record_bytes_read += out->FootprintBytes();
  return Status::OK();
}

bool SimDiskStore::Contains(MicroblogId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return locations_.count(id) != 0;
}

bool SimDiskStore::MaxTermScore(TermId term, double* score) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = postings_.find(term);
  if (it == postings_.end() || it->second.empty()) return false;
  *score = it->second.back().score;  // ascending storage: back is max
  return true;
}

DiskStats SimDiskStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SimDiskStore::NumRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  return locations_.size();
}

size_t SimDiskStore::NumPostings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_postings_;
}

}  // namespace kflush
