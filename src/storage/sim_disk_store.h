// Accounting disk: keeps flushed data in ordinary memory (it *represents*
// disk contents, so it is not charged to the memory budget) and counts
// every access. Experiments use it because the evaluated metric is the
// memory hit ratio — what matters is that misses are detected and can be
// answered correctly, not that bytes physically hit a platter.

#ifndef KFLUSH_STORAGE_SIM_DISK_STORE_H_
#define KFLUSH_STORAGE_SIM_DISK_STORE_H_

#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/disk_store.h"

namespace kflush {

/// In-memory stand-in for the disk tier. Thread-safe.
class SimDiskStore : public DiskStore {
 public:
  SimDiskStore() = default;

  Status AddPostings(TermId term, const std::vector<Posting>& run) override;
  /// Keeps a copy of the encoded records; GetRecord decodes from it.
  Status WriteBatch(const RecordBatch& batch) override;
  Status QueryTerm(TermId term, size_t limit,
                   std::vector<Posting>* out) override;
  Status GetRecord(MicroblogId id, Microblog* out) override;

  bool Contains(MicroblogId id) override;
  bool MaxTermScore(TermId term, double* score) override;

  DiskStats stats() const override;
  size_t NumRecords() const override;
  size_t NumPostings() const override;

 private:
  mutable std::mutex mu_;
  /// term -> postings kept score-ascending (appended in arrival order,
  /// read back-to-front; see DiskPostingsInsertAscending).
  std::unordered_map<TermId, std::vector<Posting>> postings_;
  /// Every record written, still encoded; a record's latest write wins.
  RecordBatch stored_;
  std::unordered_map<MicroblogId, const uint8_t*> locations_;
  size_t num_postings_ = 0;
  DiskStats stats_;
};

}  // namespace kflush

#endif  // KFLUSH_STORAGE_SIM_DISK_STORE_H_
