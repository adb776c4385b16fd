#include "core/sharded_store.h"

#include "core/trace.h"
#include "util/logging.h"

namespace kflush {

ShardedMicroblogStore::ShardedMicroblogStore(ShardedStoreOptions options)
    : options_(options), routing_(options.store, options.num_shards) {
  const size_t n = routing_.router().num_shards();
  layout_status_ = OpenShardLayout(&options_.store, n);
  shards_.reserve(n);
  std::vector<MicroblogStore*> stores;
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<MicroblogStore>(
        ShardStoreOptions(options_.store, n, i)));
    routing_.ResumePast(*shards_.back());
    stores.push_back(shards_.back().get());
  }
  engine_ = std::make_unique<QueryEngine>(std::move(stores));
}

Status ShardedMicroblogStore::DurabilityStatus() const {
  if (!layout_status_.ok()) return layout_status_;
  for (const auto& shard : shards_) {
    const Status& s = shard->durability_status();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedMicroblogStore::CommitDurableAll() {
  for (auto& shard : shards_) {
    KFLUSH_RETURN_IF_ERROR(shard->CommitDurable());
  }
  return Status::OK();
}

ShardedMicroblogStore::~ShardedMicroblogStore() = default;

Status ShardedMicroblogStore::Insert(Microblog blog) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // Per-thread scratch: the routing buffers never escape this frame.
  static thread_local RoutedTerms routed;
  if (!routing_.Route(&blog, &routed)) {
    skipped_no_terms_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  const std::vector<size_t>& owners = routed.owners;
  routed_copies_.fetch_add(owners.size(), std::memory_order_relaxed);
  for (size_t i = 0; i + 1 < owners.size(); ++i) {
    KFLUSH_RETURN_IF_ERROR(
        shards_[owners[i]]->InsertRouted(blog, routed.owned[owners[i]]));
  }
  const size_t last = owners.back();
  return shards_[last]->InsertRouted(std::move(blog), routed.owned[last]);
}

size_t ShardedMicroblogStore::FlushAllOnce() {
  size_t freed = 0;
  for (auto& shard : shards_) {
    if (shard->MemoryFull()) freed += shard->FlushOnce();
  }
  return freed;
}

void ShardedMicroblogStore::SetK(uint32_t k) {
  for (auto& shard : shards_) shard->SetK(k);
}

ShardedIngestStats ShardedMicroblogStore::sharded_ingest_stats() const {
  ShardedIngestStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.routed_copies = routed_copies_.load(std::memory_order_relaxed);
  stats.skipped_no_terms = skipped_no_terms_.load(std::memory_order_relaxed);
  return stats;
}

IngestStats ShardedMicroblogStore::AggregatedIngestStats() const {
  IngestStats total;
  for (const auto& shard : shards_) {
    const IngestStats s = shard->ingest_stats();
    total.inserted += s.inserted;
    total.skipped_no_terms += s.skipped_no_terms;
    total.flush_triggers += s.flush_triggers;
  }
  // Term-less arrivals are dropped by the router, not the shards.
  total.skipped_no_terms += skipped_no_terms_.load(std::memory_order_relaxed);
  return total;
}

PolicyStats ShardedMicroblogStore::AggregatedPolicyStats() const {
  PolicyStats total;
  for (const auto& shard : shards_) {
    MergePolicyStats(shard->policy()->stats(), &total);
  }
  return total;
}

DiskStats ShardedMicroblogStore::AggregatedDiskStats() const {
  DiskStats total;
  for (const auto& shard : shards_) {
    const DiskStats s = shard->disk()->stats();
    total.postings_added += s.postings_added;
    total.records_written += s.records_written;
    total.record_bytes_written += s.record_bytes_written;
    total.write_batches += s.write_batches;
    total.term_queries += s.term_queries;
    total.records_read += s.records_read;
    total.record_bytes_read += s.record_bytes_read;
    total.posting_bytes_read += s.posting_bytes_read;
    total.records_recovered += s.records_recovered;
    total.torn_bytes_truncated += s.torn_bytes_truncated;
    total.fsyncs += s.fsyncs;
  }
  return total;
}

MetricsSnapshot ShardedMicroblogStore::AggregatedMetrics(
    bool include_per_shard) const {
  std::vector<MetricsSnapshot> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    parts.push_back(shard->metrics_registry()->Snapshot());
  }
  return AggregateSnapshots(parts, include_per_shard);
}

size_t ShardedMicroblogStore::DataUsed() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->tracker().DataUsed();
  return total;
}

size_t ShardedMicroblogStore::NumTerms() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->policy()->NumTerms();
  return total;
}

size_t ShardedMicroblogStore::NumKFilledTerms() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->policy()->NumKFilledTerms();
  }
  return total;
}

size_t ShardedMicroblogStore::AuxMemoryBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->policy()->AuxMemoryBytes();
  return total;
}

size_t ShardedMicroblogStore::PeakFlushBufferBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->flush_buffer().peak_bytes();
  }
  return total;
}

void ShardedMicroblogStore::CollectEntrySizes(std::vector<size_t>* out) const {
  for (const auto& shard : shards_) shard->policy()->CollectEntrySizes(out);
}

}  // namespace kflush
