#include "core/sharded_store.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include "util/logging.h"

namespace kflush {
namespace {

/// Shard `shard`'s options under a deployment of `num_shards`: the total
/// memory budget split evenly (remainder bytes are dropped — the oracle
/// pins budgets divisible by the shard counts it compares), `shard_id`
/// set, and, when durable, its own WAL + segment directory
/// `<dir>/shard-<i>`, so flushes and group commits on different shards
/// share no files.
StoreOptions ShardStoreOptions(const StoreOptions& deployment,
                               size_t num_shards, size_t shard) {
  StoreOptions so = deployment;
  so.memory_budget_bytes = deployment.memory_budget_bytes / num_shards;
  so.shard_id = static_cast<int>(shard);
  if (so.durability.enabled) {
    so.durability.dir = deployment.durability.dir + "/shard-" +
                        std::to_string(shard);
  }
  return so;
}

/// A durable directory opens only at the shard count that wrote it:
/// ShardRouter placement depends on N, so a 2-shard directory reopened at
/// 4 shards would route recovered terms to shards that hold nothing.
/// Checks `deployment`'s durable directory before any shard store opens
/// it. A missing or empty directory passes, and so does one holding
/// exactly shard-0 … shard-(num_shards-1) and no top-level single-store
/// WAL. On failure durability is switched off in `*deployment`, so the
/// shards create nothing and run non-durably, and the returned status
/// names both shard counts.
Status OpenShardLayout(StoreOptions* deployment, size_t num_shards) {
  if (!deployment->durability.enabled) return Status::OK();
  namespace fs = std::filesystem;
  const std::string& dir = deployment->durability.dir;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || fs::is_empty(dir, ec)) {
    return Status::OK();
  }
  std::set<size_t> found;
  bool single_store_wal = false;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == "wal.log") single_store_wal = true;
    const std::string digits =
        name.rfind("shard-", 0) == 0 ? name.substr(6) : std::string();
    if (!digits.empty() && digits.size() <= 9 &&
        digits.find_first_not_of("0123456789") == std::string::npos &&
        entry.is_directory(ec)) {
      found.insert(std::stoul(digits));
    }
  }
  Status status = Status::OK();
  if (single_store_wal) {
    status = Status::InvalidArgument(
        "durable directory " + dir +
        " holds a single-store WAL (1 shard, unsharded layout); opened with " +
        std::to_string(num_shards) + " shard(s)");
  } else if (found.size() != num_shards ||
             *found.rbegin() != num_shards - 1) {
    status = Status::InvalidArgument(
        "durable directory " + dir + " holds " +
        std::to_string(found.size()) +
        " shard director" + (found.size() == 1 ? "y" : "ies") +
        "; opened with " + std::to_string(num_shards) +
        " shard(s) (reopen with the shard count that wrote it)");
  }
  if (!status.ok()) {
    KFLUSH_WARN("durable tier unavailable, running non-durable: "
                << status.ToString());
    deployment->durability.enabled = false;
  }
  return status;
}

}  // namespace

ShardedMicroblogStore::ShardedMicroblogStore(ShardedStoreOptions options)
    : options_(options),
      clock_(options.store.clock != nullptr ? options.store.clock
                                            : WallClock::Default()),
      extractor_(MakeAttribute(options.store.attribute)),
      router_(options.num_shards) {
  const size_t n = router_.num_shards();
  layout_status_ = OpenShardLayout(&options_.store, n);
  shards_.reserve(n);
  std::vector<MicroblogStore*> stores;
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<MicroblogStore>(
        ShardStoreOptions(options_.store, n, i)));
    // Stamp past every id a shard recovered, or restarted ingest would
    // reuse live ids. Nothing routes before the constructor returns.
    next_id_.store(std::max(next_id_.load(std::memory_order_relaxed),
                            shards_.back()->recovered_max_id() + 1),
                   std::memory_order_relaxed);
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
  if (!Route(&blog, &routed)) {
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

RoutedBatch ShardedMicroblogStore::RouteBatch(std::vector<Microblog> batch) {
  RoutedBatch routed;
  routed.per_shard.resize(shards_.size());
  // Per-record scratch, hoisted out of the loop: the routing hot path
  // must not allocate O(num_shards) vectors per record.
  RoutedTerms terms;
  for (Microblog& blog : batch) {
    ++routed.tally.submitted;
    if (!Route(&blog, &terms)) {
      ++routed.tally.skipped_no_terms;
      continue;
    }
    const std::vector<size_t>& owners = terms.owners;
    routed.tally.routed_copies += owners.size();
    for (size_t i = 0; i + 1 < owners.size(); ++i) {
      ShardBatch& dest = routed.per_shard[owners[i]];
      dest.blogs.push_back(blog);
      dest.routed_terms.push_back(std::move(terms.owned[owners[i]]));
    }
    const size_t last = owners.back();
    routed.per_shard[last].blogs.push_back(std::move(blog));
    routed.per_shard[last].routed_terms.push_back(
        std::move(terms.owned[last]));
  }
  for (size_t i = 0; i < routed.per_shard.size(); ++i) {
    if (!routed.per_shard[i].blogs.empty()) routed.owners.push_back(i);
  }
  return routed;
}

void ShardedMicroblogStore::CountAdmitted(const ShardedIngestStats& tally) {
  submitted_.fetch_add(tally.submitted, std::memory_order_relaxed);
  routed_copies_.fetch_add(tally.routed_copies, std::memory_order_relaxed);
  skipped_no_terms_.fetch_add(tally.skipped_no_terms,
                              std::memory_order_relaxed);
}

bool ShardedMicroblogStore::Route(Microblog* blog, RoutedTerms* out) {
  if (blog->id == kInvalidMicroblogId) {
    blog->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  if (blog->created_at == 0) {
    blog->created_at = clock_->NowMicros();
  }
  // Clear only the sublists the previous record touched.
  if (out->owned.size() < shards_.size()) {
    out->owned.resize(shards_.size());
  }
  for (size_t owner : out->owners) out->owned[owner].clear();
  out->owners.clear();
  extractor_->ExtractTerms(*blog, &out->terms);
  for (TermId term : out->terms) {
    const size_t owner = router_.ShardForTerm(term);
    if (out->owned[owner].empty()) out->owners.push_back(owner);
    out->owned[owner].push_back(term);
  }
  return !out->owners.empty();
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
