// ShardedMicroblogStore: N MicroblogStore shards behind one ingest/query
// facade, partitioned by term (ShardRouter); one shard is the single
// node. Each shard owns a slice of the memory budget, its own
// policy-owned index, raw-store segment view, flush buffer, and disk
// tier, so flush cycles on different shards share no locks and run
// independently. The facade stamps ids and timestamps centrally BEFORE
// routing — a record carrying terms owned by several shards is copied to
// each, and the copies must be byte-identical. Synchronous (per-shard
// inline auto-flush) and deterministic under a SimClock: this is the
// deployment the experiments and the oracles drive. The threaded
// deployment with per-shard digestion/flusher threads is
// ShardedMicroblogSystem.

#ifndef KFLUSH_CORE_SHARDED_STORE_H_
#define KFLUSH_CORE_SHARDED_STORE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/shard_layout.h"
#include "core/query_engine.h"
#include "core/store.h"

namespace kflush {

/// Sharded deployment configuration.
struct ShardedStoreOptions {
  /// Per-shard template. memory_budget_bytes is the TOTAL deployment
  /// budget, split by ShardStoreOptions. clock is shared across shards.
  /// Leave disk null: each shard owns its disk tier, keeping a term's
  /// disk postings wholly on its owner.
  StoreOptions store;
  size_t num_shards = 1;
};

/// Aggregated ingest counters maintained by the routing layer.
struct ShardedIngestStats {
  /// Records submitted to the facade (before routing).
  uint64_t submitted = 0;
  /// Per-shard record copies written (>= submitted - skipped; a record
  /// with terms on s shards contributes s copies).
  uint64_t routed_copies = 0;
  /// Records carrying no term under the attribute (counted centrally; the
  /// shards never see them).
  uint64_t skipped_no_terms = 0;
};

class ShardedMicroblogStore {
 public:
  explicit ShardedMicroblogStore(ShardedStoreOptions options);
  ~ShardedMicroblogStore();

  ShardedMicroblogStore(const ShardedMicroblogStore&) = delete;
  ShardedMicroblogStore& operator=(const ShardedMicroblogStore&) = delete;

  /// Ingests one microblog: stamps id/created_at if unset, extracts terms,
  /// and routes one copy (with its owned term subset) to each owning
  /// shard. Thread-safe.
  Status Insert(Microblog blog);

  /// One flush cycle on every over-budget shard; returns bytes freed.
  size_t FlushAllOnce();

  /// The shard-layout check's failure (OpenShardLayout; the shards then
  /// run non-durably), else the first non-OK shard durability status (OK
  /// with durability disabled).
  Status DurabilityStatus() const;

  /// Group-commit barrier on every shard WAL.
  Status CommitDurableAll();

  void SetK(uint32_t k);
  uint32_t k() const { return shards_[0]->k(); }

  size_t num_shards() const { return shards_.size(); }
  MicroblogStore* shard(size_t i) { return shards_[i].get(); }
  const MicroblogStore* shard(size_t i) const { return shards_[i].get(); }
  const ShardRouter& router() const { return routing_.router(); }
  QueryEngine* engine() { return engine_.get(); }
  const ShardedStoreOptions& options() const { return options_; }

  ShardedIngestStats sharded_ingest_stats() const;

  // --- cross-shard aggregation (experiment/bench collection) ---
  IngestStats AggregatedIngestStats() const;
  PolicyStats AggregatedPolicyStats() const;
  DiskStats AggregatedDiskStats() const;
  /// Aggregate of every shard's registry snapshot; with per-shard series
  /// under "shard<i>." prefixes when `include_per_shard`.
  MetricsSnapshot AggregatedMetrics(bool include_per_shard = false) const;
  size_t DataUsed() const;
  size_t NumTerms() const;
  size_t NumKFilledTerms() const;
  size_t AuxMemoryBytes() const;
  size_t PeakFlushBufferBytes() const;
  void CollectEntrySizes(std::vector<size_t>* out) const;

 private:
  ShardedStoreOptions options_;
  IngestRouter routing_;
  Status layout_status_;
  std::vector<std::unique_ptr<MicroblogStore>> shards_;
  std::unique_ptr<QueryEngine> engine_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> routed_copies_{0};
  std::atomic<uint64_t> skipped_no_terms_{0};
};

}  // namespace kflush

#endif  // KFLUSH_CORE_SHARDED_STORE_H_
