// ShardedMicroblogStore: N MicroblogStore shards behind one ingest/query
// facade, partitioned by term (ShardRouter); one shard is the single
// node. Each shard owns a slice of the memory budget, its own
// policy-owned index, raw-store segment view, flush buffer, and disk
// tier, so flush cycles on different shards share no locks and run
// independently. The facade stamps ids and timestamps centrally BEFORE
// routing — a record carrying terms owned by several shards is copied to
// each, and the copies must be byte-identical. This is the one
// deployment. Driven inline (Insert, per-shard auto-flush), it is
// synchronous and deterministic under a SimClock; the experiments and the
// oracles drive it that way. ShardedMicroblogSystem drives it from
// per-shard digestion and flusher threads (RouteBatch).

#ifndef KFLUSH_CORE_SHARDED_STORE_H_
#define KFLUSH_CORE_SHARDED_STORE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/query_engine.h"
#include "core/shard_router.h"
#include "core/store.h"

namespace kflush {

/// Sharded deployment configuration.
struct ShardedStoreOptions {
  /// Per-shard template. memory_budget_bytes is the TOTAL deployment
  /// budget, split evenly across the shards (remainder bytes are dropped).
  /// clock is shared across shards. When durable, shard i keeps its own
  /// WAL and segments under `<durability.dir>/shard-<i>`.
  /// Leave disk null: each shard owns its disk tier, keeping a term's
  /// disk postings wholly on its owner.
  StoreOptions store;
  size_t num_shards = 1;
};

/// Aggregated ingest counters maintained by the routing layer.
struct ShardedIngestStats {
  /// Records inserted, or in admitted batches, before routing (term-less
  /// records included).
  uint64_t submitted = 0;
  /// Per-shard record copies written (>= submitted - skipped; a record
  /// with terms on s shards contributes s copies).
  uint64_t routed_copies = 0;
  /// Records carrying no term under the attribute (counted centrally; the
  /// shards never see them).
  uint64_t skipped_no_terms = 0;
};

/// Records bound for one shard, each with the subset of its terms that
/// shard owns (parallel vectors; see MicroblogStore::InsertRouted).
struct ShardBatch {
  std::vector<Microblog> blogs;
  std::vector<std::vector<TermId>> routed_terms;
};

/// A producer batch, stamped and split by owning shard (RouteBatch).
struct RoutedBatch {
  /// per_shard[s] holds shard s's copies.
  std::vector<ShardBatch> per_shard;
  /// Shards with a non-empty part, ascending.
  std::vector<size_t> owners;
  /// What admitting the batch adds to sharded_ingest_stats().
  ShardedIngestStats tally;
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

  /// Stamps and routes a whole batch like Insert, but inserts and counts
  /// nothing: ShardedMicroblogSystem queues each part on its shard and calls
  /// CountAdmitted only once the batch is admitted everywhere, so a
  /// rejected batch leaves no trace. Thread-safe.
  RoutedBatch RouteBatch(std::vector<Microblog> batch);
  /// Adds an admitted RouteBatch's tally to sharded_ingest_stats().
  void CountAdmitted(const ShardedIngestStats& tally);

  /// One flush cycle on every over-budget shard; returns bytes freed.
  size_t FlushAllOnce();

  /// The shard-layout check's failure (a durable directory opens only at
  /// the shard count that wrote it; the shards then run non-durably), else
  /// the first non-OK shard durability status (OK with durability
  /// disabled).
  Status DurabilityStatus() const;

  /// Group-commit barrier on every shard WAL.
  Status CommitDurableAll();

  void SetK(uint32_t k);
  uint32_t k() const { return shards_[0]->k(); }

  size_t num_shards() const { return shards_.size(); }
  MicroblogStore* shard(size_t i) { return shards_[i].get(); }
  const MicroblogStore* shard(size_t i) const { return shards_[i].get(); }
  const ShardRouter& router() const { return router_; }
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
  /// One record's terms grouped by owning shard. Reused across records, so
  /// routing allocates nothing once the buffers have grown (a caller that
  /// moves an `owned` list out regrows it).
  struct RoutedTerms {
    std::vector<TermId> terms;
    /// owned[s] holds shard s's terms of the record (indexed by shard).
    std::vector<std::vector<TermId>> owned;
    /// Shards with at least one term, in first-touch order.
    std::vector<size_t> owners;
  };

  /// Stamps id/created_at if unset, extracts the record's terms, and
  /// groups them into `out` by owning shard. Returns false (with no
  /// owners) for a record with no term under the attribute.
  bool Route(Microblog* blog, RoutedTerms* out);

  ShardedStoreOptions options_;
  Clock* clock_;
  std::unique_ptr<AttributeExtractor> extractor_;
  ShardRouter router_;
  std::atomic<MicroblogId> next_id_{1};
  Status layout_status_;
  std::vector<std::unique_ptr<MicroblogStore>> shards_;
  std::unique_ptr<QueryEngine> engine_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> routed_copies_{0};
  std::atomic<uint64_t> skipped_no_terms_{0};
};

}  // namespace kflush

#endif  // KFLUSH_CORE_SHARDED_STORE_H_
