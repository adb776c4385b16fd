// What both sharded facades (ShardedMicroblogStore, ShardedMicroblogSystem)
// share about the shard layout: each shard's slice of the deployment
// options, and the ingest routing — central id/timestamp stamping, then
// the split of a record's terms by owning shard.

#ifndef KFLUSH_CORE_SHARD_LAYOUT_H_
#define KFLUSH_CORE_SHARD_LAYOUT_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/shard_router.h"
#include "core/store.h"

namespace kflush {

/// Shard `shard`'s options under a deployment of `num_shards`: the total
/// memory budget split evenly (remainder bytes are dropped — the oracle
/// pins budgets divisible by the shard counts it compares), `shard_id`
/// set, and, when durable, its own WAL + segment directory
/// `<dir>/shard-<i>`, so flushes and group commits on different shards
/// share no files.
StoreOptions ShardStoreOptions(const StoreOptions& deployment,
                               size_t num_shards, size_t shard);

/// A durable directory opens only at the shard count that wrote it:
/// ShardRouter placement depends on N, so a 2-shard directory reopened at
/// 4 shards would route recovered terms to shards that hold nothing.
/// Checks `deployment`'s durable directory before any shard store opens
/// it. A missing or empty directory passes, and so does one holding
/// exactly shard-0 … shard-(num_shards-1) and no top-level single-store
/// WAL. On failure durability is switched off in `*deployment`, so the
/// shards create nothing and run non-durably, and the returned status
/// names both shard counts.
Status OpenShardLayout(StoreOptions* deployment, size_t num_shards);

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

/// Stamps records centrally, before routing, so the copies a multi-term
/// record leaves on several shards are byte-identical; then splits them by
/// owning shard. Thread-safe.
class IngestRouter {
 public:
  IngestRouter(const StoreOptions& deployment, size_t num_shards);

  /// Moves id stamping past every id `shard` recovered, or restarted
  /// ingest would reuse live ids. Called once per shard at construction.
  void ResumePast(const MicroblogStore& shard);

  /// Stamps id/created_at if unset, extracts the record's terms, and
  /// groups them into `out` by owning shard. Returns false (with no
  /// owners) for a record with no term under the attribute.
  bool Route(Microblog* blog, RoutedTerms* out);

  const ShardRouter& router() const { return router_; }

 private:
  Clock* clock_;
  std::unique_ptr<AttributeExtractor> extractor_;
  ShardRouter router_;
  std::atomic<MicroblogId> next_id_{1};
};

}  // namespace kflush

#endif  // KFLUSH_CORE_SHARD_LAYOUT_H_
