// Query fan-out over a term-partitioned deployment. Every term's postings
// — in memory and on disk — live wholly on the shard ShardRouter assigns
// it, so:
//
//   single : the query goes to the one owning shard, unchanged.
//   OR     : terms group by owning shard; each shard answers the OR of
//            its group; the per-shard top-k lists k-way-merge under the
//            exact (score desc, id desc) order Materialize() uses.
//   AND    : evaluated here, over each term's full memory ∪ disk list
//            pulled from its owner — never delegated. The per-shard
//            engine's AND hit path ("a record trimmed from one entry but
//            resident through another still qualifies") inspects records
//            resident on *its* shard, which depends on how terms are
//            colocated; routing through it would make answers a function
//            of the shard count. The full-list intersection is exact for
//            every N, including N=1, so sharding stays invisible.
//
// Sub-queries are evaluated unrecorded; each top-level query is recorded
// once, in the registry of the shard that owns its first term, so the
// aggregated query.* series count queries, not fan-out legs.
//
// The differential oracle (tests/integration/shard_oracle_test.cc) holds
// this layer to byte-identical answers against shards=1.

#ifndef KFLUSH_CORE_SHARDED_QUERY_ENGINE_H_
#define KFLUSH_CORE_SHARDED_QUERY_ENGINE_H_

#include <vector>

#include "core/query_engine.h"
#include "core/shard_router.h"

namespace kflush {

/// Fans queries out to owning shards and merges per-shard top-k answers.
/// Each shard is seen through its engine: delegated sub-queries, and the
/// store (raw records, disk tier, policy index) the engine evaluates on.
/// Thread-safe, like the per-shard engines it delegates to. The spatial
/// and user searches (QueryEngineBase) run above the fan-out, so
/// SearchArea's boundary filter sees the merged answer.
class ShardedQueryEngine : public QueryEngineBase {
 public:
  explicit ShardedQueryEngine(std::vector<QueryEngine*> shards);

  size_t num_shards() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }

 protected:
  Result<QueryResult> Evaluate(const TopKQuery& query, uint32_t k) override;
  /// Sum over the shards (the delta around a query is the fan-out's
  /// disk-read cost; exact when queries don't race, advisory under
  /// concurrency).
  uint64_t DiskTermQueries() const override;
  QueryEngine* RecorderFor(TermId term) override {
    return shards_[router_.ShardForTerm(term)];
  }

 private:
  struct Scored {
    double score;
    MicroblogId id;
  };

  Result<QueryResult> ExecuteOrFanout(const std::vector<TermId>& terms,
                                      uint32_t k, bool force_disk);
  Result<QueryResult> ExecuteAndExact(const std::vector<TermId>& terms,
                                      uint32_t k);

  std::vector<QueryEngine*> shards_;
  ShardRouter router_;
};

}  // namespace kflush

#endif  // KFLUSH_CORE_SHARDED_QUERY_ENGINE_H_
