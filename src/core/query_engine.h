// The top-k query engine (paper §II-B, §IV-D) over a term-partitioned
// deployment: every term's postings — in memory and on disk — live wholly
// on the shard ShardRouter assigns it, and one store is the case N = 1.
// A query is evaluated against in-memory contents first; when memory
// cannot be shown to hold the top-k, the disk tier completes the answer.
//
// Hit rules (`memory_hit`, the paper's metric):
//
//   single : the term holds >= k in-memory postings.
//   OR     : every queried term holds >= k in-memory postings (then the
//            union's top-k is in memory, §IV-D).
//   AND    : >= k records appear in some query term's in-memory list and
//            carry every query term (the paper's record-based rule;
//            kFlushing-MK exists to make this succeed more often).
//
// Memory answers alone only when it provably holds the top-k: its k-th
// result must outrank every disk posting it could have missed
// (DiskStore::MaxTermScore). A hit that fails the check stays a hit — the
// rule above is the metric — but its answer merges the disk tier like a
// miss, and it is counted in query.unproven_hits. Every answer is
// therefore the exact top-k in (score desc, id desc) order, at every
// shard count.
//
// How a query runs. Every posting list, in memory and on disk, is kept in
// (score desc, id desc) order with the score fixed at arrival (§IV-B), so
// evaluation walks the lists in rank order, takes scores from the
// postings, and stops at the k-th qualifying record:
//
//   single,
//   OR     : each term's memory top-k is read on its owner, plus its
//            disk top-k when memory does not provably hold the term's
//            top-k, into one pool sorted in rank order (a record pooled
//            twice is kept once).
//   AND    : each term's in-memory list is read on its owner, then its
//            best disk score, and the lists' union is walked in rank
//            order up to the k-th record carrying every term. A record in
//            every list qualifies without a record read; one scoring above
//            the best disk score of a term whose list lacks it is ruled
//            out without one. A miss (or an unproven hit) merges each
//            term's memory and disk lists into one cursor and
//            leapfrog-intersects the cursors up to the k-th common record.
//
// Either way the ranked candidates are materialized once, up to k
// records, at every shard count.
//
// Each query is recorded once — type, memory hit, the disk term reads and
// AND record reads it issued, latency and its split into stages — in the
// query.* series of the registry of its first term's owner, so the
// aggregated series count queries, not shard visits.

#ifndef KFLUSH_CORE_QUERY_ENGINE_H_
#define KFLUSH_CORE_QUERY_ENGINE_H_

#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/shard_router.h"
#include "core/store.h"

namespace kflush {

/// A basic top-k search query over the store's attribute.
struct TopKQuery {
  std::vector<TermId> terms;
  QueryType type = QueryType::kSingle;
  /// 0 = use the store's current k.
  uint32_t k = 0;
  /// Treat every term as a MISS: consult the disk tier even when the
  /// memory-hit predicate holds. The continuous-query layer sets this on
  /// snapshot/refill queries. Counted as a miss in the hit-ratio metrics.
  bool force_disk = false;
};

/// Query outcome.
struct QueryResult {
  /// Final answer, best-ranked first, at most k records.
  std::vector<Microblog> results;
  /// True iff the paper's hit rule held (see the file comment).
  bool memory_hit = false;
  size_t from_memory = 0;
  size_t from_disk = 0;
};

/// Evaluates queries against a deployment's shard stores. Thread-safe;
/// many engines may share the stores (all record into their registries),
/// or one engine may serve many threads. Shards are visited one at a time.
class QueryEngine {
 public:
  /// One store (N = 1).
  explicit QueryEngine(MicroblogStore* store);
  /// `stores[i]` is shard i under ShardRouter(stores.size()). The shards
  /// share the attribute, its term space, and k.
  explicit QueryEngine(std::vector<MicroblogStore*> stores);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Evaluates `query`, materializing result records.
  Result<QueryResult> Execute(const TopKQuery& query);

  /// Convenience: keyword search from strings (keyword attribute only).
  /// Unknown keywords become absent terms (guaranteed miss path).
  Result<QueryResult> SearchKeywords(const std::vector<std::string>& keywords,
                                     QueryType type, uint32_t k = 0);

  /// Convenience: "find top-k posted at this location" (spatial attribute).
  Result<QueryResult> SearchLocation(double lat, double lon, uint32_t k = 0);

  /// Convenience: "find top-k posted inside this bounding box" (spatial
  /// attribute): evaluated as an OR over the grid tiles overlapping the
  /// box, then filtered to the box. `max_tiles` caps the fan-out
  /// (InvalidArgument if the box needs more).
  Result<QueryResult> SearchArea(double min_lat, double min_lon,
                                 double max_lat, double max_lon,
                                 uint32_t k = 0, size_t max_tiles = 256,
                                 bool force_disk = false);

  /// Convenience: user-timeline search (user attribute).
  Result<QueryResult> SearchUser(UserId user, uint32_t k = 0);

  size_t num_shards() const { return shards_.size(); }
  MicroblogStore* store(size_t shard) const { return shards_[shard].store; }

 private:
  /// The parts of a query's wall time, recorded as
  /// query.stage_micros.<name>: reading in-memory postings, the disk tier
  /// (term reads and MaxTermScore proofs), rank-order walks, sorts and
  /// merges, and fetching the answer's records.
  enum Stage : int { kPostings = 0, kDisk, kMerge, kMaterialize, kNumStages };

  /// One Execute's bookkeeping, threaded through evaluation. Charge()
  /// reads the clock once and charges the interval since the previous
  /// read to one stage, so the stage totals add up exactly to the query's
  /// latency (`last - start`).
  struct Cost {
    Cost();
    void Charge(Stage stage);

    Timestamp start;
    Timestamp last;
    uint64_t stage_micros[kNumStages] = {};
    /// Disk QueryTerm calls this query issued.
    uint64_t disk_term_reads = 0;
    /// Records the AND walk read to test whether they carry every term.
    uint64_t and_record_reads = 0;
    /// A hit whose memory top-k could not be proven (see Hit rules).
    bool unproven = false;
  };

  /// One shard store and its query.* instruments (get-or-create, resolved
  /// once; valid for the store's lifetime). Latency histograms split by
  /// query type and hit outcome; the spatial/user surface histograms time
  /// the whole convenience call (SearchArea's over-fetch loop runs
  /// Execute several times, each recorded as a query, while the surface
  /// histogram sees one end-to-end sample).
  struct Shard {
    explicit Shard(MicroblogStore* store);

    MicroblogStore* store;
    ConcurrentHistogram* latency_by_type[3][2];
    ConcurrentHistogram* latency_spatial[2];
    ConcurrentHistogram* latency_user[2];
    ConcurrentHistogram* stage_micros[kNumStages];
    Counter* queries;
    Counter* hits;
    Counter* misses;
    Counter* unproven_hits;
    Counter* disk_term_reads;
    Counter* and_record_reads;
  };

  Shard& OwnerOf(TermId term) { return shards_[router_.ShardForTerm(term)]; }

  /// Single and OR. `term_owner[i]` owns `terms[i]`; `owners` are the
  /// distinct owners, in term order.
  Result<QueryResult> EvaluateOr(const std::vector<TermId>& terms,
                                 const std::vector<MicroblogStore*>& term_owner,
                                 const std::vector<MicroblogStore*>& owners,
                                 uint32_t k, bool force_disk, Cost* cost);
  /// AND, over the same owner lists.
  Result<QueryResult> EvaluateAnd(
      const std::vector<TermId>& terms,
      const std::vector<MicroblogStore*>& term_owner,
      const std::vector<MicroblogStore*>& owners, uint32_t k, bool force_disk,
      Cost* cost);

  /// Records one end-to-end surface sample in the spatial or user
  /// histogram pair of `term`'s owner.
  void RecordSurface(TermId term, bool spatial, bool memory_hit,
                     uint64_t micros);

  std::vector<Shard> shards_;
  ShardRouter router_;
};

}  // namespace kflush

#endif  // KFLUSH_CORE_QUERY_ENGINE_H_
