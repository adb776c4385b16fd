// The top-k query engine (paper §II-B, §IV-D). Evaluates basic search
// queries — single-term, multi-term AND, multi-term OR — against in-memory
// contents first; when fewer than k results can be guaranteed from memory
// the query is a MISS and the disk tier is consulted to complete the
// answer. Hit predicates follow the paper:
//
//   single : the term holds >= k in-memory postings.
//   OR     : every queried term holds >= k in-memory postings (then the
//            union's top-k is provably in memory, §IV-D).
//   AND    : the in-memory lists' intersection yields >= k results (the
//            paper's operational rule; kFlushing-MK exists to make this
//            succeed more often).

#ifndef KFLUSH_CORE_QUERY_ENGINE_H_
#define KFLUSH_CORE_QUERY_ENGINE_H_

#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/store.h"

namespace kflush {

/// A basic top-k search query over the store's attribute.
struct TopKQuery {
  std::vector<TermId> terms;
  QueryType type = QueryType::kSingle;
  /// 0 = use the store's current k.
  uint32_t k = 0;
  /// Treat every term as a MISS: consult the disk tier even when the
  /// memory-hit predicate holds, making the answer the exact top-k over
  /// the full posting set under every policy. The continuous-query layer
  /// sets this on snapshot/refill queries — under LRU (whole-record
  /// eviction by access recency) a term's memory postings need not be a
  /// score-prefix of memory ∪ disk, so only the merged answer is
  /// guaranteed exact. Counted as a miss in the hit-ratio metrics.
  bool force_disk = false;
};

/// Query outcome.
struct QueryResult {
  /// Final answer, best-ranked first, at most k records.
  std::vector<Microblog> results;
  /// True iff the answer was served entirely from memory.
  bool memory_hit = false;
  size_t from_memory = 0;
  size_t from_disk = 0;
};

class QueryEngine;

/// What both engines share: Execute, and the spatial and user searches
/// written once over it. Execute records exactly one query — type, memory
/// hit, disk term reads, latency — in the query.* series of one store's
/// registry: the store that owns the query's first term (the only store,
/// unsharded). SearchLocation/SearchArea/SearchUser also time the whole
/// call into that registry's query.latency_micros.<spatial|user>.*.
class QueryEngineBase {
 public:
  virtual ~QueryEngineBase() = default;
  QueryEngineBase(const QueryEngineBase&) = delete;
  QueryEngineBase& operator=(const QueryEngineBase&) = delete;

  /// Evaluates `query`, materializing result records.
  Result<QueryResult> Execute(const TopKQuery& query);

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

 protected:
  /// `terms` is any store of the deployment: shards share the attribute,
  /// its term space, and k, which is all the searches read from it.
  explicit QueryEngineBase(const MicroblogStore* terms) : terms_(terms) {}

  /// Execute without recording; `query` has terms and `k` is resolved.
  virtual Result<QueryResult> Evaluate(const TopKQuery& query,
                                       uint32_t k) = 0;
  /// Disk term queries issued so far by the stores this engine reads.
  virtual uint64_t DiskTermQueries() const = 0;
  /// The per-store engine whose registry records a query led by `term`.
  virtual QueryEngine* RecorderFor(TermId term) = 0;

 private:
  /// Records one end-to-end surface sample in RecorderFor(`term`)'s
  /// spatial or user histogram pair.
  void RecordSurface(TermId term, bool spatial, bool memory_hit,
                     uint64_t micros);

  const MicroblogStore* terms_;
};

/// Evaluates queries against one MicroblogStore. Thread-safe; many engine
/// instances may share a store (all record into its registry), or one
/// engine may serve many threads.
class QueryEngine : public QueryEngineBase {
 public:
  explicit QueryEngine(MicroblogStore* store);

  MicroblogStore* store() const { return store_; }

  /// Convenience: keyword search from strings (keyword attribute only).
  /// Unknown keywords become absent terms (guaranteed miss path).
  Result<QueryResult> SearchKeywords(const std::vector<std::string>& keywords,
                                     QueryType type, uint32_t k = 0);

 private:
  // Execute records through Record; the fan-out engine evaluates its
  // sub-queries here unrecorded.
  friend class QueryEngineBase;
  friend class ShardedQueryEngine;

  Result<QueryResult> Evaluate(const TopKQuery& query, uint32_t k) override;
  uint64_t DiskTermQueries() const override {
    return store_->disk()->stats().term_queries;
  }
  QueryEngine* RecorderFor(TermId) override { return this; }

  struct Scored {
    double score;
    MicroblogId id;
  };

  /// Records one query in this store's query.* series.
  void Record(QueryType type, bool memory_hit, uint64_t disk_term_reads,
              uint64_t latency_micros);

  Result<QueryResult> ExecuteSingle(TermId term, uint32_t k, bool force_disk);
  Result<QueryResult> ExecuteOr(const std::vector<TermId>& terms, uint32_t k,
                                bool force_disk);
  Result<QueryResult> ExecuteAnd(const std::vector<TermId>& terms, uint32_t k,
                                 bool force_disk);

  /// Fetches term postings from memory as (score, id); scores recomputed
  /// through the ranking function.
  void MemoryPostings(TermId term, size_t limit, std::vector<Scored>* out);

  /// Merges memory + disk candidates (sorted desc, deduped) into the final
  /// top-k and materializes records from the raw store or disk.
  Status Materialize(std::vector<Scored> candidates, uint32_t k,
                     QueryResult* result);

  MicroblogStore* store_;

  // Registry instruments, resolved once in the constructor (get-or-create;
  // pointers stay valid for the store's lifetime). Latency histograms are
  // split by query type and memory-hit outcome; the spatial/user surface
  // histograms time the whole convenience call (SearchArea's over-fetch
  // loop runs Execute several times, each recorded as a query, while the
  // surface histogram sees one end-to-end sample).
  ConcurrentHistogram* latency_by_type_[3][2];
  ConcurrentHistogram* latency_spatial_[2];
  ConcurrentHistogram* latency_user_[2];
  Counter* queries_counter_;
  Counter* hits_counter_;
  Counter* misses_counter_;
  Counter* disk_term_reads_counter_;
};

}  // namespace kflush

#endif  // KFLUSH_CORE_QUERY_ENGINE_H_
