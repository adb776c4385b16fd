#include "core/query_engine.h"

#include <algorithm>

#include "core/trace.h"
#include "index/spatial_grid.h"
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace kflush {

namespace {
constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();
/// Cap on SearchArea's over-fetch factor: a box whose matching records are
/// outnumbered this badly by same-tile outsiders stops re-querying and
/// returns what it found.
constexpr uint32_t kMaxAreaOverfetch = 32;
}  // namespace

QueryEngine::QueryEngine(MicroblogStore* store)
    : QueryEngineBase(store), store_(store) {
  MetricsRegistry* registry = store_->metrics_registry();
  static constexpr const char* kOutcome[2] = {"miss", "hit"};
  for (int t = 0; t < 3; ++t) {
    for (int o = 0; o < 2; ++o) {
      latency_by_type_[t][o] = registry->histogram(
          QueryLatencySeries(static_cast<QueryType>(t), o == 1));
    }
  }
  for (int o = 0; o < 2; ++o) {
    latency_spatial_[o] = registry->histogram(
        std::string("query.latency_micros.spatial.") + kOutcome[o]);
    latency_user_[o] = registry->histogram(
        std::string("query.latency_micros.user.") + kOutcome[o]);
  }
  queries_counter_ = registry->counter("query.executed");
  hits_counter_ = registry->counter("query.memory_hits");
  misses_counter_ = registry->counter("query.memory_misses");
  disk_term_reads_counter_ = registry->counter("query.disk_term_reads");
}

void QueryEngine::MemoryPostings(TermId term, size_t limit,
                                 std::vector<Scored>* out) {
  std::vector<MicroblogId> ids;
  store_->policy()->QueryTerm(term, limit, &ids, /*record_access=*/true);
  const RankingFunction* ranking = store_->ranking();
  for (MicroblogId id : ids) {
    // Recompute the arrival-time score from the record; a record flushed
    // between the index read and here is simply skipped (its posting is
    // already registered on disk).
    store_->raw_store()->With(id, [&](const Microblog& blog) {
      out->push_back({ranking->Score(blog), id});
    });
  }
}

Status QueryEngine::Materialize(std::vector<Scored> candidates, uint32_t k,
                                QueryResult* result) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id > b.id;
            });
  std::unordered_set<MicroblogId> seen;
  std::vector<MicroblogId> memory_ids;
  for (const Scored& c : candidates) {
    if (result->results.size() >= k) break;
    if (!seen.insert(c.id).second) continue;
    auto blog = store_->raw_store()->Get(c.id);
    if (blog.has_value()) {
      result->results.push_back(std::move(*blog));
      memory_ids.push_back(c.id);
      ++result->from_memory;
      continue;
    }
    Microblog from_disk;
    Status s = store_->disk()->GetRecord(c.id, &from_disk);
    if (s.ok()) {
      result->results.push_back(std::move(from_disk));
      ++result->from_disk;
    } else if (!s.IsNotFound()) {
      return s;
    }
    // NotFound: the record is in flight between memory and disk (flush
    // buffer); skip it — the next candidate takes its place.
  }
  store_->policy()->OnResultAccess(memory_ids);
  return Status::OK();
}

Result<QueryResult> QueryEngine::ExecuteSingle(TermId term, uint32_t k,
                                               bool force_disk) {
  // Disk-read accounting lives in Execute(), as the delta of the disk
  // store's own term_queries counter around the evaluation — the counter
  // the disk tier actually increments, covering every path down here.
  QueryResult result;
  std::vector<Scored> candidates;
  MemoryPostings(term, k, &candidates);
  result.memory_hit = candidates.size() >= k && !force_disk;
  if (!result.memory_hit) {
    std::vector<Posting> disk_postings;
    KFLUSH_RETURN_IF_ERROR(
        store_->disk()->QueryTerm(term, k, &disk_postings));
    for (const Posting& p : disk_postings) {
      candidates.push_back({p.score, p.id});
    }
  }
  KFLUSH_RETURN_IF_ERROR(Materialize(std::move(candidates), k, &result));
  return result;
}

Result<QueryResult> QueryEngine::ExecuteOr(const std::vector<TermId>& terms,
                                           uint32_t k, bool force_disk) {
  QueryResult result;
  std::vector<Scored> candidates;
  std::vector<TermId> short_terms;  // terms with < k in-memory postings
  for (TermId term : terms) {
    std::vector<Scored> mem;
    MemoryPostings(term, k, &mem);
    if (mem.size() < k) short_terms.push_back(term);
    candidates.insert(candidates.end(), mem.begin(), mem.end());
  }
  // OR hit rule (§IV-D): if every term holds k in memory, the union's
  // top-k is guaranteed in memory.
  result.memory_hit = short_terms.empty() && !force_disk;
  if (!result.memory_hit) {
    for (TermId term : force_disk ? terms : short_terms) {
      std::vector<Posting> disk_postings;
      KFLUSH_RETURN_IF_ERROR(
          store_->disk()->QueryTerm(term, k, &disk_postings));
      for (const Posting& p : disk_postings) {
        candidates.push_back({p.score, p.id});
      }
    }
  }
  KFLUSH_RETURN_IF_ERROR(Materialize(std::move(candidates), k, &result));
  return result;
}

Result<QueryResult> QueryEngine::ExecuteAnd(const std::vector<TermId>& terms,
                                            uint32_t k, bool force_disk) {
  QueryResult result;
  // Paper §IV-D: "we retrieve in-memory index entries of W1 and W2, scan
  // their microblog ids lists, and any microblog that is associated with
  // both W1 and W2 is added to Lm". "Associated with" is a property of
  // the record, so the memory-side candidate set is the union of the
  // lists filtered by record-term containment — a record trimmed from one
  // entry but still memory-resident through another (the Figure 6 case)
  // still qualifies.
  std::vector<std::vector<Scored>> lists(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    MemoryPostings(terms[i], kNoLimit, &lists[i]);
  }
  const AttributeExtractor* extractor = store_->extractor();
  std::unordered_set<MicroblogId> considered;
  std::vector<Scored> intersection;
  std::vector<TermId> record_terms;
  for (const auto& list : lists) {
    for (const Scored& s : list) {
      if (!considered.insert(s.id).second) continue;
      bool has_all = false;
      store_->raw_store()->With(s.id, [&](const Microblog& blog) {
        record_terms.clear();
        extractor->ExtractTerms(blog, &record_terms);
        has_all = true;
        for (TermId t : terms) {
          if (std::find(record_terms.begin(), record_terms.end(), t) ==
              record_terms.end()) {
            has_all = false;
            break;
          }
        }
      });
      if (has_all) intersection.push_back(s);
    }
  }
  // AND hit rule: the in-memory candidate list already yields k results.
  result.memory_hit = intersection.size() >= k && !force_disk;
  if (result.memory_hit) {
    KFLUSH_RETURN_IF_ERROR(
        Materialize(std::move(intersection), k, &result));
    return result;
  }
  // Miss: rebuild each term's full list as memory ∪ disk, then intersect.
  std::vector<std::unordered_map<MicroblogId, double>> full(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    for (const Scored& s : lists[i]) full[i].emplace(s.id, s.score);
    std::vector<Posting> disk_postings;
    KFLUSH_RETURN_IF_ERROR(
        store_->disk()->QueryTerm(terms[i], kNoLimit, &disk_postings));
    for (const Posting& p : disk_postings) full[i].emplace(p.id, p.score);
  }
  std::vector<Scored> candidates;
  if (!full.empty()) {
    for (const auto& [id, score] : full[0]) {
      bool in_all = true;
      for (size_t i = 1; i < full.size(); ++i) {
        if (full[i].count(id) == 0) {
          in_all = false;
          break;
        }
      }
      if (in_all) candidates.push_back({score, id});
    }
  }
  KFLUSH_RETURN_IF_ERROR(Materialize(std::move(candidates), k, &result));
  return result;
}

Result<QueryResult> QueryEngineBase::Execute(const TopKQuery& query) {
  if (query.terms.empty()) {
    return Status::InvalidArgument("query has no terms");
  }
  // Resolved once here, so every sub-query of a fan-out sees the same k
  // even if SetK churns mid-flight.
  const uint32_t k = query.k != 0 ? query.k : terms_->k();
  if (k == 0) return Status::InvalidArgument("k must be positive");
  Stopwatch watch;
  const uint64_t disk_reads_before = DiskTermQueries();
  Result<QueryResult> result = Evaluate(query, k);
  if (result.ok()) {
    RecorderFor(query.terms[0])
        ->Record(query.type, result->memory_hit,
                 DiskTermQueries() - disk_reads_before, watch.ElapsedMicros());
  }
  return result;
}

Result<QueryResult> QueryEngine::Evaluate(const TopKQuery& query,
                                          uint32_t k) {
  static const char* const kTypeName[] = {"single", "and", "or"};
  TraceSpan span("query", kTypeName[static_cast<int>(query.type)],
                 {TraceArg::Uint("terms", query.terms.size()),
                  TraceArg::Uint("k", k)});
  const uint64_t disk_reads_before = DiskTermQueries();

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    switch (query.type) {
      case QueryType::kSingle:
        if (query.terms.size() != 1) {
          return Status::InvalidArgument("single query needs exactly 1 term");
        }
        return ExecuteSingle(query.terms[0], k, query.force_disk);
      case QueryType::kOr:
        return ExecuteOr(query.terms, k, query.force_disk);
      case QueryType::kAnd:
        return ExecuteAnd(query.terms, k, query.force_disk);
    }
    return Status::InvalidArgument("unknown query type");
  }();

  if (result.ok()) {
    span.End({TraceArg::Str("outcome", result->memory_hit ? "hit" : "miss"),
              TraceArg::Uint("from_memory", result->from_memory),
              TraceArg::Uint("from_disk", result->from_disk),
              TraceArg::Uint("disk_term_reads",
                             DiskTermQueries() - disk_reads_before)});
  } else {
    span.End({TraceArg::Str("outcome", "error")});
  }
  return result;
}

void QueryEngine::Record(QueryType type, bool memory_hit,
                         uint64_t disk_term_reads, uint64_t latency_micros) {
  latency_by_type_[static_cast<int>(type)][memory_hit ? 1 : 0]->Record(
      latency_micros);
  queries_counter_->Increment();
  (memory_hit ? hits_counter_ : misses_counter_)->Increment();
  disk_term_reads_counter_->Add(disk_term_reads);
}

Result<QueryResult> QueryEngine::SearchKeywords(
    const std::vector<std::string>& keywords, QueryType type, uint32_t k) {
  TopKQuery query;
  query.type = keywords.size() == 1 ? QueryType::kSingle : type;
  query.k = k;
  for (const std::string& kw : keywords) {
    query.terms.push_back(store_->TermForKeyword(kw));
  }
  return Execute(query);
}

void QueryEngineBase::RecordSurface(TermId term, bool spatial,
                                    bool memory_hit, uint64_t micros) {
  QueryEngine* recorder = RecorderFor(term);
  (spatial ? recorder->latency_spatial_
           : recorder->latency_user_)[memory_hit ? 1 : 0]
      ->Record(micros);
}

Result<QueryResult> QueryEngineBase::SearchLocation(double lat, double lon,
                                                    uint32_t k) {
  TopKQuery query;
  query.type = QueryType::kSingle;
  query.k = k;
  query.terms.push_back(terms_->TermForLocation(lat, lon));
  Stopwatch watch;
  Result<QueryResult> result = Execute(query);
  if (result.ok()) {
    RecordSurface(query.terms[0], /*spatial=*/true, result->memory_hit,
                  watch.ElapsedMicros());
  }
  return result;
}

Result<QueryResult> QueryEngineBase::SearchArea(double min_lat, double min_lon,
                                                double max_lat, double max_lon,
                                                uint32_t k, size_t max_tiles,
                                                bool force_disk) {
  const auto* spatial =
      dynamic_cast<const SpatialAttribute*>(terms_->extractor());
  if (spatial == nullptr) {
    return Status::InvalidArgument("store is not spatially indexed");
  }
  BoundingBox box{min_lat, min_lon, max_lat, max_lon};
  // Request one extra tile to detect overflow of the cap.
  std::vector<TermId> tiles =
      TilesOverlapping(spatial->mapper(), box, max_tiles + 1);
  if (tiles.empty()) {
    return Status::InvalidArgument("empty or inverted bounding box");
  }
  if (tiles.size() > max_tiles) {
    return Status::InvalidArgument("bounding box spans too many tiles");
  }
  TopKQuery query;
  query.terms = std::move(tiles);
  query.type = query.terms.size() == 1 ? QueryType::kSingle : QueryType::kOr;
  query.force_disk = force_disk;
  const uint32_t want = k != 0 ? k : terms_->k();
  // Records in boundary tiles that fall outside the box are dropped after
  // top-k materialization (after the cross-shard merge, when sharded),
  // which can under-fill the answer even when k matching records exist.
  // Over-fetch and widen geometrically until the box's top-k is filled or
  // the tiles are exhausted (the underlying query returning fewer than it
  // was asked for means there is nothing left).
  uint32_t fetch = want;
  Stopwatch watch;
  while (true) {
    query.k = fetch;
    Result<QueryResult> result = Execute(query);
    if (!result.ok()) return result;
    const size_t fetched = result->results.size();
    auto& records = result->results;
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [&](const Microblog& blog) {
                                   return !AreaContains(box, blog);
                                 }),
                  records.end());
    const bool exhausted = fetched < fetch;
    if (records.size() >= want || exhausted ||
        static_cast<uint64_t>(fetch) >=
            static_cast<uint64_t>(want) * kMaxAreaOverfetch) {
      if (records.size() > want) records.resize(want);
      RecordSurface(query.terms[0], /*spatial=*/true, result->memory_hit,
                    watch.ElapsedMicros());
      return result;
    }
    fetch *= 2;
  }
}

Result<QueryResult> QueryEngineBase::SearchUser(UserId user, uint32_t k) {
  TopKQuery query;
  query.type = QueryType::kSingle;
  query.k = k;
  query.terms.push_back(terms_->TermForUser(user));
  Stopwatch watch;
  Result<QueryResult> result = Execute(query);
  if (result.ok()) {
    RecordSurface(query.terms[0], /*spatial=*/false, result->memory_hit,
                  watch.ElapsedMicros());
  }
  return result;
}

}  // namespace kflush
