#include "core/query_engine.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "core/topk_merge.h"
#include "core/trace.h"
#include "index/spatial_grid.h"

namespace kflush {

namespace {
constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();
/// Cap on SearchArea's over-fetch factor: a box whose matching records are
/// outnumbered this badly by same-tile outsiders stops re-querying and
/// returns what it found.
constexpr uint32_t kMaxAreaOverfetch = 32;

/// True when no disk posting of `term` can outrank a memory result
/// scoring `score`: the term has none on `store`'s disk, or its best one
/// scores strictly lower (an equal score may carry a higher id).
bool DiskCannotOutrank(MicroblogStore* store, TermId term, double score) {
  double disk_max = 0.0;
  return !store->disk()->MaxTermScore(term, &disk_max) || score > disk_max;
}
}  // namespace

QueryEngine::Shard::Shard(MicroblogStore* s) : store(s) {
  MetricsRegistry* registry = store->metrics_registry();
  static constexpr const char* kOutcome[2] = {"miss", "hit"};
  for (int t = 0; t < 3; ++t) {
    for (int o = 0; o < 2; ++o) {
      latency_by_type[t][o] = registry->histogram(
          QueryLatencySeries(static_cast<QueryType>(t), o == 1));
    }
  }
  for (int o = 0; o < 2; ++o) {
    latency_spatial[o] = registry->histogram(
        std::string("query.latency_micros.spatial.") + kOutcome[o]);
    latency_user[o] = registry->histogram(
        std::string("query.latency_micros.user.") + kOutcome[o]);
  }
  queries = registry->counter("query.executed");
  hits = registry->counter("query.memory_hits");
  misses = registry->counter("query.memory_misses");
  unproven_hits = registry->counter("query.unproven_hits");
  disk_term_reads = registry->counter("query.disk_term_reads");
}

QueryEngine::QueryEngine(MicroblogStore* store)
    : QueryEngine(std::vector<MicroblogStore*>{store}) {}

QueryEngine::QueryEngine(std::vector<MicroblogStore*> stores)
    : router_(stores.size()) {
  shards_.reserve(stores.size());
  for (MicroblogStore* store : stores) shards_.emplace_back(store);
}

uint64_t QueryEngine::DiskTermQueries() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.store->disk()->stats().term_queries;
  }
  return total;
}

void QueryEngine::MemoryPostings(MicroblogStore* store, TermId term,
                                 size_t limit, std::vector<Scored>* out) {
  std::vector<MicroblogId> ids;
  store->policy()->QueryTerm(term, limit, &ids, /*record_access=*/true);
  const RankingFunction* ranking = store->ranking();
  for (MicroblogId id : ids) {
    // Recompute the arrival-time score from the record; a record flushed
    // between the index read and here is simply skipped (its posting is
    // already registered on disk).
    store->raw_store()->With(id, [&](const Microblog& blog) {
      out->push_back({ranking->Score(blog), id});
    });
  }
}

Status QueryEngine::Materialize(std::vector<Scored> candidates, uint32_t k,
                                const std::vector<MicroblogStore*>& owners,
                                QueryResult* result) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id > b.id;
            });
  std::unordered_set<MicroblogId> seen;
  std::vector<std::vector<MicroblogId>> memory_ids(owners.size());
  for (const Scored& c : candidates) {
    if (result->results.size() >= k) break;
    if (!seen.insert(c.id).second) continue;
    // A record carries every term it was routed under, so its copy lives
    // on each owner that indexed it: resident there, or on that owner's
    // disk once fully evicted from it.
    bool found = false;
    for (size_t i = 0; i < owners.size() && !found; ++i) {
      auto blog = owners[i]->raw_store()->Get(c.id);
      if (blog.has_value()) {
        result->results.push_back(std::move(*blog));
        memory_ids[i].push_back(c.id);
        ++result->from_memory;
        found = true;
      }
    }
    for (size_t i = 0; i < owners.size() && !found; ++i) {
      Microblog from_disk;
      Status s = owners[i]->disk()->GetRecord(c.id, &from_disk);
      if (s.ok()) {
        result->results.push_back(std::move(from_disk));
        ++result->from_disk;
        found = true;
      } else if (!s.IsNotFound()) {
        return s;
      }
    }
    // Not found anywhere: the record is in flight between memory and disk
    // (flush buffer); skip it — the next candidate takes its place.
  }
  for (size_t i = 0; i < owners.size(); ++i) {
    owners[i]->policy()->OnResultAccess(memory_ids[i]);
  }
  return Status::OK();
}

Result<QueryResult> QueryEngine::EvaluateOnOwner(
    MicroblogStore* store, const std::vector<TermId>& terms, uint32_t k,
    bool force_disk, bool* unproven) {
  QueryResult result;
  std::vector<Scored> candidates;
  std::vector<TermId> disk_terms;  // terms whose disk top-k joins the answer
  bool all_k_filled = true;
  bool needs_proof = false;
  std::vector<Scored> mem;
  for (TermId term : terms) {
    mem.clear();
    MemoryPostings(store, term, k, &mem);
    if (mem.size() < k) {
      all_k_filled = false;
      disk_terms.push_back(term);
    } else if (force_disk) {
      disk_terms.push_back(term);
    } else {
      // The term's k-th memory posting must beat its best disk posting,
      // or the disk may hold part of the term's top-k.
      double kth = mem[0].score;
      for (const Scored& s : mem) kth = std::min(kth, s.score);
      if (!DiskCannotOutrank(store, term, kth)) {
        needs_proof = true;
        disk_terms.push_back(term);
      }
    }
    candidates.insert(candidates.end(), mem.begin(), mem.end());
  }
  // OR hit rule (§IV-D): every term holds k in memory (single: the term).
  result.memory_hit = all_k_filled && !force_disk;
  *unproven = result.memory_hit && needs_proof;
  for (TermId term : disk_terms) {
    std::vector<Posting> disk_postings;
    KFLUSH_RETURN_IF_ERROR(store->disk()->QueryTerm(term, k, &disk_postings));
    for (const Posting& p : disk_postings) {
      candidates.push_back({p.score, p.id});
    }
  }
  KFLUSH_RETURN_IF_ERROR(
      Materialize(std::move(candidates), k, {store}, &result));
  return result;
}

Result<QueryResult> QueryEngine::EvaluateOr(const std::vector<TermId>& terms,
                                            uint32_t k, bool force_disk,
                                            bool* unproven) {
  // Group terms by owning shard, preserving term order within a group and
  // first-touch order across groups.
  std::vector<std::vector<TermId>> groups(shards_.size());
  std::vector<size_t> order;
  for (TermId term : terms) {
    const size_t owner = router_.ShardForTerm(term);
    if (groups[owner].empty()) order.push_back(owner);
    groups[owner].push_back(term);
  }
  if (order.size() == 1) {
    // All terms colocated: the owning shard's answer IS the answer.
    return EvaluateOnOwner(shards_[order[0]].store, groups[order[0]], k,
                           force_disk, unproven);
  }

  QueryResult merged;
  merged.memory_hit = true;
  bool group_unproven = false;
  std::vector<std::vector<Microblog>> lists;
  lists.reserve(order.size());
  for (size_t owner : order) {
    bool needs_proof = false;
    Result<QueryResult> r = EvaluateOnOwner(shards_[owner].store,
                                            groups[owner], k, force_disk,
                                            &needs_proof);
    if (!r.ok()) return r.status();
    // The OR hit rule (every term holds >= k in memory) distributes over
    // the partition: the query is a hit iff every group is.
    merged.memory_hit = merged.memory_hit && r->memory_hit;
    group_unproven = group_unproven || needs_proof;
    merged.from_memory += r->from_memory;
    merged.from_disk += r->from_disk;
    lists.push_back(std::move(r->results));
  }
  *unproven = merged.memory_hit && group_unproven;

  const RankingFunction* ranking = shards_[0].store->ranking();
  merged.results = BoundedTopKMerge(
      lists, k,
      [&](const Microblog& a, const Microblog& b) {
        const double sa = ranking->Score(a);
        const double sb = ranking->Score(b);
        if (sa != sb) return sa > sb;
        return a.id > b.id;
      },
      [](const Microblog& a, const Microblog& b) { return a.id == b.id; });
  return merged;
}

Result<QueryResult> QueryEngine::EvaluateAnd(const std::vector<TermId>& terms,
                                             uint32_t k, bool force_disk,
                                             bool* unproven) {
  QueryResult result;
  std::vector<MicroblogStore*> term_owner(terms.size());
  std::vector<MicroblogStore*> owners;  // distinct, in term order
  for (size_t i = 0; i < terms.size(); ++i) {
    term_owner[i] = OwnerOf(terms[i]).store;
    if (std::find(owners.begin(), owners.end(), term_owner[i]) ==
        owners.end()) {
      owners.push_back(term_owner[i]);
    }
  }
  // Paper §IV-D: "we retrieve in-memory index entries of W1 and W2, scan
  // their microblog ids lists, and any microblog that is associated with
  // both W1 and W2 is added to Lm". "Associated with" is a property of
  // the record, so the memory-side candidate set is the union of the
  // lists filtered by record-term containment — a record trimmed from one
  // entry but still memory-resident through another (the Figure 6 case)
  // still qualifies.
  std::vector<std::vector<Scored>> lists(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    MemoryPostings(term_owner[i], terms[i], kNoLimit, &lists[i]);
  }
  std::unordered_set<MicroblogId> considered;
  std::vector<Scored> intersection;
  std::vector<TermId> record_terms;
  for (size_t i = 0; i < terms.size(); ++i) {
    MicroblogStore* store = term_owner[i];
    for (const Scored& s : lists[i]) {
      if (!considered.insert(s.id).second) continue;
      bool has_all = false;
      store->raw_store()->With(s.id, [&](const Microblog& blog) {
        record_terms.clear();
        store->extractor()->ExtractTerms(blog, &record_terms);
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
    // A qualifying record missing from every memory list has each of its
    // postings on disk, so it scores at most the smallest per-term disk
    // maximum; a term with no disk posting rules it out altogether.
    std::vector<double> scores;
    scores.reserve(intersection.size());
    for (const Scored& s : intersection) scores.push_back(s.score);
    std::nth_element(scores.begin(), scores.begin() + (k - 1), scores.end(),
                     std::greater<double>());
    const double kth = scores[k - 1];
    bool proven = false;
    for (size_t i = 0; i < terms.size() && !proven; ++i) {
      proven = DiskCannotOutrank(term_owner[i], terms[i], kth);
    }
    if (proven) {
      KFLUSH_RETURN_IF_ERROR(
          Materialize(std::move(intersection), k, owners, &result));
      return result;
    }
    *unproven = true;
  }
  // Exact: each term's full list as memory ∪ disk, intersected.
  std::vector<std::unordered_map<MicroblogId, double>> full(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    for (const Scored& s : lists[i]) full[i].emplace(s.id, s.score);
    std::vector<Posting> disk_postings;
    KFLUSH_RETURN_IF_ERROR(
        term_owner[i]->disk()->QueryTerm(terms[i], kNoLimit, &disk_postings));
    for (const Posting& p : disk_postings) full[i].emplace(p.id, p.score);
  }
  std::vector<Scored> candidates;
  for (const auto& [id, score] : full[0]) {
    bool in_all = true;
    for (size_t i = 1; i < full.size() && in_all; ++i) {
      in_all = full[i].count(id) != 0;
    }
    if (in_all) candidates.push_back({score, id});
  }
  KFLUSH_RETURN_IF_ERROR(
      Materialize(std::move(candidates), k, owners, &result));
  return result;
}

Result<QueryResult> QueryEngine::Execute(const TopKQuery& query) {
  if (query.terms.empty()) {
    return Status::InvalidArgument("query has no terms");
  }
  if (query.type == QueryType::kSingle && query.terms.size() != 1) {
    return Status::InvalidArgument("single query needs exactly 1 term");
  }
  // Resolved once here, so every shard visit sees the same k even if
  // SetK churns mid-flight.
  const uint32_t k = query.k != 0 ? query.k : shards_[0].store->k();
  if (k == 0) return Status::InvalidArgument("k must be positive");

  static const char* const kTypeName[] = {"single", "and", "or"};
  TraceSpan span("query", kTypeName[static_cast<int>(query.type)],
                 {TraceArg::Uint("terms", query.terms.size()),
                  TraceArg::Uint("k", k),
                  TraceArg::Uint("shards", shards_.size())});
  Stopwatch watch;
  const uint64_t disk_reads_before = DiskTermQueries();
  bool unproven = false;
  Result<QueryResult> result =
      query.type == QueryType::kAnd
          ? EvaluateAnd(query.terms, k, query.force_disk, &unproven)
          : EvaluateOr(query.terms, k, query.force_disk, &unproven);
  if (!result.ok()) {
    span.End({TraceArg::Str("outcome", "error")});
    return result;
  }
  const uint64_t disk_reads = DiskTermQueries() - disk_reads_before;
  const uint64_t micros = watch.ElapsedMicros();
  Shard& recorder = OwnerOf(query.terms[0]);
  const bool hit = result->memory_hit;
  recorder.latency_by_type[static_cast<int>(query.type)][hit ? 1 : 0]->Record(
      micros);
  recorder.queries->Increment();
  (hit ? recorder.hits : recorder.misses)->Increment();
  if (unproven) recorder.unproven_hits->Increment();
  recorder.disk_term_reads->Add(disk_reads);
  span.End({TraceArg::Str("outcome", hit ? "hit" : "miss"),
            TraceArg::Uint("unproven", unproven ? 1 : 0),
            TraceArg::Uint("from_memory", result->from_memory),
            TraceArg::Uint("from_disk", result->from_disk),
            TraceArg::Uint("disk_term_reads", disk_reads)});
  return result;
}

Result<QueryResult> QueryEngine::SearchKeywords(
    const std::vector<std::string>& keywords, QueryType type, uint32_t k) {
  TopKQuery query;
  query.type = keywords.size() == 1 ? QueryType::kSingle : type;
  query.k = k;
  for (const std::string& kw : keywords) {
    query.terms.push_back(shards_[0].store->TermForKeyword(kw));
  }
  return Execute(query);
}

void QueryEngine::RecordSurface(TermId term, bool spatial, bool memory_hit,
                                uint64_t micros) {
  Shard& recorder = OwnerOf(term);
  (spatial ? recorder.latency_spatial
           : recorder.latency_user)[memory_hit ? 1 : 0]
      ->Record(micros);
}

Result<QueryResult> QueryEngine::SearchLocation(double lat, double lon,
                                                uint32_t k) {
  TopKQuery query;
  query.type = QueryType::kSingle;
  query.k = k;
  query.terms.push_back(shards_[0].store->TermForLocation(lat, lon));
  Stopwatch watch;
  Result<QueryResult> result = Execute(query);
  if (result.ok()) {
    RecordSurface(query.terms[0], /*spatial=*/true, result->memory_hit,
                  watch.ElapsedMicros());
  }
  return result;
}

Result<QueryResult> QueryEngine::SearchArea(double min_lat, double min_lon,
                                            double max_lat, double max_lon,
                                            uint32_t k, size_t max_tiles,
                                            bool force_disk) {
  const auto* spatial =
      dynamic_cast<const SpatialAttribute*>(shards_[0].store->extractor());
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
  const uint32_t want = k != 0 ? k : shards_[0].store->k();
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

Result<QueryResult> QueryEngine::SearchUser(UserId user, uint32_t k) {
  TopKQuery query;
  query.type = QueryType::kSingle;
  query.k = k;
  query.terms.push_back(shards_[0].store->TermForUser(user));
  Stopwatch watch;
  Result<QueryResult> result = Execute(query);
  if (result.ok()) {
    RecordSurface(query.terms[0], /*spatial=*/false, result->memory_hit,
                  watch.ElapsedMicros());
  }
  return result;
}

}  // namespace kflush
