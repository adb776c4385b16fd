#include "core/query_engine.h"

#include <algorithm>
#include <limits>

#include "core/trace.h"
#include "index/spatial_grid.h"

namespace kflush {

namespace {
constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();
/// Cap on SearchArea's over-fetch factor: a box whose matching records are
/// outnumbered this badly by same-tile outsiders stops re-querying and
/// returns what it found.
constexpr uint32_t kMaxAreaOverfetch = 32;

/// The best score among `term`'s disk postings on `store`, or -infinity
/// when it has none there.
double DiskMax(MicroblogStore* store, TermId term) {
  double disk_max = 0.0;
  return store->disk()->MaxTermScore(term, &disk_max)
             ? disk_max
             : -std::numeric_limits<double>::infinity();
}

/// True when no disk posting of `term` can outrank a memory result
/// scoring `score`: the term has none on `store`'s disk, or its best one
/// scores strictly lower (an equal score may carry a higher id).
bool DiskCannotOutrank(MicroblogStore* store, TermId term, double score) {
  return score > DiskMax(store, term);
}

/// Appends up to `limit` of `term`'s disk postings on `store` to `out`,
/// counting the read in `*reads` (the query's own disk term reads).
Status ReadDiskTerm(MicroblogStore* store, TermId term, size_t limit,
                    std::vector<Posting>* out, uint64_t* reads) {
  ++*reads;
  return store->disk()->QueryTerm(term, limit, out);
}

/// The candidate source of a list that is complete before
/// materialization starts (single and OR).
struct NoMoreCandidates {
  bool Next(Posting*) { return false; }
};

/// AND, memory side (§IV-D's record-based rule): walks the union of the
/// query terms' in-memory lists in rank order and yields, once each, the
/// records that carry every query term. A record present in every term's
/// list qualifies without a record read. A record missing from term i's
/// list carries term i only through a disk posting, which scores at most
/// `disk_max[i]` (read after every list, -infinity when there is none),
/// so one scoring strictly above it is ruled out without a read. Any
/// other record is checked against the record on the owner of the first
/// list holding it (a record flushed meanwhile fails the check), and the
/// check is counted in `*record_reads`.
class MemoryUnionWalk {
 public:
  MemoryUnionWalk(const std::vector<std::vector<Posting>>& lists,
                  const std::vector<TermId>& terms,
                  const std::vector<MicroblogStore*>& term_owner,
                  const std::vector<double>& disk_max, uint64_t* record_reads)
      : lists_(lists),
        terms_(terms),
        term_owner_(term_owner),
        disk_max_(disk_max),
        record_reads_(record_reads),
        pos_(lists.size(), 0) {}

  bool Next(Posting* out) {
    const size_t n = lists_.size();
    while (true) {
      const Posting* best = nullptr;
      for (size_t i = 0; i < n; ++i) {
        if (pos_[i] < lists_[i].size() &&
            (best == nullptr || RanksBefore(lists_[i][pos_[i]], *best))) {
          best = &lists_[i][pos_[i]];
        }
      }
      if (best == nullptr) return false;
      const Posting head = *best;
      // A record has one score, so every list holding it has it at its
      // head now; step each of them past it.
      size_t holders = 0;
      size_t first = n;
      bool ruled_out = false;
      for (size_t i = 0; i < n; ++i) {
        const std::vector<Posting>& list = lists_[i];
        if (pos_[i] == list.size() || list[pos_[i]].id != head.id) {
          ruled_out = ruled_out || head.score > disk_max_[i];
          continue;
        }
        if (first == n) first = i;
        ++holders;
        while (pos_[i] < list.size() && list[pos_[i]].id == head.id) {
          ++pos_[i];
        }
      }
      if (holders == n ||
          (!ruled_out && CarriesEveryTerm(term_owner_[first], head.id))) {
        *out = head;
        return true;
      }
    }
  }

 private:
  bool CarriesEveryTerm(MicroblogStore* store, MicroblogId id) {
    ++*record_reads_;
    store->raw_store()->TermsOf(id, *store->extractor(), &record_terms_);
    return std::all_of(terms_.begin(), terms_.end(), [&](TermId t) {
      return std::find(record_terms_.begin(), record_terms_.end(), t) !=
             record_terms_.end();
    });
  }

  const std::vector<std::vector<Posting>>& lists_;
  const std::vector<TermId>& terms_;
  const std::vector<MicroblogStore*>& term_owner_;
  const std::vector<double>& disk_max_;
  uint64_t* record_reads_;
  std::vector<size_t> pos_;
  std::vector<TermId> record_terms_;
};

/// One AND term's postings over both tiers: its memory list and its disk
/// list, each in rank order, read as one rank-ordered list in which a
/// record present in both appears once.
class TermCursor {
 public:
  TermCursor(const std::vector<Posting>* memory,
             const std::vector<Posting>* disk)
      : memory_(memory), disk_(disk) {}

  bool done() const { return m_ == memory_->size() && d_ == disk_->size(); }

  /// The best-ranked posting not yet passed. Requires !done().
  const Posting& head() const {
    if (m_ == memory_->size()) return (*disk_)[d_];
    if (d_ == disk_->size()) return (*memory_)[m_];
    return RanksBefore((*disk_)[d_], (*memory_)[m_]) ? (*disk_)[d_]
                                                      : (*memory_)[m_];
  }

  /// Steps past head()'s record in both lists.
  void Next() {
    const MicroblogId id = head().id;
    while (m_ < memory_->size() && (*memory_)[m_].id == id) ++m_;
    while (d_ < disk_->size() && (*disk_)[d_].id == id) ++d_;
  }

  /// Steps past every posting that ranks before `target`. Linearly: each
  /// list was read whole, so a galloping seek could not beat the read
  /// that filled it.
  void SkipBefore(const Posting& target) {
    while (m_ < memory_->size() && RanksBefore((*memory_)[m_], target)) ++m_;
    while (d_ < disk_->size() && RanksBefore((*disk_)[d_], target)) ++d_;
  }

 private:
  const std::vector<Posting>* memory_;
  const std::vector<Posting>* disk_;
  size_t m_ = 0;
  size_t d_ = 0;
};

/// AND, exact: leapfrog intersection of the terms' cursors, yielding the
/// records common to all of them in rank order.
class CursorIntersection {
 public:
  explicit CursorIntersection(std::vector<TermCursor> cursors)
      : cursors_(std::move(cursors)) {}

  bool Next(Posting* out) {
    while (true) {
      // The worst-ranked head is the best record every cursor could
      // still share: seek all of them to it.
      const Posting* worst = nullptr;
      for (const TermCursor& c : cursors_) {
        if (c.done()) return false;
        if (worst == nullptr || RanksBefore(*worst, c.head())) {
          worst = &c.head();
        }
      }
      const Posting target = *worst;
      bool common = true;
      for (TermCursor& c : cursors_) {
        c.SkipBefore(target);
        if (c.done()) return false;
        common = common && c.head().id == target.id;
      }
      if (common) {
        for (TermCursor& c : cursors_) c.Next();
        *out = target;
        return true;
      }
    }
  }

 private:
  std::vector<TermCursor> cursors_;
};

/// Fetches the answer: `ranked` (distinct records, in rank order), then
/// whatever `more` yields, until k records are found. Each record comes
/// from the first of `owners` whose raw store, else disk, else flush
/// buffer holds it; a buffer hit counts under from_disk. An evicted
/// record moves raw store -> buffer atomically for readers and leaves the
/// buffer only once the disk acknowledged it, so a record a concurrent
/// flush is moving is in the buffer, or — if its write was acknowledged
/// after the disk probe — on the disk at a second probe. Disk-resident
/// records never take the buffer lock.
template <typename Source>
Status Materialize(const std::vector<Posting>& ranked, Source* more,
                   uint32_t k, const std::vector<MicroblogStore*>& owners,
                   QueryResult* result) {
  std::vector<std::vector<MicroblogId>> memory_ids(owners.size());
  Posting extra;
  bool found = false;
  auto from_disk = [&](MicroblogId id) -> Status {
    for (size_t i = 0; i < owners.size() && !found; ++i) {
      Microblog blog;
      Status s = owners[i]->disk()->GetRecord(id, &blog);
      if (s.ok()) {
        result->results.push_back(std::move(blog));
        ++result->from_disk;
        found = true;
      } else if (!s.IsNotFound()) {
        return s;
      }
    }
    return Status::OK();
  };
  for (size_t next = 0; result->results.size() < k; ++next) {
    const Posting* c = &extra;
    if (next < ranked.size()) {
      c = &ranked[next];
    } else if (!more->Next(&extra)) {
      break;
    }
    // A record carries every term it was routed under, so its copy lives
    // on each owner that indexed it: resident there, or on that owner's
    // disk once fully evicted from it.
    found = false;
    for (size_t i = 0; i < owners.size() && !found; ++i) {
      auto blog = owners[i]->raw_store()->Get(c->id);
      if (blog.has_value()) {
        result->results.push_back(std::move(*blog));
        memory_ids[i].push_back(c->id);
        ++result->from_memory;
        found = true;
      }
    }
    if (!found) KFLUSH_RETURN_IF_ERROR(from_disk(c->id));
    for (size_t i = 0; i < owners.size() && !found; ++i) {
      Microblog flushed;
      if (owners[i]->flush_buffer().Get(c->id, &flushed)) {
        result->results.push_back(std::move(flushed));
        ++result->from_disk;
        found = true;
      }
    }
    if (!found) KFLUSH_RETURN_IF_ERROR(from_disk(c->id));
  }
  for (size_t i = 0; i < owners.size(); ++i) {
    owners[i]->policy()->OnResultAccess(memory_ids[i]);
  }
  return Status::OK();
}

/// Pulls candidates from `source` until `out` holds k of them.
template <typename Source>
void TakeTopK(Source* source, uint32_t k, std::vector<Posting>* out) {
  Posting p;
  while (out->size() < k && source->Next(&p)) out->push_back(p);
}
}  // namespace

QueryEngine::Cost::Cost() : start(MonotonicMicros()), last(start) {}

void QueryEngine::Cost::Charge(Stage stage) {
  const Timestamp now = MonotonicMicros();
  stage_micros[stage] += now - last;
  last = now;
}

QueryEngine::Shard::Shard(MicroblogStore* s) : store(s) {
  MetricsRegistry* registry = store->metrics_registry();
  static constexpr const char* kOutcome[2] = {"miss", "hit"};
  static constexpr const char* kStageName[kNumStages] = {
      "postings", "disk", "merge", "materialize"};
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
  for (int stage = 0; stage < kNumStages; ++stage) {
    stage_micros[stage] = registry->histogram(
        std::string("query.stage_micros.") + kStageName[stage]);
  }
  queries = registry->counter("query.executed");
  hits = registry->counter("query.memory_hits");
  misses = registry->counter("query.memory_misses");
  unproven_hits = registry->counter("query.unproven_hits");
  disk_term_reads = registry->counter("query.disk_term_reads");
  and_record_reads = registry->counter("query.and_record_reads");
}

QueryEngine::QueryEngine(MicroblogStore* store)
    : QueryEngine(std::vector<MicroblogStore*>{store}) {}

QueryEngine::QueryEngine(std::vector<MicroblogStore*> stores)
    : router_(stores.size()) {
  shards_.reserve(stores.size());
  for (MicroblogStore* store : stores) shards_.emplace_back(store);
}

Result<QueryResult> QueryEngine::EvaluateOr(
    const std::vector<TermId>& terms,
    const std::vector<MicroblogStore*>& term_owner,
    const std::vector<MicroblogStore*>& owners, uint32_t k, bool force_disk,
    Cost* cost) {
  QueryResult result;
  // Each term's best k memory postings, read on its owner, scores
  // included; term i's are candidates[ends[i - 1], ends[i]).
  std::vector<Posting> candidates;
  std::vector<size_t> ends(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    term_owner[i]->policy()->QueryTerm(terms[i], k, &candidates);
    ends[i] = candidates.size();
  }
  cost->Charge(kPostings);

  std::vector<size_t> disk_terms;  // positions whose disk top-k joins in
  bool all_k_filled = true;
  bool needs_proof = false;
  bool checked_disk = false;
  for (size_t i = 0; i < terms.size(); ++i) {
    const size_t held = ends[i] - (i == 0 ? 0 : ends[i - 1]);
    if (held < k) {
      all_k_filled = false;
      disk_terms.push_back(i);
    } else if (force_disk) {
      disk_terms.push_back(i);
    } else {
      // The term's k-th memory posting must beat its best disk posting,
      // or the disk may hold part of the term's top-k.
      checked_disk = true;
      if (!DiskCannotOutrank(term_owner[i], terms[i],
                             candidates[ends[i] - 1].score)) {
        needs_proof = true;
        disk_terms.push_back(i);
      }
    }
  }
  // OR hit rule (§IV-D): every term holds k in memory (single: the term).
  result.memory_hit = all_k_filled && !force_disk;
  cost->unproven = result.memory_hit && needs_proof;
  for (size_t i : disk_terms) {
    KFLUSH_RETURN_IF_ERROR(ReadDiskTerm(term_owner[i], terms[i], k,
                                        &candidates, &cost->disk_term_reads));
  }
  if (checked_disk || !disk_terms.empty()) cost->Charge(kDisk);

  std::sort(candidates.begin(), candidates.end(), RanksBefore);
  // A record under two of the terms (or on both tiers) has one score, so
  // its postings sit in a row: keep one.
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const Posting& a, const Posting& b) {
                                 return a.id == b.id;
                               }),
                   candidates.end());
  cost->Charge(kMerge);

  NoMoreCandidates none;
  KFLUSH_RETURN_IF_ERROR(Materialize(candidates, &none, k, owners, &result));
  cost->Charge(kMaterialize);
  return result;
}

Result<QueryResult> QueryEngine::EvaluateAnd(
    const std::vector<TermId>& terms,
    const std::vector<MicroblogStore*>& term_owner,
    const std::vector<MicroblogStore*>& owners, uint32_t k, bool force_disk,
    Cost* cost) {
  QueryResult result;
  // Every term's whole in-memory list. Read under force_disk too: the
  // exact path below needs it, and the read stamps the term's last-query
  // time (kFlushing Phase 3's key).
  std::vector<std::vector<Posting>> memory(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    term_owner[i]->policy()->QueryTerm(terms[i], kNoLimit, &memory[i]);
  }
  cost->Charge(kPostings);

  std::vector<Posting> top;
  if (!force_disk) {
    // Each term's best disk score, read on its owner after every memory
    // list: a posting leaves a memory list only once it is on disk, so a
    // record missing from a list read earlier and carrying that term is
    // covered by the maximum read here.
    std::vector<double> disk_max(terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      disk_max[i] = DiskMax(term_owner[i], terms[i]);
    }
    cost->Charge(kDisk);
    // Paper §IV-D: "we retrieve in-memory index entries of W1 and W2, scan
    // their microblog ids lists, and any microblog that is associated with
    // both W1 and W2 is added to Lm". "Associated with" is a property of
    // the record, so the memory-side candidates are the union of the
    // lists filtered by record-term containment — a record trimmed from
    // one entry but still memory-resident through another (the Figure 6
    // case) still qualifies. Walked in rank order, the first k of them
    // are their top-k.
    MemoryUnionWalk walk(memory, terms, term_owner, disk_max,
                         &cost->and_record_reads);
    TakeTopK(&walk, k, &top);
    cost->Charge(kMerge);
    // AND hit rule: the in-memory candidate list already yields k results.
    result.memory_hit = top.size() == k;
    if (result.memory_hit) {
      // A qualifying record missing from every memory list has each of
      // its postings on disk, so it scores at most the smallest per-term
      // disk maximum; a term with no disk posting rules it out altogether.
      const double kth = top.back().score;
      const bool proven =
          std::any_of(disk_max.begin(), disk_max.end(),
                      [kth](double max) { return kth > max; });
      if (proven) {
        KFLUSH_RETURN_IF_ERROR(Materialize(top, &walk, k, owners, &result));
        cost->Charge(kMaterialize);
        return result;
      }
      cost->unproven = true;
    }
    top.clear();
  }
  // Exact: each term's memory and disk lists merge into one rank-ordered
  // cursor, and the cursors intersect up to the k-th common record. Disk
  // lists are read whole, one read per term.
  std::vector<std::vector<Posting>> disk(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    KFLUSH_RETURN_IF_ERROR(ReadDiskTerm(term_owner[i], terms[i], kNoLimit,
                                        &disk[i], &cost->disk_term_reads));
  }
  cost->Charge(kDisk);
  std::vector<TermCursor> cursors;
  cursors.reserve(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    cursors.emplace_back(&memory[i], &disk[i]);
  }
  CursorIntersection common(std::move(cursors));
  TakeTopK(&common, k, &top);
  cost->Charge(kMerge);
  KFLUSH_RETURN_IF_ERROR(Materialize(top, &common, k, owners, &result));
  cost->Charge(kMaterialize);
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
  Cost cost;
  // Each term's owner, and the distinct owners in term order: where its
  // postings are read, and where the answer's records are fetched.
  std::vector<MicroblogStore*> term_owner(query.terms.size());
  std::vector<MicroblogStore*> owners;
  for (size_t i = 0; i < query.terms.size(); ++i) {
    term_owner[i] = OwnerOf(query.terms[i]).store;
    if (std::find(owners.begin(), owners.end(), term_owner[i]) ==
        owners.end()) {
      owners.push_back(term_owner[i]);
    }
  }
  Result<QueryResult> result =
      query.type == QueryType::kAnd
          ? EvaluateAnd(query.terms, term_owner, owners, k, query.force_disk,
                        &cost)
          : EvaluateOr(query.terms, term_owner, owners, k, query.force_disk,
                       &cost);
  if (!result.ok()) {
    span.End({TraceArg::Str("outcome", "error")});
    return result;
  }
  const uint64_t micros = cost.last - cost.start;
  Shard& recorder = OwnerOf(query.terms[0]);
  const bool hit = result->memory_hit;
  recorder.latency_by_type[static_cast<int>(query.type)][hit ? 1 : 0]->Record(
      micros);
  for (int stage = 0; stage < kNumStages; ++stage) {
    recorder.stage_micros[stage]->Record(cost.stage_micros[stage]);
  }
  recorder.queries->Increment();
  (hit ? recorder.hits : recorder.misses)->Increment();
  if (cost.unproven) recorder.unproven_hits->Increment();
  recorder.disk_term_reads->Add(cost.disk_term_reads);
  recorder.and_record_reads->Add(cost.and_record_reads);
  span.End({TraceArg::Str("outcome", hit ? "hit" : "miss"),
            TraceArg::Uint("unproven", cost.unproven ? 1 : 0),
            TraceArg::Uint("from_memory", result->from_memory),
            TraceArg::Uint("from_disk", result->from_disk),
            TraceArg::Uint("disk_term_reads", cost.disk_term_reads)});
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
  // top-k materialization, which can under-fill the answer even when k
  // matching records exist.
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
