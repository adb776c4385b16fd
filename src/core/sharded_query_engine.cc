#include "core/sharded_query_engine.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "core/topk_merge.h"
#include "core/trace.h"

namespace kflush {

namespace {
constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();
}  // namespace

ShardedQueryEngine::ShardedQueryEngine(std::vector<QueryEngine*> shards)
    : QueryEngineBase(shards[0]->store()),
      shards_(std::move(shards)),
      router_(shards_.size()) {}

uint64_t ShardedQueryEngine::DiskTermQueries() const {
  uint64_t total = 0;
  for (QueryEngine* shard : shards_) {
    total += shard->store()->disk()->stats().term_queries;
  }
  return total;
}

Result<QueryResult> ShardedQueryEngine::Evaluate(const TopKQuery& query,
                                                 uint32_t k) {
  static const char* const kTypeName[] = {"single", "and", "or"};
  TraceSpan span("query", "fanout",
                 {TraceArg::Str("type", kTypeName[static_cast<int>(query.type)]),
                  TraceArg::Uint("terms", query.terms.size()),
                  TraceArg::Uint("k", k),
                  TraceArg::Uint("shards", shards_.size())});

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    switch (query.type) {
      case QueryType::kSingle: {
        QueryEngine* owner = shards_[router_.ShardForTerm(query.terms[0])];
        return owner->Evaluate(query, k);
      }
      case QueryType::kOr:
        return ExecuteOrFanout(query.terms, k, query.force_disk);
      case QueryType::kAnd:
        // Already exact over each term's full memory ∪ disk list;
        // force_disk has nothing further to bypass.
        return ExecuteAndExact(query.terms, k);
    }
    return Status::InvalidArgument("unknown query type");
  }();

  if (result.ok()) {
    span.End({TraceArg::Str("outcome", result->memory_hit ? "hit" : "miss"),
              TraceArg::Uint("results", result->results.size())});
  } else {
    span.End({TraceArg::Str("outcome", "error")});
  }
  return result;
}

Result<QueryResult> ShardedQueryEngine::ExecuteOrFanout(
    const std::vector<TermId>& terms, uint32_t k, bool force_disk) {
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
    // All terms colocated: the owning shard's OR answer IS the answer.
    TopKQuery sub;
    sub.terms = std::move(groups[order[0]]);
    sub.type = QueryType::kOr;
    sub.force_disk = force_disk;
    return shards_[order[0]]->Evaluate(sub, k);
  }

  QueryResult merged;
  merged.memory_hit = true;
  std::vector<std::vector<Microblog>> lists;
  lists.reserve(order.size());
  for (size_t owner : order) {
    TopKQuery sub;
    sub.terms = std::move(groups[owner]);
    sub.type = QueryType::kOr;
    sub.force_disk = force_disk;
    Result<QueryResult> r = shards_[owner]->Evaluate(sub, k);
    if (!r.ok()) return r.status();
    // The OR hit rule (every term holds >= k in memory) distributes over
    // the partition: the union's top-k is memory-guaranteed iff every
    // shard's group is.
    merged.memory_hit = merged.memory_hit && r->memory_hit;
    merged.from_memory += r->from_memory;
    merged.from_disk += r->from_disk;
    lists.push_back(std::move(r->results));
  }

  const RankingFunction* ranking = shards_[0]->store()->ranking();
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

Result<QueryResult> ShardedQueryEngine::ExecuteAndExact(
    const std::vector<TermId>& terms, uint32_t k) {
  const RankingFunction* ranking = shards_[0]->store()->ranking();
  const size_t n = terms.size();
  // Each term's complete posting set, memory ∪ disk, from its owner. The
  // memory ∪ disk union is complete by the system invariant ("answers are
  // always accurate"): every posting is in the owner's index or was
  // registered on its disk when dropped.
  std::vector<std::unordered_map<MicroblogId, double>> full(n);
  std::vector<std::unordered_set<MicroblogId>> in_memory(n);
  for (size_t i = 0; i < n; ++i) {
    MicroblogStore* store = shards_[router_.ShardForTerm(terms[i])]->store();
    std::vector<MicroblogId> ids;
    store->policy()->QueryTerm(terms[i], kNoLimit, &ids,
                               /*record_access=*/true);
    for (MicroblogId id : ids) {
      store->raw_store()->With(id, [&](const Microblog& blog) {
        full[i].emplace(id, ranking->Score(blog));
        in_memory[i].insert(id);
      });
    }
    std::vector<Posting> disk_postings;
    KFLUSH_RETURN_IF_ERROR(
        store->disk()->QueryTerm(terms[i], kNoLimit, &disk_postings));
    for (const Posting& p : disk_postings) full[i].emplace(p.id, p.score);
  }

  QueryResult result;
  std::vector<Scored> candidates;
  size_t memory_candidates = 0;
  for (const auto& [id, score] : full[0]) {
    bool in_all = true;
    bool mem_all = in_memory[0].count(id) != 0;
    for (size_t i = 1; i < n && in_all; ++i) {
      in_all = full[i].count(id) != 0;
      mem_all = mem_all && in_memory[i].count(id) != 0;
    }
    if (!in_all) continue;
    candidates.push_back({score, id});
    if (mem_all) ++memory_candidates;
  }
  // Hit predicate (metric only — the answer below is exact either way):
  // the intersection of the in-memory lists alone yields k results.
  result.memory_hit = memory_candidates >= k;

  std::sort(candidates.begin(), candidates.end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id > b.id;
            });

  // Materialize from the owning shards: an AND result contains every
  // query term, so its record copy lives on each term's owner — resident
  // there, or on that owner's disk once fully evicted from it.
  std::vector<size_t> owners;
  for (TermId term : terms) {
    const size_t owner = router_.ShardForTerm(term);
    if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
      owners.push_back(owner);
    }
  }
  std::vector<std::vector<MicroblogId>> touched(shards_.size());
  for (const Scored& c : candidates) {
    if (result.results.size() >= k) break;
    bool materialized = false;
    for (size_t owner : owners) {
      auto blog = shards_[owner]->store()->raw_store()->Get(c.id);
      if (blog.has_value()) {
        result.results.push_back(std::move(*blog));
        touched[owner].push_back(c.id);
        ++result.from_memory;
        materialized = true;
        break;
      }
    }
    if (materialized) continue;
    for (size_t owner : owners) {
      Microblog from_disk;
      Status s = shards_[owner]->store()->disk()->GetRecord(c.id, &from_disk);
      if (s.ok()) {
        result.results.push_back(std::move(from_disk));
        ++result.from_disk;
        materialized = true;
        break;
      }
      if (!s.IsNotFound()) return s;
    }
    // All NotFound: the record is in flight through a flush buffer; the
    // next candidate takes its place (same rule as Materialize()).
  }
  for (size_t owner = 0; owner < shards_.size(); ++owner) {
    if (!touched[owner].empty()) {
      shards_[owner]->store()->policy()->OnResultAccess(touched[owner]);
    }
  }
  return result;
}

}  // namespace kflush
