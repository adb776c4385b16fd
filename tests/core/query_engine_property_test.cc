// Property tests for query evaluation (core/query_engine.h). Each seed
// places a random set of records over the two tiers term by term — a
// record's posting under a term is in memory, on disk, or in both — with
// scores drawn from a small range so equal-score runs are common, and
// then runs random queries against the same placement deployed over 1, 2
// and 4 shards: AND queries of 2-4 terms, and single and OR queries of
// 1-4 terms, each sometimes repeating a term, with k above and below the
// number of qualifying records and sometimes force_disk. Every answer
// must equal the brute-force top-k of the records carrying every (AND)
// or any (single, OR) query term, each returned record must be counted
// once, from memory or from disk, and memory_hit, query.unproven_hits
// and the disk term reads must follow the documented rules, computed
// here by brute force. On failure the message carries the seed, the
// shard count and the query.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "../testing/test_util.h"
#include "core/query_engine.h"
#include "core/sharded_store.h"
#include "util/random.h"

namespace kflush {
namespace {

constexpr uint64_t kSeeds = 1000;
constexpr TermId kVocabulary = 6;
constexpr size_t kQueriesPerSeed = 4;

enum class Tier { kMemory, kDisk, kBoth };

struct Record {
  Microblog blog;
  double score = 0.0;
  /// tiers[i] places the posting of blog.keywords[i].
  std::vector<Tier> tiers;

  bool Carries(TermId term) const {
    return std::find(blog.keywords.begin(), blog.keywords.end(), term) !=
           blog.keywords.end();
  }
  /// Tier of this record's posting under `term`; requires Carries(term).
  Tier TierOf(TermId term) const {
    const auto it =
        std::find(blog.keywords.begin(), blog.keywords.end(), term);
    return tiers[static_cast<size_t>(it - blog.keywords.begin())];
  }
};

bool RecordRanksBefore(const Record* a, const Record* b) {
  if (a->score != b->score) return a->score > b->score;
  return a->blog.id > b->blog.id;
}

std::vector<Record> MakeRecords(Rng* rng) {
  std::vector<Record> records(5 + rng->Uniform(40));
  for (size_t i = 0; i < records.size(); ++i) {
    Record& r = records[i];
    // Few distinct timestamps: temporal scores tie often.
    r.blog = testing_util::MakeBlog(i + 1, 1 + rng->Uniform(12), {});
    r.score = static_cast<double>(r.blog.created_at);
    std::vector<TermId> terms;
    for (TermId t = 1; t <= kVocabulary; ++t) terms.push_back(t);
    // Partial Fisher-Yates: 1-4 distinct terms, low ids more likely to
    // be kept so intersections are not all empty.
    const size_t n = 1 + rng->Uniform(4);
    for (size_t j = 0; j < n; ++j) {
      const size_t pick = j + rng->Uniform(std::min<uint64_t>(
                                  terms.size() - j, 2 + rng->Uniform(4)));
      std::swap(terms[j], terms[pick]);
      r.blog.keywords.push_back(static_cast<KeywordId>(terms[j]));
      const uint64_t draw = rng->Uniform(100);
      r.tiers.push_back(draw < 50   ? Tier::kMemory
                        : draw < 85 ? Tier::kDisk
                                    : Tier::kBoth);
    }
  }
  return records;
}

/// Deploys `records` over `shards` shards, posting by posting: memory
/// postings are indexed by the owner's policy (the record resident there),
/// disk postings registered on the owner's disk, and a record with no
/// memory posting on an owner is written to that owner's disk.
void Deploy(const std::vector<Record>& records, ShardedMicroblogStore* store) {
  const size_t shards = store->num_shards();
  for (const Record& r : records) {
    std::vector<std::vector<TermId>> memory_terms(shards), disk_terms(shards);
    std::vector<bool> owns(shards, false);
    for (size_t i = 0; i < r.blog.keywords.size(); ++i) {
      const TermId term = r.blog.keywords[i];
      const size_t owner = store->router().ShardForTerm(term);
      owns[owner] = true;
      if (r.tiers[i] != Tier::kDisk) memory_terms[owner].push_back(term);
      if (r.tiers[i] != Tier::kMemory) disk_terms[owner].push_back(term);
    }
    for (size_t s = 0; s < shards; ++s) {
      if (!owns[s]) continue;
      MicroblogStore* shard = store->shard(s);
      if (!memory_terms[s].empty()) {
        ASSERT_TRUE(shard->raw_store()
                        ->Put(r.blog,
                              static_cast<uint32_t>(memory_terms[s].size()))
                        .ok());
        shard->policy()->Insert(r.blog, memory_terms[s], r.score);
      } else {
        ASSERT_TRUE(shard->disk()->WriteBatch({r.blog}).ok());
      }
      for (TermId term : disk_terms[s]) {
        ASSERT_TRUE(
            shard->disk()->AddPostings(term, {{r.blog.id, r.score}}).ok());
      }
    }
  }
}

struct Query {
  QueryType type = QueryType::kAnd;
  std::vector<TermId> terms;
  uint32_t k = 0;
  bool force_disk = false;
};

/// Appends a term drawn by `draw` until `q` has `n` terms; a term already
/// drawn is kept with probability 0.3, so some queries repeat one.
template <typename Draw>
void DrawTerms(Rng* rng, size_t n, Draw draw, Query* q) {
  while (q->terms.size() < n) {
    const TermId t = draw();
    if (std::find(q->terms.begin(), q->terms.end(), t) == q->terms.end() ||
        rng->Bernoulli(0.3)) {
      q->terms.push_back(t);
    }
  }
}

/// An AND of 2-4 of the likeliest-kept terms.
Query DrawAndQuery(Rng* rng) {
  Query q;
  q.type = QueryType::kAnd;
  DrawTerms(rng, 2 + rng->Uniform(3), [&] { return 1 + rng->Uniform(3); },
            &q);
  q.k = 1 + static_cast<uint32_t>(rng->Uniform(6));
  q.force_disk = rng->Bernoulli(0.2);
  return q;
}

/// A single term, or an OR of 2-4 terms over the whole vocabulary, so
/// that rarely kept terms make misses.
Query DrawOrQuery(Rng* rng) {
  Query q;
  const size_t n = 1 + rng->Uniform(4);
  q.type = n == 1 ? QueryType::kSingle : QueryType::kOr;
  DrawTerms(rng, n, [&] { return 1 + rng->Uniform(kVocabulary); }, &q);
  q.k = 1 + static_cast<uint32_t>(rng->Uniform(6));
  q.force_disk = rng->Bernoulli(0.2);
  return q;
}

/// What the documented rules say one query returns and records.
struct Expected {
  std::vector<MicroblogId> ids;
  bool memory_hit = false;
  bool unproven = false;
  /// The records that qualify: the AND's intersection, the OR's union.
  size_t qualifying = 0;
  /// Disk term reads (computed for single and OR).
  uint64_t disk_term_reads = 0;
};

Expected BruteForceAnd(const std::vector<Record>& records,
                       const std::vector<TermId>& terms, uint32_t k,
                       bool force_disk) {
  std::vector<const Record*> common;  // carries every query term
  std::vector<const Record*> memory;  // ... and sits in some term's memory
  for (const Record& r : records) {
    if (!std::all_of(terms.begin(), terms.end(),
                     [&](TermId t) { return r.Carries(t); })) {
      continue;
    }
    common.push_back(&r);
    if (std::any_of(terms.begin(), terms.end(), [&](TermId t) {
          return r.TierOf(t) != Tier::kDisk;
        })) {
      memory.push_back(&r);
    }
  }
  std::sort(common.begin(), common.end(), RecordRanksBefore);
  std::sort(memory.begin(), memory.end(), RecordRanksBefore);

  Expected e;
  e.qualifying = common.size();
  for (size_t i = 0; i < common.size() && i < k; ++i) {
    e.ids.push_back(common[i]->blog.id);
  }
  // §IV-D's record-based rule.
  e.memory_hit = !force_disk && memory.size() >= k;
  bool proven = false;
  if (e.memory_hit) {
    // Proven when some term has no disk posting that ties or outranks
    // the memory side's k-th score.
    const double kth = memory[k - 1]->score;
    for (TermId t : terms) {
      bool disk_reaches = false;
      for (const Record& r : records) {
        if (r.Carries(t) && r.TierOf(t) != Tier::kMemory && r.score >= kth) {
          disk_reaches = true;
        }
      }
      proven = proven || !disk_reaches;
    }
  }
  e.unproven = e.memory_hit && !proven;
  return e;
}

/// Single is the one-term OR. The rules hold per term position, so a
/// repeated term counts, and reads the disk, once per position.
Expected BruteForceOr(const std::vector<Record>& records, const Query& q) {
  Expected e;
  std::vector<const Record*> any;  // carries some query term
  for (const Record& r : records) {
    if (std::any_of(q.terms.begin(), q.terms.end(),
                    [&](TermId t) { return r.Carries(t); })) {
      any.push_back(&r);
    }
  }
  std::sort(any.begin(), any.end(), RecordRanksBefore);
  e.qualifying = any.size();
  for (size_t i = 0; i < any.size() && i < q.k; ++i) {
    e.ids.push_back(any[i]->blog.id);
  }

  bool all_k_filled = true;
  bool some_unproven = false;
  for (TermId t : q.terms) {
    std::vector<const Record*> memory;
    bool on_disk = false;
    double disk_max = 0.0;
    for (const Record& r : records) {
      if (!r.Carries(t)) continue;
      if (r.TierOf(t) != Tier::kDisk) memory.push_back(&r);
      if (r.TierOf(t) != Tier::kMemory) {
        disk_max = on_disk ? std::max(disk_max, r.score) : r.score;
        on_disk = true;
      }
    }
    std::sort(memory.begin(), memory.end(), RecordRanksBefore);
    if (memory.size() < q.k) {
      all_k_filled = false;
      ++e.disk_term_reads;
    } else if (q.force_disk) {
      ++e.disk_term_reads;
    } else if (on_disk && disk_max >= memory[q.k - 1]->score) {
      // The term's best disk posting ties or outranks its k-th memory
      // posting: memory cannot prove the term's top-k.
      some_unproven = true;
      ++e.disk_term_reads;
    }
  }
  // §IV-D: every term holds k postings in memory.
  e.memory_hit = !q.force_disk && all_k_filled;
  e.unproven = e.memory_hit && some_unproven;
  return e;
}

std::string Describe(uint64_t seed, size_t shards, const Query& q) {
  std::string s = "seed " + std::to_string(seed) + " shards " +
                  std::to_string(shards) + " " + QueryTypeName(q.type) + "(";
  for (size_t i = 0; i < q.terms.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(q.terms[i]);
  }
  s += ") k=" + std::to_string(q.k);
  if (q.force_disk) s += " force_disk";
  return s;
}

/// One Execute's answer and the counters it moved.
struct Observed {
  std::vector<MicroblogId> ids;
  bool memory_hit = false;
  uint64_t unproven_hits = 0;
  uint64_t disk_term_reads = 0;
  /// The disk tier's own count of term reads.
  uint64_t disk_term_queries = 0;
};

/// Executes `q`. Every returned record must be the deployed one, and
/// each must be counted once, from memory or from disk.
void Run(ShardedMicroblogStore* store, const std::vector<Record>& records,
         const Query& q, const std::string& label, Observed* out) {
  const MetricsSnapshot before = store->AggregatedMetrics();
  TopKQuery query;
  query.type = q.type;
  query.terms = q.terms;
  query.k = q.k;
  query.force_disk = q.force_disk;
  auto result = store->engine()->Execute(query);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  const MetricsSnapshot after = store->AggregatedMetrics();

  for (const Microblog& blog : result->results) {
    const Record& r = records[blog.id - 1];
    ASSERT_EQ(blog.created_at, r.blog.created_at) << label;
    ASSERT_EQ(blog.keywords, r.blog.keywords) << label;
    out->ids.push_back(blog.id);
  }
  ASSERT_EQ(result->from_memory + result->from_disk, result->results.size())
      << label;
  out->memory_hit = result->memory_hit;
  const auto delta = [&](const char* name) {
    return after.counter_or(name) - before.counter_or(name);
  };
  out->unproven_hits = delta("query.unproven_hits");
  out->disk_term_reads = delta("query.disk_term_reads");
  out->disk_term_queries = delta("disk.term_queries");
}

/// For each seed: draws its records and kQueriesPerSeed queries with
/// `draw`, deploys the records over 1, 2 and 4 shards, and hands every
/// query's observed run on each deployment to `check(records, store,
/// query, observed, label)`.
template <typename Draw, typename Check>
void ForEachSeed(Draw draw, Check check) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    const std::vector<Record> records = MakeRecords(&rng);
    std::vector<Query> queries(kQueriesPerSeed);
    for (Query& q : queries) q = draw(&rng);

    for (size_t shards : {1, 2, 4}) {
      ShardedStoreOptions options;
      options.store = testing_util::SmallStoreOptions(PolicyKind::kKFlushing,
                                                      64 << 20, /*k=*/3);
      options.num_shards = shards;
      ShardedMicroblogStore store(options);
      Deploy(records, &store);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;

      for (const Query& q : queries) {
        const std::string label = Describe(seed, shards, q);
        Observed got;
        Run(&store, records, q, label, &got);
        if (::testing::Test::HasFatalFailure()) return;
        check(records, store, q, got, label);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(QueryEngineAndPropertyTest, AnswersEqualBruteForceTopK) {
  // Branch coverage, so a generator change cannot silently stop
  // exercising a case the rules distinguish.
  uint64_t proven_hits = 0, unproven_hits = 0, misses = 0, forced = 0;
  uint64_t k_above = 0, k_below = 0, repeated = 0, both_tiers = 0;
  ForEachSeed(DrawAndQuery, [&](const std::vector<Record>& records,
                                const ShardedMicroblogStore& store,
                                const Query& q, const Observed& got,
                                const std::string& label) {
    const std::set<TermId> distinct(q.terms.begin(), q.terms.end());
    const Expected want = BruteForceAnd(
        records, std::vector<TermId>(distinct.begin(), distinct.end()), q.k,
        q.force_disk);

    ASSERT_EQ(got.ids, want.ids) << label;
    ASSERT_EQ(got.memory_hit, want.memory_hit) << label;
    ASSERT_EQ(got.unproven_hits, want.unproven ? 1u : 0u) << label;
    // A proven hit reads no disk list; the exact path reads each term
    // position's list once, and the disk tier counts the same reads.
    const bool proven_hit = want.memory_hit && !want.unproven;
    ASSERT_EQ(got.disk_term_reads, proven_hit ? 0u : q.terms.size())
        << label;
    ASSERT_EQ(got.disk_term_queries, got.disk_term_reads) << label;

    if (store.num_shards() != 1) return;  // count each case once
    if (q.force_disk) {
      ++forced;
    } else if (!want.memory_hit) {
      ++misses;
    } else {
      ++(want.unproven ? unproven_hits : proven_hits);
    }
    ++(q.k > want.qualifying ? k_above : k_below);
    if (distinct.size() < q.terms.size()) ++repeated;
    for (TermId t : distinct) {
      for (const Record& r : records) {
        if (r.Carries(t) && r.TierOf(t) == Tier::kBoth) {
          ++both_tiers;
          break;
        }
      }
    }
  });
  EXPECT_GT(proven_hits, 100u);
  EXPECT_GT(unproven_hits, 100u);
  EXPECT_GT(misses, 100u);
  EXPECT_GT(forced, 100u);
  EXPECT_GT(k_above, 100u);
  EXPECT_GT(k_below, 100u);
  EXPECT_GT(repeated, 100u);
  EXPECT_GT(both_tiers, 100u);
}

TEST(QueryEngineOrPropertyTest, AnswersEqualBruteForceTopK) {
  uint64_t proven_hits = 0, unproven_hits = 0, misses = 0, forced = 0;
  uint64_t k_above = 0, k_below = 0, singles = 0, shared_records = 0;
  uint64_t multi_owner = 0;
  ForEachSeed(DrawOrQuery, [&](const std::vector<Record>& records,
                               const ShardedMicroblogStore& store,
                               const Query& q, const Observed& got,
                               const std::string& label) {
    const Expected want = BruteForceOr(records, q);

    ASSERT_EQ(got.ids, want.ids) << label;
    ASSERT_EQ(got.memory_hit, want.memory_hit) << label;
    ASSERT_EQ(got.unproven_hits, want.unproven ? 1u : 0u) << label;
    ASSERT_EQ(got.disk_term_reads, want.disk_term_reads) << label;
    ASSERT_EQ(got.disk_term_queries, want.disk_term_reads) << label;

    const std::set<TermId> distinct(q.terms.begin(), q.terms.end());
    if (store.num_shards() == 2) {
      std::set<size_t> owners;
      for (TermId t : distinct) owners.insert(store.router().ShardForTerm(t));
      if (owners.size() > 1) ++multi_owner;
    }
    if (store.num_shards() != 1) return;  // count each case once
    if (q.force_disk) {
      ++forced;
    } else if (!want.memory_hit) {
      ++misses;
    } else {
      ++(want.unproven ? unproven_hits : proven_hits);
    }
    ++(q.k > want.qualifying ? k_above : k_below);
    if (q.type == QueryType::kSingle) ++singles;
    // A record under two of the query terms: its postings meet in the
    // pool, on one owner or on two.
    if (std::any_of(records.begin(), records.end(), [&](const Record& r) {
          return std::count_if(distinct.begin(), distinct.end(),
                               [&](TermId t) { return r.Carries(t); }) >= 2;
        })) {
      ++shared_records;
    }
  });
  EXPECT_GT(proven_hits, 100u);
  EXPECT_GT(unproven_hits, 100u);
  EXPECT_GT(misses, 100u);
  EXPECT_GT(forced, 100u);
  EXPECT_GT(k_above, 100u);
  EXPECT_GT(k_below, 100u);
  EXPECT_GT(singles, 100u);
  EXPECT_GT(shared_records, 100u);
  EXPECT_GT(multi_owner, 100u);
}

}  // namespace
}  // namespace kflush
