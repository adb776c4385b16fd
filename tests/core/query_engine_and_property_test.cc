// Property test for AND evaluation (core/query_engine.h). Each seed
// places a random set of records over the two tiers term by term — a
// record's posting under a term is in memory, on disk, or in both — with
// scores drawn from a small range so equal-score runs are common, and
// then runs random AND queries of 2-4 terms (sometimes repeating one),
// with k above and below the intersection size and sometimes force_disk,
// against the same placement deployed over 1, 2 and 4 shards. Every
// answer must equal the brute-force top-k of the records carrying every
// query term, and memory_hit, query.unproven_hits and the disk term reads
// must follow the documented rules, computed here by brute force. On
// failure the message carries the seed, the shard count and the query.

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
        ASSERT_TRUE(shard->disk()->AddPosting(term, r.blog.id, r.score).ok());
      }
    }
  }
}

/// What the documented rules say one AND query returns and records.
struct Expected {
  std::vector<MicroblogId> ids;
  bool memory_hit = false;
  bool unproven = false;
  size_t intersection = 0;
};

Expected BruteForce(const std::vector<Record>& records,
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
  e.intersection = common.size();
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

std::string Describe(uint64_t seed, size_t shards,
                     const std::vector<TermId>& terms, uint32_t k,
                     bool force_disk) {
  std::string s = "seed " + std::to_string(seed) + " shards " +
                  std::to_string(shards) + " AND(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(terms[i]);
  }
  s += ") k=" + std::to_string(k);
  if (force_disk) s += " force_disk";
  return s;
}

TEST(QueryEngineAndPropertyTest, AnswersEqualBruteForceTopK) {
  // Branch coverage, so a generator change cannot silently stop
  // exercising a case the rules distinguish.
  uint64_t proven_hits = 0, unproven_hits = 0, misses = 0, forced = 0;
  uint64_t k_above = 0, k_below = 0, repeated = 0, both_tiers = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    const std::vector<Record> records = MakeRecords(&rng);
    struct Query {
      std::vector<TermId> terms;
      uint32_t k;
      bool force_disk;
    };
    std::vector<Query> queries(kQueriesPerSeed);
    for (Query& q : queries) {
      const size_t n = 2 + rng.Uniform(3);
      while (q.terms.size() < n) {
        const TermId t = 1 + rng.Uniform(3);  // the likeliest-kept terms
        if (std::find(q.terms.begin(), q.terms.end(), t) == q.terms.end() ||
            rng.Bernoulli(0.3)) {
          q.terms.push_back(t);
        }
      }
      q.k = 1 + static_cast<uint32_t>(rng.Uniform(6));
      q.force_disk = rng.Bernoulli(0.2);
    }

    for (size_t shards : {1, 2, 4}) {
      ShardedStoreOptions options;
      options.store = testing_util::SmallStoreOptions(PolicyKind::kKFlushing,
                                                      64 << 20, /*k=*/3);
      options.num_shards = shards;
      ShardedMicroblogStore store(options);
      Deploy(records, &store);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "seed " << seed;

      for (const Query& q : queries) {
        const std::string label =
            Describe(seed, shards, q.terms, q.k, q.force_disk);
        const std::set<TermId> distinct(q.terms.begin(), q.terms.end());
        const Expected want = BruteForce(
            records, std::vector<TermId>(distinct.begin(), distinct.end()),
            q.k, q.force_disk);

        const MetricsSnapshot before = store.AggregatedMetrics();
        TopKQuery query;
        query.type = QueryType::kAnd;
        query.terms = q.terms;
        query.k = q.k;
        query.force_disk = q.force_disk;
        auto result = store.engine()->Execute(query);
        ASSERT_TRUE(result.ok()) << label << ": "
                                 << result.status().ToString();
        const MetricsSnapshot after = store.AggregatedMetrics();

        std::vector<MicroblogId> got;
        for (const Microblog& blog : result->results) {
          const Record& r = records[blog.id - 1];
          ASSERT_EQ(blog.created_at, r.blog.created_at) << label;
          ASSERT_EQ(blog.keywords, r.blog.keywords) << label;
          got.push_back(blog.id);
        }
        ASSERT_EQ(got, want.ids) << label;
        ASSERT_EQ(result->memory_hit, want.memory_hit) << label;
        ASSERT_EQ(after.counter_or("query.unproven_hits") -
                      before.counter_or("query.unproven_hits"),
                  want.unproven ? 1u : 0u)
            << label;
        const uint64_t disk_reads = after.counter_or("query.disk_term_reads") -
                                    before.counter_or("query.disk_term_reads");
        // A proven hit reads no disk list; the exact path reads each term
        // position's list once, and the disk tier counts the same reads.
        const bool proven_hit = want.memory_hit && !want.unproven;
        ASSERT_EQ(disk_reads, proven_hit ? 0u : q.terms.size()) << label;
        ASSERT_EQ(after.counter_or("disk.term_queries") -
                      before.counter_or("disk.term_queries"),
                  disk_reads)
            << label;

        if (shards != 1) continue;  // count each case once
        if (q.force_disk) {
          ++forced;
        } else if (!want.memory_hit) {
          ++misses;
        } else {
          ++(want.unproven ? unproven_hits : proven_hits);
        }
        ++(q.k > want.intersection ? k_above : k_below);
        if (distinct.size() < q.terms.size()) ++repeated;
        for (TermId t : distinct) {
          for (const Record& r : records) {
            if (r.Carries(t) && r.TierOf(t) == Tier::kBoth) {
              ++both_tiers;
              break;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(proven_hits, 100u);
  EXPECT_GT(unproven_hits, 100u);
  EXPECT_GT(misses, 100u);
  EXPECT_GT(forced, 100u);
  EXPECT_GT(k_above, 100u);
  EXPECT_GT(k_below, 100u);
  EXPECT_GT(repeated, 100u);
  EXPECT_GT(both_tiers, 100u);
}

}  // namespace
}  // namespace kflush
