// Quickstart: the 60-second tour of the kflush public API.
//
//   1. Configure a MicroblogStore with a memory budget and the kFlushing
//      policy (paper defaults: k = 20, flush budget B = 10%).
//   2. Ingest microblogs from raw text — keywords are tokenized and
//      interned automatically.
//   3. Run top-k keyword searches through the QueryEngine, including
//      multi-keyword AND / OR queries.
//   4. Watch the memory budget enforce itself: overflow is flushed to the
//      disk tier, and queries transparently fall back to it.

#include <cstdio>

#include "core/query_engine.h"
#include "core/store.h"

using namespace kflush;

int main() {
  // 1. A small store: 4 MB budget, top-5 queries, kFlushing policy.
  StoreOptions options;
  options.memory_budget_bytes = 4 << 20;
  options.flush_fraction = 0.10;
  options.k = 5;
  options.policy = PolicyKind::kKFlushing;
  MicroblogStore store(options);
  QueryEngine engine(&store);

  // 2. Ingest some microblogs.
  const char* posts[] = {
      "big game tonight #nba #lakers",
      "what a finish! #nba",
      "election coverage starts now #politics",
      "traffic on i94 again #mpls",
      "new coffee shop downtown #mpls #coffee",
      "#nba trade rumors heating up",
      "rain all week #mpls",
      "#coffee is life",
      "playoff predictions #nba #basketball",
      "city council vote today #politics #mpls",
  };
  UserId user = 1;
  for (const char* text : posts) {
    Status s = store.InsertText(text, user++, /*followers=*/100);
    if (!s.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("ingested %llu microblogs, %zu distinct keywords\n",
              static_cast<unsigned long long>(store.ingest_stats().inserted),
              store.dictionary()->size());

  // 3. Top-k searches.
  auto print_result = [](const char* label, const QueryResult& result) {
    std::printf("\n%s  (%s, %zu from memory, %zu from disk)\n", label,
                result.memory_hit ? "memory HIT" : "memory miss",
                result.from_memory, result.from_disk);
    for (const Microblog& blog : result.results) {
      std::printf("  [%llu] %s\n", static_cast<unsigned long long>(blog.id),
                  blog.text.c_str());
    }
  };

  auto nba = engine.SearchKeywords({"nba"}, QueryType::kSingle);
  if (nba.ok()) print_result("top-5 #nba:", *nba);

  auto or_query = engine.SearchKeywords({"coffee", "politics"}, QueryType::kOr);
  if (or_query.ok()) print_result("top-5 #coffee OR #politics:", *or_query);

  auto and_query = engine.SearchKeywords({"nba", "lakers"}, QueryType::kAnd);
  if (and_query.ok()) print_result("top-5 #nba AND #lakers:", *and_query);

  // 4. Memory accounting and hit-ratio metrics.
  std::printf("\n%s\n", store.tracker().ToString().c_str());
  const QueryMetricsSnapshot queries =
      QueryMetricsFromRegistry(store.metrics_registry()->Snapshot());
  std::printf("query metrics: %s\n", queries.ToString().c_str());
  return 0;
}
