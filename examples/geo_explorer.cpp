// Geo explorer: location search over microblogs (paper §IV-A / Figure 11
// scenario — "find the k most recent microblogs posted in this area").
// Demonstrates the spatial attribute: tweets are indexed by ~4 mi² grid
// tile, point queries hit the containing tile, and bounding-box queries
// fan out as an OR over the overlapping tiles.

#include <cstdio>

#include "core/query_engine.h"
#include "core/store.h"
#include "gen/tweet_generator.h"
#include "index/spatial_grid.h"

using namespace kflush;

int main() {
  StoreOptions options;
  options.memory_budget_bytes = 16 << 20;
  options.k = 10;
  options.policy = PolicyKind::kKFlushing;
  options.attribute = AttributeKind::kSpatial;
  MicroblogStore store(options);
  QueryEngine engine(&store);

  // A stream concentrated on a handful of metro hotspots.
  TweetGeneratorOptions stream;
  stream.seed = 7;
  stream.num_hotspots = 16;
  stream.hotspot_stddev_degrees = 0.03;
  TweetGenerator gen(stream);
  for (int i = 0; i < 300'000; ++i) {
    Status s = store.Insert(gen.Next());
    if (!s.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("ingested %llu geotagged microblogs; %zu active tiles, "
              "%zu k-filled; %llu flushes\n",
              static_cast<unsigned long long>(store.ingest_stats().inserted),
              store.policy()->NumTerms(), store.policy()->NumKFilledTerms(),
              static_cast<unsigned long long>(
                  store.ingest_stats().flush_triggers));

  // Point query at the busiest hotspot center.
  const GeoPoint hotspot = MakeHotspots(stream)[0];
  auto point = engine.SearchLocation(hotspot.lat, hotspot.lon);
  if (point.ok()) {
    std::printf("\npoint query @(%.3f, %.3f): %zu results, %s\n", hotspot.lat,
                hotspot.lon, point->results.size(),
                point->memory_hit ? "memory HIT" : "memory miss");
    for (size_t i = 0; i < 3 && i < point->results.size(); ++i) {
      const Microblog& blog = point->results[i];
      std::printf("  [%llu] (%.4f, %.4f) by user %llu\n",
                  static_cast<unsigned long long>(blog.id), blog.location.lat,
                  blog.location.lon,
                  static_cast<unsigned long long>(blog.user_id));
    }
  }

  // Bounding-box query: ~0.2 x 0.2 degrees around the hotspot, evaluated
  // as an OR across the overlapping grid tiles.
  const auto* spatial =
      dynamic_cast<const SpatialAttribute*>(store.extractor());
  BoundingBox box{hotspot.lat - 0.1, hotspot.lon - 0.1, hotspot.lat + 0.1,
                  hotspot.lon + 0.1};
  TopKQuery area_query;
  area_query.terms = TilesOverlapping(spatial->mapper(), box, /*max_tiles=*/64);
  area_query.type = QueryType::kOr;
  auto area = engine.Execute(area_query);
  if (area.ok()) {
    std::printf("\nbox query over %zu tiles: %zu results, %s\n",
                area_query.terms.size(), area->results.size(),
                area->memory_hit ? "memory HIT" : "memory miss");
    size_t inside = 0;
    for (const Microblog& blog : area->results) {
      if (box.Contains(blog.location)) ++inside;
    }
    std::printf("  %zu/%zu results inside the requested box\n", inside,
                area->results.size());
  }

  // A quiet corner of the map: guaranteed thin tile -> disk fallback path.
  auto quiet = engine.SearchLocation(46.9, -102.8);
  if (quiet.ok()) {
    std::printf("\nquiet-area query: %zu results, %s (disk records read: "
                "%llu)\n",
                quiet->results.size(),
                quiet->memory_hit ? "memory HIT" : "memory miss",
                static_cast<unsigned long long>(
                    store.disk()->stats().records_read));
  }

  const QueryMetricsSnapshot queries =
      QueryMetricsFromRegistry(store.metrics_registry()->Snapshot());
  std::printf("\nquery metrics: %s\n", queries.ToString().c_str());
  return 0;
}
