// The shared boundary-tile membership predicate (index/spatial_grid.h
// AreaContains): unit coverage of the inclusive-edge semantics, plus the
// cross-surface contract — the one-shot SearchArea answer and an area
// subscription's standing result must both be exactly "the records
// AreaContains admits", so a record can never appear in one surface and
// be missed by the other.

#include "index/spatial_grid.h"

#include <algorithm>
#include <vector>

#include "core/query_engine.h"
#include "core/store.h"
#include "gtest/gtest.h"
#include "sub/subscription_manager.h"
#include "testing/test_util.h"

namespace kflush {
namespace {

using testing_util::MakeGeoBlog;
using testing_util::SmallStoreOptions;

TEST(AreaContains, InclusiveOnAllEdgesAndCorners) {
  BoundingBox box{10.0, 20.0, 11.0, 21.0};
  // Interior.
  EXPECT_TRUE(AreaContains(box, MakeGeoBlog(1, 1, 10.5, 20.5)));
  // All four edges and all four corners are inside (inclusive).
  EXPECT_TRUE(AreaContains(box, MakeGeoBlog(2, 1, 10.0, 20.5)));
  EXPECT_TRUE(AreaContains(box, MakeGeoBlog(3, 1, 11.0, 20.5)));
  EXPECT_TRUE(AreaContains(box, MakeGeoBlog(4, 1, 10.5, 20.0)));
  EXPECT_TRUE(AreaContains(box, MakeGeoBlog(5, 1, 10.5, 21.0)));
  EXPECT_TRUE(AreaContains(box, MakeGeoBlog(6, 1, 10.0, 20.0)));
  EXPECT_TRUE(AreaContains(box, MakeGeoBlog(7, 1, 11.0, 21.0)));
  // Just outside each edge.
  EXPECT_FALSE(AreaContains(box, MakeGeoBlog(8, 1, 9.9999, 20.5)));
  EXPECT_FALSE(AreaContains(box, MakeGeoBlog(9, 1, 11.0001, 20.5)));
  EXPECT_FALSE(AreaContains(box, MakeGeoBlog(10, 1, 10.5, 19.9999)));
  EXPECT_FALSE(AreaContains(box, MakeGeoBlog(11, 1, 10.5, 21.0001)));
}

TEST(AreaContains, RejectsRecordsWithoutLocation) {
  BoundingBox everything{-90.0, -180.0, 90.0, 180.0};
  Microblog blog = testing_util::MakeBlog(1, 1, {7});
  ASSERT_FALSE(blog.has_location);
  EXPECT_FALSE(AreaContains(everything, blog));
}

TEST(AreaContains, DegenerateBoxMatchesOnlyTheExactPoint) {
  BoundingBox point{10.0, 20.0, 10.0, 20.0};
  EXPECT_TRUE(AreaContains(point, MakeGeoBlog(1, 1, 10.0, 20.0)));
  EXPECT_FALSE(AreaContains(point, MakeGeoBlog(2, 1, 10.0, 20.0001)));
}

// The cross-surface contract: seed a spatial store with records straddling
// tile boundaries around a box, then require that (a) the one-shot
// SearchArea answer is exactly the AreaContains-filtered brute-force top-k
// and (b) an area subscription's standing result is the same set — both
// surfaces route through the one shared predicate.
TEST(AreaContains, OneShotAndSubscriptionAgreeWithBruteForce) {
  StoreOptions opts = SmallStoreOptions(PolicyKind::kFifo);
  opts.attribute = AttributeKind::kSpatial;
  MicroblogStore store(opts);
  QueryEngine engine(&store);

  const BoundingBox box{40.0, -74.0, 40.2, -73.8};
  std::vector<Microblog> kept;
  MicroblogId next_id = 1;
  // A lattice overshooting the box on every side: records land in boundary
  // tiles both inside and outside the box.
  for (int i = -3; i <= 13; ++i) {
    for (int j = -3; j <= 13; ++j) {
      const double lat = 40.0 + 0.02 * i;
      const double lon = -74.0 + 0.02 * j;
      Microblog blog = MakeGeoBlog(next_id, 1000 + next_id, lat, lon);
      ++next_id;
      kept.push_back(blog);
      ASSERT_TRUE(store.Insert(blog).ok());
    }
  }

  const uint32_t k = 12;
  std::vector<const Microblog*> expect;
  for (const Microblog& blog : kept) {
    if (AreaContains(box, blog)) expect.push_back(&blog);
  }
  const RankingFunction* ranking = store.ranking();
  std::sort(expect.begin(), expect.end(),
            [&](const Microblog* a, const Microblog* b) {
              return RanksBefore({a->id, ranking->Score(*a)},
                                 {b->id, ranking->Score(*b)});
            });
  if (expect.size() > k) expect.resize(k);

  auto result = engine.SearchArea(box.min_lat, box.min_lon, box.max_lat,
                                  box.max_lon, k);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->results.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(result->results[i].id, expect[i]->id) << "rank " << i;
    EXPECT_TRUE(AreaContains(box, result->results[i]));
  }

  auto subs = MakeSubscriptions(&engine);
  SubscriptionSpec spec;
  spec.kind = SubKind::kArea;
  spec.k = k;
  spec.box = box;
  auto sub_id = subs->Subscribe(spec);
  ASSERT_TRUE(sub_id.ok()) << sub_id.status().ToString();
  std::vector<Posting> members;
  ASSERT_TRUE(subs->SnapshotMembers(*sub_id, &members));
  ASSERT_EQ(members.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(members[i].id, expect[i]->id) << "rank " << i;
  }
}

}  // namespace
}  // namespace kflush
