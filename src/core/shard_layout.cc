#include "core/shard_layout.h"

#include <string>

namespace kflush {

StoreOptions ShardStoreOptions(const StoreOptions& deployment,
                               size_t num_shards, size_t shard) {
  StoreOptions so = deployment;
  so.memory_budget_bytes = deployment.memory_budget_bytes / num_shards;
  so.shard_id = static_cast<int>(shard);
  if (so.durability.enabled) {
    so.durability.dir = deployment.durability.dir + "/shard-" +
                        std::to_string(shard);
  }
  return so;
}

IngestRouter::IngestRouter(const StoreOptions& deployment, size_t num_shards)
    : clock_(deployment.clock != nullptr ? deployment.clock
                                         : WallClock::Default()),
      extractor_(MakeAttribute(deployment.attribute)),
      router_(num_shards) {}

void IngestRouter::ResumePast(const MicroblogStore& shard) {
  // Construction time, before any Route(): nothing stamps concurrently.
  const MicroblogId next = shard.recovered_max_id() + 1;
  if (next > next_id_.load(std::memory_order_relaxed)) {
    next_id_.store(next, std::memory_order_relaxed);
  }
}

bool IngestRouter::Route(Microblog* blog, RoutedTerms* out) {
  if (blog->id == kInvalidMicroblogId) {
    blog->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  if (blog->created_at == 0) {
    blog->created_at = clock_->NowMicros();
  }
  // Clear only the sublists the previous record touched.
  if (out->owned.size() < router_.num_shards()) {
    out->owned.resize(router_.num_shards());
  }
  for (size_t owner : out->owners) out->owned[owner].clear();
  out->owners.clear();
  extractor_->ExtractTerms(*blog, &out->terms);
  for (TermId term : out->terms) {
    const size_t owner = router_.ShardForTerm(term);
    if (out->owned[owner].empty()) out->owners.push_back(owner);
    out->owned[owner].push_back(term);
  }
  return !out->owners.empty();
}

}  // namespace kflush
