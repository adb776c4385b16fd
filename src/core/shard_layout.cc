#include "core/shard_layout.h"

#include <filesystem>
#include <set>
#include <string>

#include "util/logging.h"

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

Status OpenShardLayout(StoreOptions* deployment, size_t num_shards) {
  if (!deployment->durability.enabled) return Status::OK();
  namespace fs = std::filesystem;
  const std::string& dir = deployment->durability.dir;
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || fs::is_empty(dir, ec)) {
    return Status::OK();
  }
  std::set<size_t> found;
  bool single_store_wal = false;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == "wal.log") single_store_wal = true;
    const std::string digits =
        name.rfind("shard-", 0) == 0 ? name.substr(6) : std::string();
    if (!digits.empty() && digits.size() <= 9 &&
        digits.find_first_not_of("0123456789") == std::string::npos &&
        entry.is_directory(ec)) {
      found.insert(std::stoul(digits));
    }
  }
  Status status = Status::OK();
  if (single_store_wal) {
    status = Status::InvalidArgument(
        "durable directory " + dir +
        " holds a single-store WAL (1 shard, unsharded layout); opened with " +
        std::to_string(num_shards) + " shard(s)");
  } else if (found.size() != num_shards ||
             *found.rbegin() != num_shards - 1) {
    status = Status::InvalidArgument(
        "durable directory " + dir + " holds " +
        std::to_string(found.size()) +
        " shard director" + (found.size() == 1 ? "y" : "ies") +
        "; opened with " + std::to_string(num_shards) +
        " shard(s) (reopen with the shard count that wrote it)");
  }
  if (!status.ok()) {
    KFLUSH_WARN("durable tier unavailable, running non-durable: "
                << status.ToString());
    deployment->durability.enabled = false;
  }
  return status;
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
