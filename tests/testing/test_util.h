// Shared helpers for kflush tests.

#ifndef KFLUSH_TESTS_TESTING_TEST_UTIL_H_
#define KFLUSH_TESTS_TESTING_TEST_UTIL_H_

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/store.h"
#include "model/microblog.h"

namespace kflush {
namespace testing_util {

/// A microblog with the given keywords, timestamp, and ~realistic size.
inline Microblog MakeBlog(MicroblogId id, Timestamp ts,
                          std::vector<KeywordId> keywords, UserId user = 1,
                          std::string text = "synthetic test microblog") {
  Microblog blog;
  blog.id = id;
  blog.created_at = ts;
  blog.user_id = user;
  blog.keywords = std::move(keywords);
  blog.text = std::move(text);
  return blog;
}

/// The ids of `postings`, in order.
inline std::vector<MicroblogId> IdsOf(const std::vector<Posting>& postings) {
  std::vector<MicroblogId> ids;
  ids.reserve(postings.size());
  for (const Posting& p : postings) ids.push_back(p.id);
  return ids;
}

/// A geotagged microblog.
inline Microblog MakeGeoBlog(MicroblogId id, Timestamp ts, double lat,
                             double lon, UserId user = 1) {
  Microblog blog = MakeBlog(id, ts, {}, user);
  blog.has_location = true;
  blog.location = {lat, lon};
  return blog;
}

/// Store options sized for fast unit tests.
inline StoreOptions SmallStoreOptions(PolicyKind policy,
                                      size_t budget = 256 * 1024,
                                      uint32_t k = 5) {
  StoreOptions opts;
  opts.memory_budget_bytes = budget;
  opts.flush_fraction = 0.2;
  opts.k = k;
  opts.policy = policy;
  opts.auto_flush = false;  // tests trigger flushes explicitly
  return opts;
}

/// Ingests `n` microblogs where blog i carries keyword (i % distinct).
/// Ids are assigned by the store; timestamps increase.
inline void FillRoundRobin(MicroblogStore* store, size_t n, size_t distinct,
                           Timestamp start_ts = 1000) {
  for (size_t i = 0; i < n; ++i) {
    Microblog blog;
    blog.created_at = start_ts + i;
    blog.user_id = 1 + (i % 7);
    blog.keywords = {static_cast<KeywordId>(i % distinct)};
    blog.text = "round robin filler text for realistic record size";
    auto s = store->Insert(std::move(blog));
    if (!s.ok()) abort();
  }
}

/// All policy kinds, for parameterized suites.
inline std::vector<PolicyKind> AllPolicies() {
  return {PolicyKind::kFifo, PolicyKind::kLru, PolicyKind::kKFlushing,
          PolicyKind::kKFlushingMK};
}

/// Field-wise record equality (Microblog has no operator==): the
/// differential oracle's definition of "byte-identical answers".
inline bool RecordsEqual(const Microblog& a, const Microblog& b) {
  return a.id == b.id && a.created_at == b.created_at &&
         a.user_id == b.user_id && a.follower_count == b.follower_count &&
         a.has_location == b.has_location &&
         (!a.has_location || (a.location.lat == b.location.lat &&
                              a.location.lon == b.location.lon)) &&
         a.text == b.text && a.keywords == b.keywords;
}

/// A path under ::testing::TempDir() unique to this test process: `name`
/// plus the pid. gtest_discover_tests runs every case as its own process,
/// so under `ctest -j` cases that share a fixture's name still never share
/// (or RemoveTree) each other's files. Compute it before forking: a child
/// that must reach its parent's files cannot recompute it.
inline std::string UniqueTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid());
}

/// Recursively deletes `path` (file or directory tree). Durability tests
/// use per-test directories (WAL + segment files) under TempDir().
inline void RemoveTree(const std::string& path) {
  struct stat st;
  if (::lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    if (DIR* d = ::opendir(path.c_str())) {
      while (struct dirent* ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name == "." || name == "..") continue;
        RemoveTree(path + "/" + name);
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  } else {
    std::remove(path.c_str());
  }
}

/// Shard count for the sharded differential tests: the KFLUSH_TEST_SHARDS
/// environment variable when set (the CI matrix runs the tier-1 shard leg
/// at 1 and 4), else 4. Values below 1 fall back to the default.
inline size_t TestShardCount() {
  const char* env = std::getenv("KFLUSH_TEST_SHARDS");
  if (env != nullptr && *env != '\0') {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<size_t>(v);
  }
  return 4;
}

}  // namespace testing_util
}  // namespace kflush

#endif  // KFLUSH_TESTS_TESTING_TEST_UTIL_H_
