// Wiring harness for exercising FlushPolicy implementations directly.

#ifndef KFLUSH_TESTS_TESTING_POLICY_HARNESS_H_
#define KFLUSH_TESTS_TESTING_POLICY_HARNESS_H_

#include <memory>
#include <vector>

#include "policy/policy_factory.h"
#include "storage/sim_disk_store.h"
#include "testing/test_util.h"

namespace kflush {
namespace testing_util {

/// Assembles the shared infrastructure a policy needs, plus ingest helpers.
/// Uses a SimClock advanced by 1µs per ingest so arrival order is total.
class PolicyHarness {
 public:
  explicit PolicyHarness(size_t budget_bytes = 8 << 20)
      : tracker_(budget_bytes),
        raw_(&tracker_),
        buffer_(&tracker_),
        clock_(1000),
        extractor_(MakeAttribute(AttributeKind::kKeyword)) {}

  PolicyContext ctx() {
    PolicyContext c;
    c.raw_store = &raw_;
    c.disk_store = &disk_;
    c.flush_buffer = &buffer_;
    c.tracker = &tracker_;
    c.clock = &clock_;
    c.extractor = extractor_.get();
    return c;
  }

  std::unique_ptr<FlushPolicy> Make(PolicyKind kind, uint32_t k,
                                    size_t fifo_segment_bytes = 64 * 1024) {
    PolicyOptions opts;
    opts.k = k;
    opts.fifo_segment_bytes = fifo_segment_bytes;
    return MakePolicy(kind, ctx(), opts);
  }

  /// Ingests a microblog with the given keywords through the full path:
  /// raw store Put (pcount = #keywords) + policy Insert, temporal score.
  void Ingest(FlushPolicy* policy, MicroblogId id,
              std::vector<KeywordId> keywords) {
    clock_.Advance(1);
    Microblog blog = MakeBlog(id, clock_.NowMicros(), std::move(keywords));
    std::vector<TermId> terms(blog.keywords.begin(), blog.keywords.end());
    auto s = raw_.Put(blog, static_cast<uint32_t>(terms.size()));
    if (!s.ok()) abort();
    policy->Insert(blog, terms, static_cast<double>(blog.created_at));
  }

  /// Queries a term as a user query (recency recorded), returning ids.
  std::vector<MicroblogId> Query(FlushPolicy* policy, TermId term,
                                 size_t limit) {
    clock_.Advance(1);
    std::vector<Posting> postings;
    policy->QueryTerm(term, limit, &postings);
    return IdsOf(postings);
  }

  MemoryTracker& tracker() { return tracker_; }
  RawDataStore& raw() { return raw_; }
  SimDiskStore& disk() { return disk_; }
  FlushBuffer& buffer() { return buffer_; }
  SimClock& clock() { return clock_; }

 private:
  MemoryTracker tracker_;
  RawDataStore raw_;
  SimDiskStore disk_;
  FlushBuffer buffer_;
  SimClock clock_;
  std::unique_ptr<AttributeExtractor> extractor_;
};

}  // namespace testing_util
}  // namespace kflush

#endif  // KFLUSH_TESTS_TESTING_POLICY_HARNESS_H_
