// kFlushing: the paper's three-phase, top-k-aware flushing policy (§III),
// including the multiple-keyword (MK) extension (§IV-D).
//
// Phase 1 (regular):    trim postings beyond top-k from every over-k entry
//                       (tracked incrementally in the list L so Phase 1
//                       never scans the whole index). MK rule: keep a
//                       posting if its microblog is still within top-k of
//                       any other entry (record top-k refcount > 0).
// Phase 2 (aggressive): evict whole entries holding fewer than k postings —
//                       queries on them miss regardless — least recently
//                       *arrived* first, selected by a single-pass O(n)
//                       max-heap. MK rule: keep a posting if its microblog
//                       also exists in some entry with >= k postings.
// Phase 3 (forced):     evict whole entries (now all k-filled), least
//                       recently *queried* first (query temporal locality,
//                       Lin & Mishne 2012), same single-pass selection.
//
// Bookkeeping is per *entry*, not per item: one last-arrival and one
// last-query timestamp per keyword — the key to kFlushing's low overhead
// versus LRU (paper §III-B/III-C, Figure 10).

#ifndef KFLUSH_POLICY_KFLUSHING_POLICY_H_
#define KFLUSH_POLICY_KFLUSHING_POLICY_H_

#include <functional>
#include <unordered_set>

#include "index/inverted_index.h"
#include "policy/flush_policy.h"
#include "util/thread_util.h"

namespace kflush {

/// Which phases run (ablation support; Figure 5(a) is phases={1}).
struct KFlushingOptions {
  bool enable_phase2 = true;
  bool enable_phase3 = true;
  /// The multiple-keyword extension (§IV-D). When set, kind() reports
  /// kKFlushingMK.
  bool mk_extension = false;
  /// Phase 3 victim ordering. The paper argues for least-recently-QUERIED
  /// (query streams exhibit strong temporal locality, Lin & Mishne 2012);
  /// setting this false keys Phase 3 on last-arrival instead — an
  /// ablation that quantifies the §III-C design choice.
  bool phase3_by_query_time = true;
};

/// The kFlushing policy. Thread-safe: Insert/QueryTerm run concurrently
/// with a single flushing thread.
class KFlushingPolicy : public FlushPolicy {
 public:
  /// Approximate bookkeeping bytes per tracked over-k term in L.
  static constexpr size_t kBytesPerTrackedTerm = 16;

  KFlushingPolicy(const PolicyContext& ctx, uint32_t k,
                  KFlushingOptions options = {});
  ~KFlushingPolicy() override;

  PolicyKind kind() const override {
    return options_.mk_extension ? PolicyKind::kKFlushingMK
                                 : PolicyKind::kKFlushing;
  }

  void Insert(const Microblog& blog, const std::vector<TermId>& terms,
              double score) override;
  size_t QueryTerm(TermId term, size_t limit,
                   std::vector<Posting>* out) override;
  size_t EntrySize(TermId term) const override;

  void SetK(uint32_t k) override;

  size_t NumTerms() const override;
  size_t NumKFilledTerms() const override;
  void CollectEntrySizes(std::vector<size_t>* out) const override;
  size_t AuxMemoryBytes() const override;

  const KFlushingOptions& options() const { return options_; }

  /// Size of the over-k tracking list L (tests).
  size_t TrackedOverKTerms() const;

 protected:
  size_t FlushImpl(size_t bytes_needed) override;

 private:
  /// Phase bodies; each returns the data bytes it freed.
  size_t RunPhase1();
  size_t RunPhase2(size_t bytes_needed);
  size_t RunPhase3(size_t bytes_needed);

  /// Runs one phase body with attribution: sets current_phase_ around the
  /// call and records runs/bytes_freed/micros into stats_.phases[phase-1].
  size_t TimedPhase(int phase, const std::function<size_t()>& body);

  /// Trims one over-k entry per the (possibly MK-extended) Phase 1 rule.
  size_t TrimEntry(TermId term, uint32_t k);

  /// The single-pass O(n) victim selection of Phases 2/3 (paper §III-B):
  /// scans `candidates` (term, key-timestamp, bytes) and returns a subset
  /// whose bytes sum to at least `target`, preferring the smallest key
  /// timestamps. Exposed via the .cc for unit testing through the policy.
  struct Candidate {
    TermId term;
    Timestamp order_key;
    size_t bytes;
  };
  static std::vector<Candidate> SelectVictims(std::vector<Candidate> candidates,
                                              size_t target);

  /// Current mean raw-record size, hoisted out of the candidate loops (one
  /// aggregation per selection pass, not per candidate).
  size_t MeanRecordBytes() const;

  /// Estimated full memory cost of an entry holding `count` postings:
  /// index bytes plus the records those postings pin, approximated with
  /// the pass's mean record size.
  static size_t EstimateEntryCost(size_t count, size_t mean_record_bytes);

  /// Removes (possibly partially, under MK) one selected entry; phase = 2
  /// or 3 for stats attribution, heap_rank/order_key for the victim's
  /// audit record (its position in SelectVictims' output and the timestamp
  /// the heap compared). Returns bytes freed.
  size_t EvictEntry(TermId term, int phase, int64_t heap_rank,
                    Timestamp order_key);

  InvertedIndex index_;
  KFlushingOptions options_;

  /// The list L of entries that exceeded k postings since the last Phase 1
  /// run (paper §III-A). A set: each over-k entry appears once.
  mutable SpinLock over_k_mu_;
  std::unordered_set<TermId> over_k_terms_;

  /// Set by SetK; the next flush rebuilds L by scanning (paper §IV-C: the
  /// new k takes effect at the next flushing cycle).
  std::atomic<bool> k_changed_{false};

  /// Scratch for the phase scans (SIMD-swept column snapshot + selected
  /// row indices); capacity survives across cycles. Touched only by the
  /// single flushing thread, like the phase bodies.
  IndexSnapshot scan_snapshot_;
  std::vector<uint32_t> scan_indices_;
  /// The run a victim's index operation removed: registered on disk
  /// under the index lock, dropped after the operation returns.
  std::vector<Posting> removed_;

  /// friend for white-box tests of SelectVictims.
  friend class KFlushingPolicyTestPeer;
};

}  // namespace kflush

#endif  // KFLUSH_POLICY_KFLUSHING_POLICY_H_
