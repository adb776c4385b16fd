#include "policy/kflushing_policy.h"

#include <algorithm>
#include <queue>

namespace kflush {

namespace {

// Charge-transition functors for the MK digestion fast path: plain structs
// (not std::function) so InsertWith inlines the refcount bump.
struct TopKInc {
  RawDataStore* raw;
  void operator()(MicroblogId id) const { raw->IncrementTopK(id); }
};
struct TopKDec {
  RawDataStore* raw;
  void operator()(MicroblogId id) const { raw->DecrementTopK(id); }
};

}  // namespace

KFlushingPolicy::KFlushingPolicy(const PolicyContext& ctx, uint32_t k,
                                 KFlushingOptions options)
    : FlushPolicy(ctx, k), index_(ctx.tracker), options_(options) {}

KFlushingPolicy::~KFlushingPolicy() {
  if (ctx_.tracker != nullptr) {
    std::lock_guard<SpinLock> lock(over_k_mu_);
    ctx_.tracker->Release(MemoryComponent::kPolicyOverhead,
                          over_k_terms_.size() * kBytesPerTrackedTerm);
  }
}

void KFlushingPolicy::Insert(const Microblog& blog,
                             const std::vector<TermId>& terms, double score) {
  const Timestamp now = Now();
  const uint32_t k = this->k();
  // MK: per-record top-k refcounts follow the entry's charged prefix, and
  // every transition is applied *under the entry's shard lock* (the
  // index -> raw-store lock order), so a flush running RemoveMatching on
  // the same entry observes either {posting present, refcount counted} or
  // neither. Updating after Insert returned would open a window where the
  // flusher decrements a count this thread has not yet incremented (the
  // decrement clamps at 0), leaving the record with a phantom top-k
  // reference that Phase 1 then honors forever.
  const bool mk = options_.mk_extension;
  RawDataStore* raw = ctx_.raw_store;
  for (TermId term : terms) {
    // Non-MK digestion observes no charge transitions, so it takes the
    // charge-free overload (k = 0): the whole charged-prefix machinery
    // compiles away. MK goes through the functor-ref template — no
    // std::function construction or indirect call per insert.
    const IndexInsertResult res =
        mk ? index_.InsertWith(term, blog.id, score, now, k, TopKInc{raw},
                               TopKDec{raw})
           : index_.Insert(term, blog.id, score, now);
    if (res.size_after > k) {
      // Track the over-k entry in L so Phase 1 never scans the index.
      std::lock_guard<SpinLock> lock(over_k_mu_);
      if (over_k_terms_.insert(term).second && ctx_.tracker != nullptr) {
        ctx_.tracker->Charge(MemoryComponent::kPolicyOverhead,
                             kBytesPerTrackedTerm);
      }
    }
  }
}

size_t KFlushingPolicy::QueryTerm(TermId term, size_t limit,
                                  std::vector<Posting>* out) {
  // Stamps the entry's last-query time — Phase 3's eviction key. Racing
  // queries both write ~NOW, so no extra synchronization is needed beyond
  // the shard lock already taken (paper §III-C).
  return index_.Query(term, limit, Now(), out);
}

size_t KFlushingPolicy::EntrySize(TermId term) const {
  return index_.EntrySize(term);
}

void KFlushingPolicy::SetK(uint32_t k) {
  FlushPolicy::SetK(k);
  // L was built against the old k; the next flush rebuilds it by scanning.
  k_changed_.store(true, std::memory_order_relaxed);
}

size_t KFlushingPolicy::FlushImpl(size_t bytes_needed) {
  size_t freed = TimedPhase(1, [&] { return RunPhase1(); });
  if (freed < bytes_needed && options_.enable_phase2) {
    freed += TimedPhase(2, [&] { return RunPhase2(bytes_needed - freed); });
  }
  if (freed < bytes_needed && options_.enable_phase3) {
    freed += TimedPhase(3, [&] { return RunPhase3(bytes_needed - freed); });
  }
  return freed;
}

size_t KFlushingPolicy::TimedPhase(int phase,
                                   const std::function<size_t()>& body) {
  static const char* const kPhaseNames[] = {"phase1", "phase2", "phase3"};
  TraceSpan span("flush", kPhaseNames[phase - 1]);
  current_phase_ = phase;
  Stopwatch watch;
  const size_t freed = body();
  const uint64_t micros = watch.ElapsedMicros();
  current_phase_ = 1;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    PhaseStats& ps = stats_.phases[phase - 1];
    ++ps.runs;
    ps.bytes_freed += freed;
    ps.micros += micros;
  }
  span.End({TraceArg::Uint("bytes_freed", freed)});
  return freed;
}

size_t KFlushingPolicy::RunPhase1() {
  const uint32_t k = this->k();
  std::unordered_set<TermId> terms;
  if (k_changed_.exchange(false, std::memory_order_relaxed)) {
    // k changed since L was built: rebuild by scanning for over-k entries
    // (paper §IV-C — the new k takes effect at this cycle).
    {
      std::lock_guard<SpinLock> lock(over_k_mu_);
      if (ctx_.tracker != nullptr) {
        ctx_.tracker->Release(MemoryComponent::kPolicyOverhead,
                              over_k_terms_.size() * kBytesPerTrackedTerm);
      }
      over_k_terms_.clear();
    }
    index_.Snapshot(&scan_snapshot_);
    scan_indices_.clear();
    simd::AppendIndicesGreater(scan_snapshot_.counts.data(),
                               scan_snapshot_.size(), k, &scan_indices_);
    for (uint32_t i : scan_indices_) terms.insert(scan_snapshot_.terms[i]);
    if (options_.mk_extension) {
      // Charged prefixes (and with them the per-record top-k refcounts)
      // were built against the old k; converge every entry to the new k in
      // one pass so Phase 1's keep-while-top-k-elsewhere test judges
      // against current membership, not history.
      RawDataStore* raw = ctx_.raw_store;
      index_.RebalanceAll(
          k, [raw](MicroblogId id) { raw->IncrementTopK(id); },
          [raw](MicroblogId id) { raw->DecrementTopK(id); });
    }
  } else {
    std::lock_guard<SpinLock> lock(over_k_mu_);
    terms.swap(over_k_terms_);
    if (ctx_.tracker != nullptr) {
      ctx_.tracker->Release(MemoryComponent::kPolicyOverhead,
                            terms.size() * kBytesPerTrackedTerm);
    }
  }

  // Hash-set iteration order varies run to run; trimming in term-id order
  // keeps disk posting registration (and with it equal-score disk reads)
  // replayable across runs.
  std::vector<TermId> ordered(terms.begin(), terms.end());
  std::sort(ordered.begin(), ordered.end());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.phases[0].candidates_scanned += ordered.size();
  }
  ChargeStage(FlushStage::kSelect);
  size_t freed = 0;
  for (TermId term : ordered) {
    freed += TrimEntry(term, k);
  }
  return freed;
}

size_t KFlushingPolicy::TrimEntry(TermId term, uint32_t k) {
  // Phase 1 victims never involve the heap: rank -1, order key 0.
  BeginVictim(/*phase=*/1, term);
  std::function<bool(MicroblogId)> should_trim;  // default: trim everything
  TopKChargeFn on_charge, on_uncharge;
  if (options_.mk_extension) {
    // MK Phase 1 rule: keep a beyond-top-k posting while its microblog is
    // still within top-k of some other entry (§IV-D condition 2). A
    // beyond-k posting holds no charge here, so its refcount counts only
    // *other* entries — except for stale charges left by a shrunken k,
    // which TrimBeyondK revokes (on_uncharge) before the filter runs.
    RawDataStore* raw = ctx_.raw_store;
    should_trim = [raw](MicroblogId id) { return raw->TopKCount(id) == 0; };
    on_charge = [raw](MicroblogId id) { raw->IncrementTopK(id); };
    on_uncharge = [raw](MicroblogId id) { raw->DecrementTopK(id); };
  }

  removed_.clear();
  index_.TrimBeyondK(term, k, should_trim, &removed_, on_charge, on_uncharge,
                     [&] { RegisterOnDisk(term, removed_); });
  ChargeStage(FlushStage::kIndex);
  const size_t freed = DropPostings(removed_);
  ChargeStage(FlushStage::kDrop);
  if (options_.mk_extension && index_.EntrySize(term) > k) {
    // Kept postings leave the entry over-k; re-track it so a later Phase 1
    // retires them once they drop out of every top-k.
    std::lock_guard<SpinLock> lock(over_k_mu_);
    if (over_k_terms_.insert(term).second && ctx_.tracker != nullptr) {
      ctx_.tracker->Charge(MemoryComponent::kPolicyOverhead,
                           kBytesPerTrackedTerm);
    }
  }
  EndVictim(freed);
  return freed;
}

std::vector<KFlushingPolicy::Candidate> KFlushingPolicy::SelectVictims(
    std::vector<Candidate> candidates, size_t target) {
  // Single-pass O(n) selection (paper §III-B): keep a max-heap on the
  // order key whose members' bytes sum to at least `target`, replacing the
  // most recent member whenever an older candidate can take its place
  // without dropping the sum below target.
  // Heap order and the replacement test both compare the full
  // (order_key, term) tuple: equal-timestamp candidates resolve by term
  // id, so the selected set cannot flip between runs just because the
  // hash-map scan handed them over in a different order.
  auto more_recent = [](const Candidate& a, const Candidate& b) {
    if (a.order_key != b.order_key) return a.order_key < b.order_key;
    return a.term < b.term;  // heap top = most recent, then largest term
  };
  std::priority_queue<Candidate, std::vector<Candidate>,
                      decltype(more_recent)>
      heap(more_recent);
  size_t sum = 0;
  for (const Candidate& c : candidates) {
    if (sum < target) {
      heap.push(c);
      sum += c.bytes;
    } else if (!heap.empty() && more_recent(c, heap.top())) {
      const Candidate& top = heap.top();
      if (sum - top.bytes + c.bytes >= target) {
        sum -= top.bytes;
        heap.pop();
        heap.push(c);
        sum += c.bytes;
      } else {
        // Replacement would under-shoot the budget: add without removing
        // (paper: "the new keyword is inserted without removing H's most
        // recent keyword").
        heap.push(c);
        sum += c.bytes;
      }
    }
  }
  std::vector<Candidate> selected;
  selected.reserve(heap.size());
  while (!heap.empty()) {
    selected.push_back(heap.top());
    heap.pop();
  }
  return selected;
}

size_t KFlushingPolicy::MeanRecordBytes() const {
  const size_t records = ctx_.raw_store->size();
  return records == 0 ? 0 : ctx_.raw_store->MemoryBytes() / records;
}

size_t KFlushingPolicy::EstimateEntryCost(size_t count,
                                          size_t mean_record_bytes) {
  return InvertedIndex::kBytesPerEntry +
         count * (PostingList::kBytesPerPosting + mean_record_bytes);
}

size_t KFlushingPolicy::EvictEntry(TermId term, int phase, int64_t heap_rank,
                                   Timestamp order_key) {
  BeginVictim(phase, term, heap_rank, order_key);
  const uint32_t k = this->k();

  // MK Phase 2 rule (§IV-D condition 3): keep a posting whose microblog
  // also exists in some entry holding >= k postings — trimming it there
  // would newly break AND queries spanning a frequent keyword. The keep
  // set is computed before mutating so no index locks nest.
  std::function<bool(MicroblogId)> should_remove;  // default: remove all
  if (options_.mk_extension && phase == 2) {
    std::vector<Posting> postings;
    index_.Peek(term, ~size_t{0}, &postings);
    auto keep = std::make_shared<std::unordered_set<MicroblogId>>();
    std::vector<TermId> other_terms;
    for (const Posting& posting : postings) {
      const MicroblogId id = posting.id;
      // Copy the record's terms out under the raw-store shard lock, then
      // consult the index with no lock held: probing the index under a
      // raw-store lock would reverse the index -> raw order TrimEntry's
      // predicate uses, a lock-order inversion TSan flags and a real
      // deadlock under load.
      ctx_.raw_store->TermsOf(id, *ctx_.extractor, &other_terms);
      for (TermId t : other_terms) {
        if (t == term) continue;
        if (index_.EntrySize(t) >= k && index_.ContainsId(t, id)) {
          keep->insert(id);
          break;
        }
      }
    }
    if (!keep->empty()) {
      should_remove = [keep](MicroblogId id) { return keep->count(id) == 0; };
    }
    ChargeStage(FlushStage::kSelect);
  }

  const bool mk = options_.mk_extension;
  RawDataStore* raw = ctx_.raw_store;
  // All callbacks run under the entry's shard lock, keeping the refcounts
  // transactional with the structural change: a removed charged posting
  // gives its count back, and kept postings sliding into the vacated top-k
  // region gain one (without that, a later eviction's uncharge would steal
  // a count belonging to another entry). The removed postings reach disk
  // before the lock is released and are dropped as one run after it.
  TopKChargeFn on_charge, on_uncharge;
  if (mk) {
    on_charge = [raw](MicroblogId id) { raw->IncrementTopK(id); };
    on_uncharge = [raw](MicroblogId id) { raw->DecrementTopK(id); };
  }
  removed_.clear();
  index_.RemoveMatching(
      term, k, should_remove,
      [&](const Posting& p, bool was_charged) {
        if (mk && was_charged) raw->DecrementTopK(p.id);
        removed_.push_back(p);
      },
      on_charge, on_uncharge, [&] { RegisterOnDisk(term, removed_); });
  ChargeStage(FlushStage::kIndex);
  size_t freed = DropPostings(removed_);
  ChargeStage(FlushStage::kDrop);
  const bool entry_gone = index_.EntrySize(term) == 0;
  if (entry_gone) {
    freed += InvertedIndex::kBytesPerEntry;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.phases[phase - 1].entries;
  }
  EndVictim(freed, entry_gone ? 1 : 0);
  return freed;
}

size_t KFlushingPolicy::RunPhase2(size_t bytes_needed) {
  const uint32_t k = this->k();
  size_t freed = 0;
  // The cost estimate can overshoot for records shared across entries, so
  // re-scan until the budget is met or no under-k entries remain.
  while (freed < bytes_needed) {
    index_.Snapshot(&scan_snapshot_);
    scan_indices_.clear();
    simd::AppendIndicesLess(scan_snapshot_.counts.data(),
                            scan_snapshot_.size(), k, &scan_indices_);
    if (scan_indices_.empty()) break;
    // The per-record cost estimate is uniform across this pass: hoist the
    // mean out of the candidate loop (size()/MemoryBytes() aggregate the
    // shard counters — cheap, but not per-candidate cheap).
    const size_t mean_record = MeanRecordBytes();
    std::vector<Candidate> candidates;
    candidates.reserve(scan_indices_.size());
    for (uint32_t i : scan_indices_) {
      candidates.push_back(
          {scan_snapshot_.terms[i], scan_snapshot_.last_arrival[i],
           EstimateEntryCost(scan_snapshot_.counts[i], mean_record)});
    }
    const size_t scanned = candidates.size();
    std::vector<Candidate> victims =
        SelectVictims(std::move(candidates), bytes_needed - freed);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.phases[1].candidates_scanned += scanned;
      stats_.phases[1].heap_selected += victims.size();
    }
    ChargeStage(FlushStage::kSelect);
    if (victims.empty()) break;
    const size_t freed_before = freed;
    for (size_t rank = 0; rank < victims.size(); ++rank) {
      const Candidate& victim = victims[rank];
      freed += EvictEntry(victim.term, /*phase=*/2,
                          static_cast<int64_t>(rank), victim.order_key);
    }
    // MK can keep an entire selected entry (all its microblogs pinned by
    // frequent keywords); without progress, rescanning would spin.
    if (freed == freed_before) break;
  }
  return freed;
}

size_t KFlushingPolicy::RunPhase3(size_t bytes_needed) {
  size_t freed = 0;
  while (freed < bytes_needed) {
    // Phase 3 considers every remaining entry, keyed by last query time so
    // recently popular keywords stay in memory (or by last arrival under
    // the ablation configuration).
    index_.Snapshot(&scan_snapshot_);
    const size_t n = scan_snapshot_.size();
    if (n == 0) break;
    const std::vector<Timestamp>& keys = options_.phase3_by_query_time
                                             ? scan_snapshot_.last_query
                                             : scan_snapshot_.last_arrival;
    const size_t mean_record = MeanRecordBytes();
    std::vector<Candidate> candidates;
    candidates.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      candidates.push_back(
          {scan_snapshot_.terms[i], keys[i],
           EstimateEntryCost(scan_snapshot_.counts[i], mean_record)});
    }
    const size_t scanned = candidates.size();
    std::vector<Candidate> victims =
        SelectVictims(std::move(candidates), bytes_needed - freed);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.phases[2].candidates_scanned += scanned;
      stats_.phases[2].heap_selected += victims.size();
    }
    ChargeStage(FlushStage::kSelect);
    if (victims.empty()) break;
    const size_t freed_before = freed;
    for (size_t rank = 0; rank < victims.size(); ++rank) {
      const Candidate& victim = victims[rank];
      freed += EvictEntry(victim.term, /*phase=*/3,
                          static_cast<int64_t>(rank), victim.order_key);
    }
    if (freed == freed_before) break;
  }
  return freed;
}

size_t KFlushingPolicy::NumTerms() const { return index_.NumEntries(); }

size_t KFlushingPolicy::NumKFilledTerms() const {
  return index_.NumEntriesWithAtLeast(k());
}

void KFlushingPolicy::CollectEntrySizes(std::vector<size_t>* out) const {
  index_.ForEachEntry(
      [&](const EntryMeta& meta) { out->push_back(meta.count); });
}

size_t KFlushingPolicy::AuxMemoryBytes() const {
  size_t bytes = 0;
  {
    std::lock_guard<SpinLock> lock(over_k_mu_);
    bytes += over_k_terms_.size() * kBytesPerTrackedTerm;
  }
  // Per-entry last-arrival + last-query timestamps (vs. FIFO, which keeps
  // neither), plus per-record top-k refcounts in MK mode.
  bytes += index_.NumEntries() * 2 * sizeof(Timestamp);
  if (options_.mk_extension) {
    bytes += ctx_.raw_store->size() * sizeof(uint32_t);
  }
  return bytes;
}

size_t KFlushingPolicy::TrackedOverKTerms() const {
  std::lock_guard<SpinLock> lock(over_k_mu_);
  return over_k_terms_.size();
}

}  // namespace kflush
