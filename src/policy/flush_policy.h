// The flushing-policy abstraction. A policy owns the in-memory index
// structure (policies are *structural* in this system: FIFO really is a
// temporally segmented index, LRU really maintains a global access list)
// and implements three responsibilities:
//
//   1. ingest  — index a newly stored microblog,
//   2. query   — serve best-ranked in-memory postings for a term,
//   3. flush   — free at least the requested bytes, moving victims to disk
//                through the shared raw store / flush buffer machinery.
//
// The problem statement (paper §II-C): given in-memory microblogs S and a
// flushing budget B, pick s ⊆ S consuming at least B that maximizes the
// memory hit ratio of incoming top-k queries.

#ifndef KFLUSH_POLICY_FLUSH_POLICY_H_
#define KFLUSH_POLICY_FLUSH_POLICY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/trace.h"
#include "index/posting_list.h"
#include "model/attribute.h"
#include "model/microblog.h"
#include "storage/disk_store.h"
#include "storage/flush_buffer.h"
#include "storage/raw_store.h"
#include "util/clock.h"
#include "util/histogram.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace kflush {

class SubscriptionSink;

/// The four evaluated policies (paper §V).
enum class PolicyKind : int {
  kFifo = 0,     // temporal flushing over a segmented index (baseline)
  kLru,          // H-Store-style anti-caching with a global LRU list
  kKFlushing,    // the paper's three-phase policy
  kKFlushingMK,  // kFlushing + the multiple-keyword extension (§IV-D)
};

const char* PolicyKindName(PolicyKind kind);

/// Shared infrastructure handed to every policy.
struct PolicyContext {
  RawDataStore* raw_store = nullptr;
  DiskStore* disk_store = nullptr;
  FlushBuffer* flush_buffer = nullptr;
  MemoryTracker* tracker = nullptr;
  Clock* clock = nullptr;
  /// Used by policies that must recover a record's terms at flush time
  /// (LRU eviction, kFlushing-MK rules).
  const AttributeExtractor* extractor = nullptr;
  /// Shard this policy serves in a sharded deployment; -1 = standalone.
  /// Labels flush-cycle trace spans and eviction audit records so the
  /// concurrent per-shard cycles remain distinguishable after the fact.
  int shard_id = -1;
};

/// Per-phase breakdown of flushing work. Indices 0..2 are kFlushing's
/// Phases 1..3; single-phase policies (FIFO, LRU) report everything under
/// index 0. These counters back the metrics registry's `flush.phaseN.*`
/// taxonomy (docs/INTERNALS.md) and the conservation invariant
///   records_flushed == Σ phases[i].records.
struct PhaseStats {
  uint64_t runs = 0;                // times the phase body executed
  uint64_t candidates_scanned = 0;  // entries examined by the phase's scan
  uint64_t heap_selected = 0;       // victims chosen by the max-heap pass
  uint64_t postings = 0;            // postings dropped by this phase
  uint64_t entries = 0;             // whole entries evicted by this phase
  uint64_t records = 0;             // records moved to disk via this phase
  uint64_t record_bytes = 0;        // bytes of those records
  uint64_t bytes_freed = 0;         // total data bytes freed by this phase
  uint64_t micros = 0;              // wall time spent in the phase body
};

/// The stages one flush cycle's wall time is split into
/// (flush.stage_micros.<name>, docs/INTERNALS.md):
///   select — choosing victims: L's swap and sort, index snapshots,
///            candidate builds, SelectVictims, MK keep-sets, LRU's
///            PopColdest and victim terms, and the policy's own
///            bookkeeping;
///   index  — unlinking victims from the in-memory index (TrimBeyondK,
///            RemoveMatching, RemoveId, FIFO's segment pop) and
///            registering their postings on disk, which happens under the
///            index lock (RegisterOnDisk);
///   drop   — DropPostings: raw-store releases, buffer appends;
///   drain  — the flush buffer's DrainTo.
enum class FlushStage : int { kSelect = 0, kIndex, kDrop, kDrain };
constexpr int kNumFlushStages = 4;
const char* FlushStageName(FlushStage stage);

/// Cumulative policy statistics.
struct PolicyStats {
  uint64_t flush_cycles = 0;
  uint64_t records_flushed = 0;
  uint64_t record_bytes_flushed = 0;
  uint64_t postings_dropped = 0;
  /// Per-phase contributions (see PhaseStats; [0] = Phase 1 / only phase).
  PhaseStats phases[3];
  /// Wall time per flush cycle, microseconds.
  Histogram cycle_micros;
  /// CPU time the flushing thread burned per cycle, microseconds. Differs
  /// from cycle_micros when cores are oversubscribed (the wall clock keeps
  /// ticking while the flusher is descheduled); the shard-scaling bench's
  /// work-span series reads this one.
  Histogram cycle_cpu_micros;
  /// Wall time per flush cycle and stage (indexed by FlushStage), one
  /// sample per cycle (0 for a stage that did not run). The stages
  /// partition the cycle: per cycle they sum to its cycle_micros sample.
  Histogram stage_micros[kNumFlushStages];

  std::string ToString() const;
};

/// Accumulates `in` into `out`: counters and per-phase fields add, cycle
/// histograms merge. The sharded deployment reports one PolicyStats per
/// shard; experiment/bench aggregation folds them with this so the
/// conservation invariants (records_flushed == Σ phases[i].records, audit
/// reconciliation) keep holding on the aggregate.
void MergePolicyStats(const PolicyStats& in, PolicyStats* out);

/// Abstract flushing policy. Insert/QueryTerm may be called concurrently
/// from many threads; Flush is called from one flushing thread at a time.
class FlushPolicy {
 public:
  explicit FlushPolicy(const PolicyContext& ctx, uint32_t k);
  virtual ~FlushPolicy() = default;

  FlushPolicy(const FlushPolicy&) = delete;
  FlushPolicy& operator=(const FlushPolicy&) = delete;

  virtual PolicyKind kind() const = 0;
  const char* name() const { return PolicyKindName(kind()); }

  /// Indexes `blog` (already Put into the raw store with
  /// pcount == terms.size()) under each of `terms` with ranking `score`.
  virtual void Insert(const Microblog& blog, const std::vector<TermId>& terms,
                      double score) = 0;

  /// Appends up to `limit` best-ranked in-memory postings for `term` to
  /// `out` in (score desc, id desc) order — each the record id plus the
  /// score fixed at its arrival (§IV-B), so readers never re-read the
  /// record to rank it. Returns the count appended. The call is a user
  /// query: kFlushing stamps the term's last-query time (Phase 3's key);
  /// LRU's recency moves through OnResultAccess instead.
  virtual size_t QueryTerm(TermId term, size_t limit,
                           std::vector<Posting>* out) = 0;

  /// In-memory postings under `term`.
  virtual size_t EntrySize(TermId term) const = 0;

  /// Notifies the policy that these microblogs were returned to a user
  /// query. LRU moves them to the MRU head (the H-Store access path);
  /// other policies keep recency per term, not per item, and ignore this.
  virtual void OnResultAccess(const std::vector<MicroblogId>& ids) {
    (void)ids;
  }

  /// Frees at least `bytes_needed` of data memory (best effort: returns
  /// the bytes actually freed, which is less only when memory is
  /// exhausted of candidates). Victim records are registered with the disk
  /// store; the flush buffer is drained before returning.
  size_t Flush(size_t bytes_needed);

  /// Changes k. Takes effect at the next flush cycle (paper §IV-C).
  virtual void SetK(uint32_t k);
  uint32_t k() const { return k_.load(std::memory_order_relaxed); }

  /// --- introspection (experiment metrics) ---
  virtual size_t NumTerms() const = 0;
  /// Entries holding >= k postings: the "k-filled" metric of Figures 7/11/12.
  virtual size_t NumKFilledTerms() const = 0;
  /// Per-entry posting counts, for frequency snapshots (Figure 1 analysis).
  virtual void CollectEntrySizes(std::vector<size_t>* out) const = 0;
  /// Policy bookkeeping bytes beyond raw data + index (Figure 10(a)).
  virtual size_t AuxMemoryBytes() const = 0;

  PolicyStats stats() const;

  /// Installs (or, with nullptr, removes) the sink for per-victim eviction
  /// audit records. Call while no flush is running; the single flushing
  /// thread reads the pointer without synchronization.
  void set_audit_trail(EvictionAuditTrail* trail) { audit_trail_ = trail; }
  EvictionAuditTrail* audit_trail() const { return audit_trail_; }

  /// Installs (or, with nullptr, removes) the continuous-query publish
  /// sink, notified when a record's last in-memory posting is dropped and
  /// the record leaves the memory tier. Atomic — unlike the audit trail,
  /// a server may install it while the background flusher is mid-cycle.
  void set_subscription_sink(SubscriptionSink* sink) {
    sub_sink_.store(sink, std::memory_order_release);
  }

 protected:
  /// Subclass flush body; returns bytes freed.
  virtual size_t FlushImpl(size_t bytes_needed) = 0;

  /// --- victim-scoped audit accumulation (flush thread only, same
  /// single-thread contract as current_phase_) ---
  ///
  /// A policy brackets each victim — a trimmed entry (kFlushing Phase 1),
  /// an evicted entry (Phases 2/3), a flushed segment (FIFO), an unlinked
  /// record (LRU) — with BeginVictim/EndVictim. DropPostings calls in
  /// between accumulate postings/records/record bytes into the open scope;
  /// EndVictim takes the victim's exact bytes-freed delta (the same number
  /// the policy adds to its phase total, so per-phase audit sums reconcile
  /// exactly with PhaseStats) and the whole entries it removed, then
  /// appends to the audit trail (if installed) and emits a "flush"/
  /// "evict_victim" trace instant (if tracing is on).
  void BeginVictim(int phase, TermId term, int64_t heap_rank = -1,
                   Timestamp order_key = 0,
                   MicroblogId record_id = kInvalidMicroblogId);
  void EndVictim(uint64_t bytes_freed, uint64_t entries_evicted = 0);

  /// Registers `run`, postings leaving `term`'s in-memory entry, with the
  /// disk store in one call. Call it from the index removal's handoff,
  /// while the index lock is still held, so a reader finds every posting
  /// in memory or on disk (index shard -> disk store is the lock order).
  void RegisterOnDisk(TermId term, const std::vector<Posting>& run);

  /// Standard handling for a run of postings that left an in-memory entry
  /// and is already on disk (RegisterOnDisk); call it after the index
  /// operation, never under an index lock. Releases one raw-store
  /// reference per posting and appends every record whose last reference
  /// that was to the flush buffer, still encoded — all under the buffer
  /// lock, so a reader never misses a record between the two tiers.
  /// Returns the data bytes freed (posting bytes, plus record bytes of the
  /// records that left memory).
  size_t DropPostings(const std::vector<Posting>& run);

  /// Charges the wall time since the previous stage boundary of this
  /// cycle to `stage` (flush thread only). Every interval between two
  /// clock reads of a cycle goes to exactly one stage.
  void ChargeStage(FlushStage stage);

  Timestamp Now() const { return ctx_.clock->NowMicros(); }

  PolicyContext ctx_;
  std::atomic<uint32_t> k_;
  mutable std::mutex stats_mu_;
  PolicyStats stats_;
  /// Phase DropPostings attributes its work to (1..3). Flush resets it
  /// to 1 before FlushImpl, so single-phase policies need not touch it;
  /// kFlushing sets it around each phase body. Only the single flushing
  /// thread reads or writes it, so a plain int is race-free by contract.
  int current_phase_ = 1;

  /// Victim scope state (flush thread only; see BeginVictim/EndVictim).
  EvictionAuditTrail* audit_trail_ = nullptr;
  bool victim_open_ = false;
  EvictionAuditRecord victim_;

  /// Continuous-query eviction hook (see set_subscription_sink).
  std::atomic<SubscriptionSink*> sub_sink_{nullptr};

 private:
  /// The running cycle's stage clock (flush thread only): the last
  /// boundary read and the micros charged to each stage so far.
  Timestamp stage_last_ = 0;
  uint64_t cycle_stage_micros_[kNumFlushStages] = {};
  /// DropPostings scratch: ids of the records the run evicted.
  std::vector<MicroblogId> evicted_;
};

/// Cross-checks an eviction audit trail against the aggregate PhaseStats
/// counters: for each phase, the audit records' postings / entries /
/// records / record-bytes / bytes-freed sums must equal the corresponding
/// PhaseStats fields exactly (both are fed by the same per-victim deltas,
/// so any drift means an instrumentation bug). Returns OK on an exact
/// match, Internal describing the first mismatch otherwise. The trail must
/// cover the policy's whole lifetime (installed before the first flush).
Status ReconcileAuditWithStats(const std::vector<EvictionAuditRecord>& records,
                               const PolicyStats& stats);

}  // namespace kflush

#endif  // KFLUSH_POLICY_FLUSH_POLICY_H_
