// The continuous-query subsystem. Clients register (keyword | area |
// user, k) subscriptions; the manager maintains each standing top-k
// incrementally from the digestion path (SubscriptionSink::OnInsert) and
// publishes enter/exit deltas, stamped with a contiguous per-subscription
// sequence number, into a per-subscription outbox that the network server
// (or a test) drains.
//
// Eviction integration: when a flush cycle drops the last in-memory
// posting of a record that is a member of a standing result, the manager
// records a member eviction and schedules a disk-backed refill — a
// re-execution of the subscription's snapshot query with
// TopKQuery::force_disk set, so every tier is read and the refill is
// counted as a miss, not as a hit. Refills run lazily at the
// next drain, off the flushing thread, so the hook never re-enters policy
// or disk locks held by the flush. Because records are insert-only with
// immutable scores, a refill must be a no-op on a correct standing
// result; the standing-query differential oracle
// (tests/integration/subscription_oracle_test.cc) holds exactly that
// across all four policies and every shard count.
//
// Locking (acquisition order): registry_mu_ -> Subscription::mu ->
// member_mu_. The notifier runs under its own notifier_mu_ with no
// manager lock held, so NetServer::Stop can quiesce in-flight
// notifications by installing nullptr before closing its wake fd.

#ifndef KFLUSH_SUB_SUBSCRIPTION_MANAGER_H_
#define KFLUSH_SUB_SUBSCRIPTION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/metrics_registry.h"
#include "core/query_engine.h"
#include "index/posting_list.h"
#include "sub/subscription.h"
#include "sub/subscription_sink.h"
#include "util/status.h"

namespace kflush {

class SubscriptionManager : public SubscriptionSink {
 public:
  /// Executes a subscription's top-k over the FULL record set (memory and
  /// disk; implementations set TopKQuery::force_disk). Used for the
  /// initial snapshot at Subscribe, for k increases, and for
  /// eviction-triggered refills.
  using SnapshotFn =
      std::function<Result<QueryResult>(const SubscriptionSpec&, uint32_t)>;

  /// Invoked (with no manager lock held beyond its own serialization)
  /// whenever a subscription's outbox goes from drained to non-empty; the
  /// server uses it to wake the epoll loop for a push write.
  using Notifier = std::function<void(uint64_t sub_id)>;

  explicit SubscriptionManager(SnapshotFn snapshot);
  ~SubscriptionManager() override;

  SubscriptionManager(const SubscriptionManager&) = delete;
  SubscriptionManager& operator=(const SubscriptionManager&) = delete;

  /// Installs/replaces/clears the outbox notifier. Blocks until any
  /// in-flight notification completes, so after set_notifier(nullptr)
  /// returns the previous callback will never run again.
  void set_notifier(Notifier notifier);

  /// Registers the publish hooks on `store` (insert + eviction) and adopts
  /// its attribute/ranking configuration on first attach. The manager
  /// detaches every store in its destructor; the stores must outlive it.
  void AttachStore(MicroblogStore* store);

  /// Registers a standing top-k and seeds it from the snapshot query.
  /// The registration is indexed before the snapshot runs, so an insert
  /// racing Subscribe is either in the snapshot or published as a delta
  /// (enter dedup makes double delivery harmless) — never lost.
  Result<uint64_t> Subscribe(const SubscriptionSpec& spec);

  /// Terminates a subscription. Undrained outbox deltas are counted into
  /// sub.deltas_dropped_on_disconnect. NotFound for unknown ids.
  Status Unsubscribe(uint64_t sub_id);

  /// Changes a subscription's k. Shrinking emits exits for the trimmed
  /// tail; growing refills from the snapshot query.
  Status SetK(uint64_t sub_id, uint32_t k);

  // SubscriptionSink (the digestion/flush-side publish hooks). Both cost
  // one relaxed atomic load when no subscription is active.
  void OnInsert(const Microblog& blog, const std::vector<TermId>& terms,
                double score) override;
  void OnRecordEvicted(MicroblogId id) override;

  /// Moves the subscription's pending deltas into `out` (appended) after
  /// applying any pending eviction refills. Drained deltas count as
  /// pushed: the caller owns their delivery from here. Returns false for
  /// unknown ids.
  bool DrainDeltas(uint64_t sub_id, std::vector<SubDelta>* out);

  /// True while the subscription's outbox holds deltas not yet drained
  /// (false for unknown ids).
  bool HasUndrainedDeltas(uint64_t sub_id) const;

  /// Copies the current standing result, best-first. Returns false for
  /// unknown ids.
  bool SnapshotMembers(uint64_t sub_id, std::vector<Posting>* out) const;

  /// Applies queued eviction refills now (DrainDeltas does this
  /// implicitly; tests call it to reach quiescence without draining).
  void ProcessPendingRefills();

  /// Unsubscribes everything (undrained deltas count as dropped).
  /// Idempotent; the destructor calls it.
  void Shutdown();

  size_t num_active() const {
    return active_.load(std::memory_order_acquire);
  }

  /// Record ids whose eviction hit at least one standing result, in
  /// eviction order (capped; for the oracle's audit assertions).
  std::vector<MicroblogId> member_eviction_ids() const;

  /// The sub.* instrument family. The server also counts sub.pushes (push
  /// frames written) here so one registry carries the whole story.
  MetricsRegistry* metrics_registry() { return &metrics_; }
  const MetricsRegistry* metrics_registry() const { return &metrics_; }

 private:
  struct Subscription {
    uint64_t id = 0;
    SubscriptionSpec spec;
    /// Tile terms (area) or the single term (keyword/user) this
    /// subscription is indexed under in by_term_.
    std::vector<TermId> index_terms;

    mutable std::mutex mu;
    uint32_t k = 0;                   // guarded by mu
    std::vector<Posting> members;     // guarded by mu; RanksBefore order
    std::unordered_set<MicroblogId> member_ids;  // guarded by mu
    std::deque<SubDelta> outbox;      // guarded by mu
    uint64_t next_seq = 1;            // guarded by mu
  };

  /// True iff `blog` is a member of the subscription's logical result set
  /// (term routing got it here; this applies the kind-specific filter —
  /// for areas, the shared boundary predicate AreaContains).
  static bool Matches(const Subscription& sub, const Microblog& blog);

  /// Offers one record to the standing result. Emits enter (and a
  /// displaced exit) deltas as needed; duplicate offers are no-ops.
  /// Returns true if any delta was emitted. Caller must NOT hold sub->mu.
  bool Offer(Subscription* sub, const Microblog& blog, double score);

  /// Appends one delta to the outbox and stamps seq. Requires sub->mu.
  void EmitLocked(Subscription* sub, SubDeltaKind kind, double score,
                  MicroblogId id, const Microblog* record,
                  bool* was_empty);

  /// Runs the snapshot query and offers every result (Subscribe seed, k
  /// growth, eviction refill).
  void RefillFromSnapshot(const std::shared_ptr<Subscription>& sub);

  void Notify(uint64_t sub_id);
  void TrackEnter(MicroblogId id, uint64_t sub_id);
  void TrackExit(MicroblogId id, uint64_t sub_id);

  Status ValidateSpec(const SubscriptionSpec& spec,
                      std::vector<TermId>* index_terms) const;

  /// Drops a subscription already removed from the registry: counts its
  /// undrained outbox as dropped and unlinks member tracking.
  void FinishUnsubscribe(const std::shared_ptr<Subscription>& sub);

  SnapshotFn snapshot_;

  mutable std::shared_mutex registry_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Subscription>> subs_;
  std::unordered_map<TermId, std::vector<uint64_t>> by_term_;
  uint64_t next_sub_id_ = 1;

  // Deployment configuration adopted from the first attached store.
  AttributeKind attribute_ = AttributeKind::kKeyword;
  const RankingFunction* ranking_ = nullptr;
  const SpatialGridMapper* mapper_ = nullptr;
  std::vector<MicroblogStore*> attached_;

  // Membership tracking for eviction integration (leaf lock).
  mutable std::mutex member_mu_;
  std::unordered_map<MicroblogId, std::vector<uint64_t>> member_holders_;
  std::vector<MicroblogId> member_evictions_log_;
  std::deque<uint64_t> pending_refills_;

  std::mutex notifier_mu_;
  Notifier notifier_;

  std::atomic<size_t> active_{0};

  MetricsRegistry metrics_;
  Counter* registered_counter_;
  Counter* unsubscribed_counter_;
  Counter* published_counter_;
  Counter* pushed_counter_;
  Counter* dropped_counter_;
  Counter* member_evictions_counter_;
  Counter* refills_counter_;
  Counter* snapshot_queries_counter_;
  Gauge* active_gauge_;
};

/// Wires a manager to the deployment `engine` queries: installs the
/// insert/eviction sinks on every one of its shard stores and runs the
/// force-disk snapshot queries on `engine`. The returned manager must be
/// destroyed before the deployment it watches.
std::unique_ptr<SubscriptionManager> MakeSubscriptions(QueryEngine* engine);

}  // namespace kflush

#endif  // KFLUSH_SUB_SUBSCRIPTION_MANAGER_H_
