// MicroblogSystem: the threads that drive one shard of the deployment of
// Figure 2 (the public facade is ShardedMicroblogSystem; one shard is the
// single node). It borrows the shard's store from the
// ShardedMicroblogStore the facade owns. The facade pushes routed
// sub-batches into a bounded queue; one digestion thread drains it into
// the store in real time; a background flusher thread wakes when memory
// fills and runs the policy's flush cycle concurrently with digestion
// (paper §III: flushing phases run "in a separate thread so that [they
// do] not noticeably interrupt the continuous digestion of incoming
// data").

#ifndef KFLUSH_CORE_SYSTEM_H_
#define KFLUSH_CORE_SYSTEM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/metrics_registry.h"
#include "core/sharded_store.h"
#include "core/store.h"
#include "util/thread_util.h"

namespace kflush {

/// System configuration.
struct SystemOptions {
  StoreOptions store;
  /// Capacity of the ingest queue, in batches.
  size_t ingest_queue_capacity = 1024;
};

/// Digestion pauses when a shard's data memory exceeds its budget × this
/// factor, resuming once the flusher catches up (bounds memory under
/// stress).
inline constexpr double kIngestStallFactor = 1.2;

/// Per-request observability ticket, threaded from the network front-end
/// through routed admission to the durable commit of the final owner
/// sub-batch. A ticket is shared by every sub-batch of one wire request;
/// the digestion thread that durably commits the last of them records the
/// commit-stage latency into `commit_hist`, closes the request's trace
/// flow, and emits the slow-request log when over threshold.
/// `registry_keepalive` pins the registry that owns `commit_hist`, so a
/// ticket still queued when its server is torn down cannot record into
/// freed memory.
struct IngestTicket {
  uint64_t request_id = 0;
  /// MonotonicMicros() at the moment admission succeeded.
  uint64_t admit_micros = 0;
  /// Owner sub-batches not yet durably committed.
  std::atomic<uint32_t> remaining{0};
  ConcurrentHistogram* commit_hist = nullptr;
  /// Commit-stage latencies at or above this emit one structured
  /// slow-request log line (0 disables).
  uint64_t slow_micros = 0;
  std::shared_ptr<MetricsRegistry> registry_keepalive;

  /// Records the commit-stage sample and closes the request flow. Called
  /// once per request: by the last SubBatchCommitted(), or directly by
  /// the router for an accepted request with no owner sub-batches.
  void Complete();
  /// Marks one owner sub-batch durably committed.
  void SubBatchCommitted() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) Complete();
  }
};

/// A queued unit of ingest work: one shard's part of a routed batch, so
/// the shard indexes only the terms it owns. `ticket`, when set,
/// correlates this sub-batch back to the wire request that produced it.
struct IngestBatch : ShardBatch {
  std::shared_ptr<IngestTicket> ticket;
};

/// The threads of one shard. Start() launches the digestion and flusher
/// threads; Stop() drains and joins them. A system runs once: after
/// Stop() the ingest queue is closed for good (construct a new system to
/// restart), though the store stays queryable.
class MicroblogSystem {
 public:
  /// Drives `store`, which must outlive the system and must not flush
  /// inline (StoreOptions::auto_flush off): the flusher thread owns
  /// flushing.
  MicroblogSystem(MicroblogStore* store, size_t ingest_queue_capacity);
  ~MicroblogSystem();

  MicroblogSystem(const MicroblogSystem&) = delete;
  MicroblogSystem& operator=(const MicroblogSystem&) = delete;

  void Start();

  /// Closes the ingest queue, drains remaining batches, and joins all
  /// threads. Idempotent and safe to call concurrently (e.g. an explicit
  /// Stop racing the destructor); exactly one caller performs the teardown.
  /// Safe to call mid-flush: a digestion thread stalled on backpressure is
  /// released rather than waited on.
  void Stop();

  /// The ingest queue. ShardedMicroblogSystem admits a routed batch all or
  /// nothing across shards: it reserves one slot on every owner shard's
  /// queue first, then pushes every sub-batch into its reserved slot
  /// (SubmitReservedRouted, which never blocks), or cancels every
  /// reservation and admits nothing.
  BoundedQueue<IngestBatch>& queue() { return queue_; }
  /// Enqueues into a reserved slot; false (nothing enqueued) iff stopped.
  bool SubmitReservedRouted(IngestBatch batch);

  /// Current ingest-queue depth in batches (lock-free estimate).
  size_t queue_depth() const { return queue_.approx_size(); }

  /// Total microblogs digested so far.
  uint64_t digested() const { return digested_.load(std::memory_order_relaxed); }

 private:
  void DigestionLoop();
  void FlusherLoop();

  MicroblogStore* const store_;
  BoundedQueue<IngestBatch> queue_;

  std::thread digestion_thread_;
  std::thread flusher_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> digested_{0};

  std::mutex flush_mu_;
  std::condition_variable flush_cv_;    // digestion -> flusher: memory full
  std::condition_variable unstall_cv_;  // flusher -> digestion: space freed
  bool flush_wanted_ = false;
  /// Set by the flusher when a cycle frees nothing while over budget, so a
  /// stalled digestion thread proceeds (overshoots) instead of deadlocking.
  bool flush_stuck_ = false;

  // Registry instruments (resolved once against the store's registry;
  // `system.*` taxonomy — see docs/INTERNALS.md). Digestion rate =
  // system.records_digested / system.digest_micros_per_batch's sum.
  Gauge* queue_depth_gauge_;
  Counter* batches_submitted_;
  Counter* batches_digested_;
  Counter* records_digested_;
  Counter* digestion_stalls_;
  Counter* flush_wakeups_;
  Counter* flush_stuck_events_;
  ConcurrentHistogram* batch_size_hist_;
  ConcurrentHistogram* digest_micros_hist_;
  ConcurrentHistogram* digest_cpu_micros_hist_;
};

}  // namespace kflush

#endif  // KFLUSH_CORE_SYSTEM_H_
