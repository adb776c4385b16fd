// ShardedMicroblogSystem: the threads that drive the deployment (paper
// Figure 2). It owns one ShardedMicroblogStore and runs one
// MicroblogSystem per shard over it (a bounded ingest queue, a digestion
// thread and a background flusher); one shard is the single node. Submit()
// has the store stamp and route each producer batch, then admits the
// per-shard sub-batches to the queues all or nothing. Flush cycles run
// concurrently on independent shard locks (each shard's flusher drives
// only its own store); queries run on the store's QueryEngine. The
// network front-end, the digestion-rate experiment (Figure 10(b)) and
// bench_shard_scaling drive this assembly.

#ifndef KFLUSH_CORE_SHARDED_SYSTEM_H_
#define KFLUSH_CORE_SHARDED_SYSTEM_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "core/sharded_store.h"
#include "core/system.h"

namespace kflush {

/// Sharded system configuration.
struct ShardedSystemOptions {
  /// Per-shard template; store.memory_budget_bytes is the TOTAL budget
  /// (split across the shards by ShardedMicroblogStore), the queue
  /// capacity applies per shard.
  SystemOptions system;
  size_t num_shards = 1;
};

class ShardedMicroblogSystem {
 public:
  explicit ShardedMicroblogSystem(ShardedSystemOptions options);
  ~ShardedMicroblogSystem();

  ShardedMicroblogSystem(const ShardedMicroblogSystem&) = delete;
  ShardedMicroblogSystem& operator=(const ShardedMicroblogSystem&) = delete;

  void Start();
  /// Stops every shard system (drains queues, joins threads). Idempotent.
  void Stop();

  /// Stamps ids/timestamps centrally, routes each record's terms, and
  /// submits one routed sub-batch per owning shard. Admission is
  /// all-or-nothing: a queue slot is reserved on every owner shard
  /// (blocking under backpressure) before any sub-batch is enqueued, so a
  /// batch is either fully admitted on all owners or not at all — false
  /// means no shard holds any part of it and a retry cannot double-insert.
  /// Returns false once stopped. Term-less records are counted and
  /// dropped here.
  bool Submit(std::vector<Microblog> batch);

  /// Non-blocking admission outcome for TrySubmit.
  enum class SubmitOutcome {
    kAccepted,    // every owner shard admitted its sub-batch
    kOverloaded,  // some owner shard's ingest queue was full; nothing
                  // was admitted anywhere (explicit-NACK material)
    kStopped,     // the system is stopping; nothing was admitted
  };

  /// Like Submit, but never blocks: if any owner shard's queue is full
  /// the whole batch is rejected with kOverloaded and no shard receives
  /// any part of it. The network front-end turns kOverloaded into a
  /// protocol-level NACK instead of stalling the event loop.
  /// `admitted_records`/`skipped_records` (optional) report how many
  /// records were admitted with terms / dropped as term-less on success.
  /// `ticket` (optional) is attached to every owner sub-batch so the
  /// digestion thread committing the last one can close the request's
  /// commit-stage clock; an accepted batch with no owner sub-batches
  /// (every record term-less) Completes the ticket here.
  SubmitOutcome TrySubmit(std::vector<Microblog> batch,
                          uint64_t* admitted_records = nullptr,
                          uint64_t* skipped_records = nullptr,
                          std::shared_ptr<IngestTicket> ticket = nullptr);

  /// Deepest per-shard ingest queue, in batches (lock-free estimate);
  /// the admission signal the network front-end gates on.
  size_t max_queue_depth() const;
  /// Sum of per-shard ingest-queue depths (lock-free estimate).
  size_t total_queue_depth() const;

  /// Fan-out query against current contents (thread-safe, any time).
  Result<QueryResult> Query(const TopKQuery& query);

  /// The store's DurabilityStatus().
  Status DurabilityStatus() const { return store_.DurabilityStatus(); }

  /// The store this system drives: queries, SetK and the Aggregated*
  /// readers.
  ShardedMicroblogStore* store() { return &store_; }
  size_t num_shards() const { return systems_.size(); }
  MicroblogStore* shard_store(size_t i) { return store_.shard(i); }

  /// Records in admitted batches (including term-less records that were
  /// dropped by the router); rejected batches contribute nothing.
  uint64_t accepted() const { return store_.sharded_ingest_stats().submitted; }
  /// Per-shard record copies routed (a record on s shards counts s).
  uint64_t routed_copies() const {
    return store_.sharded_ingest_stats().routed_copies;
  }
  /// Term-less records dropped by the router.
  uint64_t skipped_no_terms() const {
    return store_.sharded_ingest_stats().skipped_no_terms;
  }
  /// Sum of copies digested across shards.
  uint64_t digested() const;

 private:
  /// The one admission routine behind Submit (`block`: wait for queue
  /// space) and TrySubmit (reject when a queue is full). On kAccepted,
  /// `*admitted` holds the batch's tally; otherwise it stays zero.
  SubmitOutcome Admit(std::vector<Microblog> batch, bool block,
                      std::shared_ptr<IngestTicket> ticket,
                      ShardedIngestStats* admitted);
  /// Registers an in-flight submit; false once stopping (nothing to undo).
  bool BeginSubmit();
  void EndSubmit();
  /// Pushes every owner sub-batch into its reserved slot and counts the
  /// batch. Requires a reservation held on every owner shard.
  bool CommitReserved(RoutedBatch* routed,
                      const std::shared_ptr<IngestTicket>& ticket);

  // Declared before the shard systems, so every digestion and flusher
  // thread has joined before any shard store (and its final WAL commit)
  // is destroyed.
  ShardedMicroblogStore store_;
  std::vector<std::unique_ptr<MicroblogSystem>> systems_;

  // Stop() handshake: new submits are refused once stopping_ is set, and
  // shard teardown waits for in-flight submits to unwind (their blocked
  // reservations are aborted) so a half-reserved batch can never race a
  // closing queue into a partial admit.
  std::mutex submit_mu_;
  std::condition_variable submit_cv_;
  bool stopping_ = false;
  size_t in_flight_submits_ = 0;
};

}  // namespace kflush

#endif  // KFLUSH_CORE_SHARDED_SYSTEM_H_
