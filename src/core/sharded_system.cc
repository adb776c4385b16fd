#include "core/sharded_system.h"

#include <algorithm>

#include "core/trace.h"
#include "util/logging.h"

namespace kflush {
namespace {

/// The store a threaded deployment owns: the per-shard flusher threads
/// own flushing, so no shard flushes inline.
ShardedStoreOptions DrivenStoreOptions(const ShardedSystemOptions& options) {
  ShardedStoreOptions so{options.system.store, options.num_shards};
  so.store.auto_flush = false;
  return so;
}

}  // namespace

ShardedMicroblogSystem::ShardedMicroblogSystem(ShardedSystemOptions options)
    : store_(DrivenStoreOptions(options)) {
  systems_.reserve(store_.num_shards());
  for (size_t i = 0; i < store_.num_shards(); ++i) {
    systems_.push_back(std::make_unique<MicroblogSystem>(
        store_.shard(i), options.system.ingest_queue_capacity));
  }
}

ShardedMicroblogSystem::~ShardedMicroblogSystem() { Stop(); }

void ShardedMicroblogSystem::Start() {
  for (auto& system : systems_) system->Start();
}

void ShardedMicroblogSystem::Stop() {
  {
    std::unique_lock<std::mutex> lock(submit_mu_);
    stopping_ = true;
    // Release producers blocked mid-reservation (their Submit unwinds
    // with false and nothing enqueued), then wait for every in-flight
    // submit to finish before any shard queue closes: a submit that
    // already holds all its reservations is guaranteed to commit on
    // every owner shard, never on a subset.
    for (auto& system : systems_) system->queue().AbortReservations();
    submit_cv_.wait(lock, [this] { return in_flight_submits_ == 0; });
  }
  for (auto& system : systems_) system->Stop();
}

bool ShardedMicroblogSystem::BeginSubmit() {
  std::lock_guard<std::mutex> lock(submit_mu_);
  if (stopping_) return false;
  ++in_flight_submits_;
  return true;
}

void ShardedMicroblogSystem::EndSubmit() {
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    --in_flight_submits_;
  }
  submit_cv_.notify_all();
}

bool ShardedMicroblogSystem::CommitReserved(
    RoutedBatch* routed, const std::shared_ptr<IngestTicket>& ticket) {
  const std::vector<size_t>& owners = routed->owners;
  if (ticket != nullptr && !owners.empty()) {
    // Set before any sub-batch is enqueued: a digestion thread may start
    // committing the moment one is pushed, and the final commit must
    // observe the full remaining count.
    ticket->remaining.store(static_cast<uint32_t>(owners.size()),
                            std::memory_order_relaxed);
  }
  for (size_t i = 0; i < owners.size(); ++i) {
    // Every owner holds a reservation, so this never blocks; it can fail
    // only if a shard was stopped out-of-band, which Stop()'s in-flight
    // handshake excludes in the supported lifecycle. If that invariant
    // is ever violated, fail loudly and stop committing: the remaining
    // owners' reservations are returned un-enqueued rather than pushed
    // into an uncounted partial admit.
    if (!systems_[owners[i]]->SubmitReservedRouted(
            IngestBatch{std::move(routed->per_shard[owners[i]]), ticket})) {
      KFLUSH_WARN("CommitReserved: shard "
                  << owners[i]
                  << " rejected a reserved sub-batch (stopped outside the "
                     "Stop() handshake); aborting commit");
      for (size_t j = i + 1; j < owners.size(); ++j) {
        systems_[owners[j]]->queue().CancelReservation();
      }
      return false;
    }
  }
  store_.CountAdmitted(routed->tally);
  return true;
}

ShardedMicroblogSystem::SubmitOutcome ShardedMicroblogSystem::Admit(
    std::vector<Microblog> batch, bool block,
    std::shared_ptr<IngestTicket> ticket, ShardedIngestStats* admitted) {
  TraceSpan span("shard", block ? "route_batch" : "try_route_batch",
                 {TraceArg::Uint("records", batch.size()),
                  TraceArg::Uint("shards", systems_.size())});
  if (!BeginSubmit()) {
    span.End({TraceArg::Uint("copies", 0)});
    return SubmitOutcome::kStopped;
  }
  RoutedBatch routed = store_.RouteBatch(std::move(batch));
  // Phase 1 — reserve a queue slot on every owner shard before enqueueing
  // anything. If any reservation fails the already-held ones are returned
  // and no shard saw any part of the batch: all-or-nothing, so a
  // rejection never means "partially inserted" and a caller retry cannot
  // double-insert.
  size_t held = 0;
  for (; held < routed.owners.size(); ++held) {
    BoundedQueue<IngestBatch>& queue = systems_[routed.owners[held]]->queue();
    if (!(block ? queue.Reserve() : queue.TryReserve())) break;
  }
  SubmitOutcome outcome = SubmitOutcome::kAccepted;
  if (held < routed.owners.size()) {
    for (size_t i = 0; i < held; ++i) {
      systems_[routed.owners[i]]->queue().CancelReservation();
    }
    // A blocking reservation fails only once reservations are aborted.
    outcome = block ? SubmitOutcome::kStopped : SubmitOutcome::kOverloaded;
  } else if (!CommitReserved(&routed, ticket)) {  // Phase 2: never blocks
    outcome = SubmitOutcome::kStopped;
  }
  EndSubmit();
  const bool accepted = outcome == SubmitOutcome::kAccepted;
  span.End({TraceArg::Uint("copies", accepted ? routed.tally.routed_copies
                                              : 0)});
  if (!accepted) return outcome;
  if (ticket != nullptr && routed.owners.empty()) {
    // Accepted with nothing to digest (every record term-less): the
    // commit stage completes at admission.
    ticket->Complete();
  }
  *admitted = routed.tally;
  return outcome;
}

bool ShardedMicroblogSystem::Submit(std::vector<Microblog> batch) {
  ShardedIngestStats admitted;
  return Admit(std::move(batch), /*block=*/true, nullptr, &admitted) ==
         SubmitOutcome::kAccepted;
}

ShardedMicroblogSystem::SubmitOutcome ShardedMicroblogSystem::TrySubmit(
    std::vector<Microblog> batch, uint64_t* admitted_records,
    uint64_t* skipped_records, std::shared_ptr<IngestTicket> ticket) {
  ShardedIngestStats admitted;
  const SubmitOutcome outcome =
      Admit(std::move(batch), /*block=*/false, std::move(ticket), &admitted);
  if (admitted_records != nullptr) {
    *admitted_records = admitted.submitted - admitted.skipped_no_terms;
  }
  if (skipped_records != nullptr) {
    *skipped_records = admitted.skipped_no_terms;
  }
  return outcome;
}

size_t ShardedMicroblogSystem::max_queue_depth() const {
  size_t depth = 0;
  for (const auto& system : systems_) {
    depth = std::max(depth, system->queue_depth());
  }
  return depth;
}

size_t ShardedMicroblogSystem::total_queue_depth() const {
  size_t depth = 0;
  for (const auto& system : systems_) depth += system->queue_depth();
  return depth;
}

Result<QueryResult> ShardedMicroblogSystem::Query(const TopKQuery& query) {
  return store_.engine()->Execute(query);
}

uint64_t ShardedMicroblogSystem::digested() const {
  uint64_t total = 0;
  for (const auto& system : systems_) total += system->digested();
  return total;
}

}  // namespace kflush
