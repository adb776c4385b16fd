#include "core/sharded_system.h"

#include <algorithm>

#include "core/trace.h"
#include "util/logging.h"

namespace kflush {

ShardedMicroblogSystem::ShardedMicroblogSystem(ShardedSystemOptions options)
    : options_(options), routing_(options.system.store, options.num_shards) {
  const size_t n = routing_.router().num_shards();
  layout_status_ = OpenShardLayout(&options_.system.store, n);
  systems_.reserve(n);
  std::vector<MicroblogStore*> stores;
  for (size_t i = 0; i < n; ++i) {
    SystemOptions so = options_.system;
    so.store = ShardStoreOptions(options_.system.store, n, i);
    systems_.push_back(std::make_unique<MicroblogSystem>(so));
    routing_.ResumePast(*systems_.back()->store());
    stores.push_back(systems_.back()->store());
  }
  engine_ = std::make_unique<QueryEngine>(std::move(stores));
}

Status ShardedMicroblogSystem::DurabilityStatus() const {
  if (!layout_status_.ok()) return layout_status_;
  for (const auto& system : systems_) {
    const Status& s = system->store()->durability_status();
    if (!s.ok()) return s;
  }
  return Status::OK();
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
    for (auto& system : systems_) system->AbortIngestReservations();
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

ShardedMicroblogSystem::RoutedBatch ShardedMicroblogSystem::RouteBatch(
    std::vector<Microblog> batch) {
  RoutedBatch routed;
  routed.per_shard.resize(systems_.size());
  // Per-record scratch, hoisted out of the loop: the routing hot path
  // must not allocate O(num_shards) vectors per record.
  RoutedTerms terms;
  for (Microblog& blog : batch) {
    if (!routing_.Route(&blog, &terms)) {
      ++routed.skipped;
      continue;
    }
    ++routed.records;
    const std::vector<size_t>& owners = terms.owners;
    routed.copies += owners.size();
    for (size_t i = 0; i + 1 < owners.size(); ++i) {
      IngestBatch& dest = routed.per_shard[owners[i]];
      dest.blogs.push_back(blog);
      dest.routed_terms.push_back(std::move(terms.owned[owners[i]]));
    }
    const size_t last = owners.back();
    routed.per_shard[last].blogs.push_back(std::move(blog));
    routed.per_shard[last].routed_terms.push_back(
        std::move(terms.owned[last]));
  }
  for (size_t i = 0; i < routed.per_shard.size(); ++i) {
    if (!routed.per_shard[i].blogs.empty()) routed.owners.push_back(i);
  }
  return routed;
}

bool ShardedMicroblogSystem::CommitReserved(RoutedBatch* routed) {
  for (size_t i = 0; i < routed->owners.size(); ++i) {
    const size_t owner = routed->owners[i];
    // Every owner holds a reservation, so this never blocks; it can fail
    // only if a shard was stopped out-of-band, which Stop()'s in-flight
    // handshake excludes in the supported lifecycle. If that invariant
    // is ever violated, fail loudly and stop committing: the remaining
    // owners' reservations are returned un-enqueued rather than pushed
    // into an untallied partial admit.
    if (!systems_[owner]->SubmitReservedRouted(
            std::move(routed->per_shard[owner]))) {
      KFLUSH_WARN("CommitReserved: shard "
                  << owner
                  << " rejected a reserved sub-batch (stopped outside the "
                     "Stop() handshake); aborting commit");
      for (size_t j = i + 1; j < routed->owners.size(); ++j) {
        systems_[routed->owners[j]]->CancelIngestReservation();
      }
      return false;
    }
  }
  accepted_.fetch_add(routed->records + routed->skipped,
                      std::memory_order_relaxed);
  skipped_no_terms_.fetch_add(routed->skipped, std::memory_order_relaxed);
  routed_copies_.fetch_add(routed->copies, std::memory_order_relaxed);
  return true;
}

bool ShardedMicroblogSystem::Submit(std::vector<Microblog> batch) {
  TraceSpan span("shard", "route_batch",
                 {TraceArg::Uint("records", batch.size()),
                  TraceArg::Uint("shards", systems_.size())});
  if (!BeginSubmit()) {
    span.End({TraceArg::Uint("copies", 0)});
    return false;
  }
  RoutedBatch routed = RouteBatch(std::move(batch));
  // Phase 1 — reserve a queue slot on every owner shard (blocking under
  // per-shard backpressure) before enqueueing anything. If any
  // reservation fails the already-held ones are returned and no shard
  // saw any part of the batch: all-or-nothing, so false can never mean
  // "partially inserted" and a caller retry cannot double-insert.
  size_t held = 0;
  bool ok = true;
  for (; held < routed.owners.size(); ++held) {
    if (!systems_[routed.owners[held]]->ReserveIngestSlot()) {
      ok = false;
      break;
    }
  }
  if (!ok) {
    for (size_t i = 0; i < held; ++i) {
      systems_[routed.owners[i]]->CancelIngestReservation();
    }
    EndSubmit();
    span.End({TraceArg::Uint("copies", 0)});
    return false;
  }
  // Phase 2 — commit into the reserved slots (never blocks).
  const bool accepted = CommitReserved(&routed);
  EndSubmit();
  span.End({TraceArg::Uint("copies", accepted ? routed.copies : 0)});
  return accepted;
}

ShardedMicroblogSystem::SubmitOutcome ShardedMicroblogSystem::TrySubmit(
    std::vector<Microblog> batch, uint64_t* admitted_records,
    uint64_t* skipped_records, std::shared_ptr<IngestTicket> ticket) {
  TraceSpan span("shard", "try_route_batch",
                 {TraceArg::Uint("records", batch.size()),
                  TraceArg::Uint("shards", systems_.size())});
  if (admitted_records != nullptr) *admitted_records = 0;
  if (skipped_records != nullptr) *skipped_records = 0;
  if (!BeginSubmit()) {
    span.End({TraceArg::Uint("copies", 0)});
    return SubmitOutcome::kStopped;
  }
  RoutedBatch routed = RouteBatch(std::move(batch));
  size_t held = 0;
  bool ok = true;
  for (; held < routed.owners.size(); ++held) {
    if (!systems_[routed.owners[held]]->TryReserveIngestSlot()) {
      ok = false;
      break;
    }
  }
  if (!ok) {
    for (size_t i = 0; i < held; ++i) {
      systems_[routed.owners[i]]->CancelIngestReservation();
    }
    EndSubmit();
    span.End({TraceArg::Uint("copies", 0)});
    return SubmitOutcome::kOverloaded;
  }
  if (ticket != nullptr && !routed.owners.empty()) {
    // Attach before any sub-batch is enqueued: a digestion thread may
    // start committing the moment CommitReserved pushes, and the final
    // commit must observe the full remaining count.
    ticket->remaining.store(static_cast<uint32_t>(routed.owners.size()),
                            std::memory_order_relaxed);
    for (size_t owner : routed.owners) {
      routed.per_shard[owner].ticket = ticket;
    }
  }
  const bool accepted = CommitReserved(&routed);
  EndSubmit();
  span.End({TraceArg::Uint("copies", accepted ? routed.copies : 0)});
  if (!accepted) return SubmitOutcome::kStopped;
  if (ticket != nullptr && routed.owners.empty()) {
    // Accepted with nothing to digest (every record term-less): the
    // commit stage completes at admission.
    ticket->Complete();
  }
  if (admitted_records != nullptr) *admitted_records = routed.records;
  if (skipped_records != nullptr) *skipped_records = routed.skipped;
  return SubmitOutcome::kAccepted;
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
  return engine_->Execute(query);
}

void ShardedMicroblogSystem::SetK(uint32_t k) {
  for (auto& system : systems_) system->store()->SetK(k);
}

uint64_t ShardedMicroblogSystem::digested() const {
  uint64_t total = 0;
  for (const auto& system : systems_) total += system->digested();
  return total;
}

}  // namespace kflush
