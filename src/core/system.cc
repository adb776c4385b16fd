#include "core/system.h"

#include "core/trace.h"
#include "util/logging.h"

namespace kflush {

void IngestTicket::Complete() {
  const uint64_t now = MonotonicMicros();
  const uint64_t micros = now > admit_micros ? now - admit_micros : 0;
  if (commit_hist != nullptr) commit_hist->Record(micros);
  KFLUSH_TRACE_FLOW_END("net", "request", request_id,
                        TraceArg::Uint("commit_micros", micros));
  if (slow_micros > 0 && micros >= slow_micros) {
    KFLUSH_WARN("slow-request request_id=" << request_id
                                           << " commit_micros=" << micros
                                           << " threshold_micros="
                                           << slow_micros);
  }
}

MicroblogSystem::MicroblogSystem(MicroblogStore* store,
                                 size_t ingest_queue_capacity)
    : store_(store), queue_(ingest_queue_capacity) {
  MetricsRegistry* registry = store_->metrics_registry();
  queue_depth_gauge_ = registry->gauge("system.queue_depth");
  batches_submitted_ = registry->counter("system.batches_submitted");
  batches_digested_ = registry->counter("system.batches_digested");
  records_digested_ = registry->counter("system.records_digested");
  digestion_stalls_ = registry->counter("system.digestion_stalls");
  flush_wakeups_ = registry->counter("system.flush_wakeups");
  flush_stuck_events_ = registry->counter("system.flush_stuck_events");
  batch_size_hist_ = registry->histogram("system.batch_size");
  digest_micros_hist_ = registry->histogram("system.digest_micros_per_batch");
  digest_cpu_micros_hist_ =
      registry->histogram("system.digest_cpu_micros_per_batch");
}

MicroblogSystem::~MicroblogSystem() { Stop(); }

void MicroblogSystem::Start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  digestion_thread_ = std::thread([this] { DigestionLoop(); });
  flusher_thread_ = std::thread([this] { FlusherLoop(); });
}

void MicroblogSystem::Stop() {
  // exchange, not load+store: an explicit Stop() racing the destructor's
  // Stop() must not both reach the joins (joining a thread twice is UB).
  // Exactly one caller wins and tears down; the loser returns immediately.
  if (!running_.exchange(false)) return;
  // Close the queue and join digestion while the flusher is still alive:
  // the drain then runs under normal backpressure, so the memory ceiling
  // (budget x stall factor) holds through shutdown. A digestion thread
  // stalled on unstall_cv_ cannot deadlock the join — the live flusher
  // either frees space or reports it cannot (flush_stuck_), and both
  // release the stall.
  queue_.Close();
  if (digestion_thread_.joinable()) digestion_thread_.join();
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    stop_requested_.store(true);
    flush_wanted_ = true;
  }
  flush_cv_.notify_all();
  if (flusher_thread_.joinable()) flusher_thread_.join();
}

bool MicroblogSystem::SubmitReservedRouted(IngestBatch batch) {
  const bool accepted = queue_.PushReserved(std::move(batch));
  if (accepted) {
    batches_submitted_->Increment();
    // Delta, not Set(size()): producer and consumer publish concurrently,
    // and last-writer-wins Set() from outside the queue lock pins the
    // gauge to whichever stale depth was read last. Increments/decrements
    // commute, so the gauge converges to the true depth under any
    // interleaving.
    queue_depth_gauge_->Add(1);
  }
  return accepted;
}

void MicroblogSystem::DigestionLoop() {
  const size_t budget = store_->options().memory_budget_bytes;
  const size_t stall_threshold = static_cast<size_t>(
      static_cast<double>(budget) * kIngestStallFactor);
  const int shard = store_->options().shard_id;
  while (true) {
    auto batch = queue_.Pop();
    if (!batch.has_value()) break;  // queue closed and drained
    queue_depth_gauge_->Add(-1);
    // One span per batch, not per record: the per-insert path stays
    // untouched so disabled-tracing ingest overhead is one branch per
    // batch (the 2% bench_micro criterion). approx_size() is the queue's
    // own lock-free depth — no second lock acquisition for the span arg.
    TraceSpan span("system", "digest_batch",
                   {TraceArg::Uint("records", batch->blogs.size()),
                    TraceArg::Uint("queue_depth", queue_.approx_size()),
                    TraceArg::Int("shard", shard)});
    if (batch->ticket != nullptr) {
      // Continue the request flow on this digestion thread, inside the
      // digest span so the arc binds to a slice.
      KFLUSH_TRACE_FLOW_STEP("net", "request", batch->ticket->request_id,
                             TraceArg::Int("shard", shard));
    }
    Stopwatch watch;
    CpuStopwatch cpu_watch;
    for (size_t i = 0; i < batch->blogs.size(); ++i) {
      Status s = store_->InsertRouted(std::move(batch->blogs[i]),
                                      batch->routed_terms[i]);
      if (!s.ok()) {
        KFLUSH_WARN("insert failed: " << s.ToString());
      }
      digested_.fetch_add(1, std::memory_order_relaxed);
    }
    // The digested batch is the group-commit unit: every record in it is
    // WAL-durable before the batch counts as digested. No-op without a
    // durable tier.
    Status commit = store_->CommitDurable();
    if (!commit.ok()) {
      KFLUSH_WARN("group commit failed: " << commit.ToString());
    }
    // This sub-batch (including its WAL group commit) is durable; the
    // last owner sub-batch closes the request's commit-stage clock.
    if (batch->ticket != nullptr) batch->ticket->SubBatchCommitted();
    batches_digested_->Increment();
    records_digested_->Add(batch->blogs.size());
    batch_size_hist_->Record(batch->blogs.size());
    digest_micros_hist_->Record(watch.ElapsedMicros());
    digest_cpu_micros_hist_->Record(cpu_watch.ElapsedMicros());
    span.End({TraceArg::Uint("data_used", store_->tracker().DataUsed())});
    if (store_->tracker().DataFull()) {
      {
        std::lock_guard<std::mutex> lock(flush_mu_);
        flush_wanted_ = true;
      }
      flush_cv_.notify_one();
      // Backpressure: if the flusher can't keep up, stall digestion until
      // it frees space rather than overshooting the budget unboundedly.
      if (store_->tracker().DataUsed() > stall_threshold) {
        digestion_stalls_->Increment();
        KFLUSH_TRACE_INSTANT(
            "system", "digestion_stall",
            TraceArg::Uint("data_used", store_->tracker().DataUsed()),
            TraceArg::Uint("stall_threshold", stall_threshold));
        std::unique_lock<std::mutex> lock(flush_mu_);
        unstall_cv_.wait(lock, [&] {
          return stop_requested_.load() || flush_stuck_ ||
                 store_->tracker().DataUsed() <= stall_threshold;
        });
      }
    }
  }
}

void MicroblogSystem::FlusherLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(flush_mu_);
      flush_cv_.wait(lock,
                     [&] { return flush_wanted_ || stop_requested_.load(); });
      if (stop_requested_.load() && !store_->tracker().DataFull()) return;
      flush_wanted_ = false;
    }
    flush_wakeups_->Increment();
    KFLUSH_TRACE_INSTANT(
        "system", "flush_wakeup",
        TraceArg::Uint("data_used", store_->tracker().DataUsed()));
    // Keep flushing until data contents are back under budget: a batchy
    // producer can overshoot by more than one flush budget, and digestion
    // stalls until the flusher catches up.
    bool stuck = false;
    while (store_->tracker().DataFull()) {
      const size_t freed = store_->FlushOnce();
      unstall_cv_.notify_all();
      if (freed == 0) {
        // Nothing flushable: a stalled digestion thread must not wait on
        // progress that will never come. Overshooting beats deadlock; the
        // flag resets on the next round, so flushing is retried once more
        // data arrives.
        stuck = true;
        flush_stuck_events_->Increment();
        KFLUSH_TRACE_INSTANT(
            "system", "flush_stuck",
            TraceArg::Uint("data_used", store_->tracker().DataUsed()));
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flush_stuck_ = stuck;
    }
    unstall_cv_.notify_all();
    if (stop_requested_.load()) return;
  }
}

}  // namespace kflush
