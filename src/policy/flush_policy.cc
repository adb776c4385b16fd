#include "policy/flush_policy.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "sub/subscription_sink.h"
#include "util/logging.h"

namespace kflush {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo:
      return "FIFO";
    case PolicyKind::kLru:
      return "LRU";
    case PolicyKind::kKFlushing:
      return "kFlushing";
    case PolicyKind::kKFlushingMK:
      return "kFlushing-MK";
  }
  return "unknown";
}

const char* FlushStageName(FlushStage stage) {
  switch (stage) {
    case FlushStage::kSelect:
      return "select";
    case FlushStage::kIndex:
      return "index";
    case FlushStage::kDrop:
      return "drop";
    case FlushStage::kDrain:
      return "drain";
  }
  return "unknown";
}

std::string PolicyStats::ToString() const {
  std::ostringstream os;
  os << "cycles=" << flush_cycles << " records_flushed=" << records_flushed
     << " bytes_flushed=" << record_bytes_flushed
     << " postings_dropped=" << postings_dropped;
  if (postings_dropped > 0) {
    os << " phases={";
    for (int i = 0; i < 3; ++i) {
      const PhaseStats& ps = phases[i];
      if (ps.runs == 0) continue;
      os << " p" << (i + 1) << "={runs=" << ps.runs
         << " scanned=" << ps.candidates_scanned
         << " selected=" << ps.heap_selected << " postings=" << ps.postings
         << " entries=" << ps.entries << " records=" << ps.records
         << " freed=" << ps.bytes_freed << " us=" << ps.micros << "}";
    }
    os << " }";
  }
  os << " cycle_us={" << cycle_micros.ToString() << "}";
  return os.str();
}

void MergePolicyStats(const PolicyStats& in, PolicyStats* out) {
  out->flush_cycles += in.flush_cycles;
  out->records_flushed += in.records_flushed;
  out->record_bytes_flushed += in.record_bytes_flushed;
  out->postings_dropped += in.postings_dropped;
  for (int i = 0; i < 3; ++i) {
    PhaseStats& o = out->phases[i];
    const PhaseStats& p = in.phases[i];
    o.runs += p.runs;
    o.candidates_scanned += p.candidates_scanned;
    o.heap_selected += p.heap_selected;
    o.postings += p.postings;
    o.entries += p.entries;
    o.records += p.records;
    o.record_bytes += p.record_bytes;
    o.bytes_freed += p.bytes_freed;
    o.micros += p.micros;
  }
  out->cycle_micros.Merge(in.cycle_micros);
  out->cycle_cpu_micros.Merge(in.cycle_cpu_micros);
  for (int i = 0; i < kNumFlushStages; ++i) {
    out->stage_micros[i].Merge(in.stage_micros[i]);
  }
}

FlushPolicy::FlushPolicy(const PolicyContext& ctx, uint32_t k)
    : ctx_(ctx), k_(k) {}

void FlushPolicy::SetK(uint32_t k) {
  k_.store(k, std::memory_order_relaxed);
}

PolicyStats FlushPolicy::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

size_t FlushPolicy::Flush(size_t bytes_needed) {
  TraceSpan span("flush", "cycle",
                 {TraceArg::Str("policy", name()),
                  TraceArg::Uint("bytes_needed", bytes_needed),
                  TraceArg::Int("shard", ctx_.shard_id)});
  const Timestamp start = MonotonicMicros();
  stage_last_ = start;
  std::fill(std::begin(cycle_stage_micros_), std::end(cycle_stage_micros_),
            0);
  CpuStopwatch cpu_watch;
  current_phase_ = 1;
  const size_t freed = FlushImpl(bytes_needed);
  ChargeStage(FlushStage::kSelect);  // bookkeeping after the last victim
  // One batched write per cycle (paper §III-A: victims are buffered to
  // reduce I/O operations).
  Status s = ctx_.flush_buffer->DrainTo(ctx_.disk_store);
  ChargeStage(FlushStage::kDrain);
  if (!s.ok()) {
    KFLUSH_ERROR("flush drain failed: " << s.ToString());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.flush_cycles;
    stats_.cycle_micros.Record(stage_last_ - start);
    stats_.cycle_cpu_micros.Record(cpu_watch.ElapsedMicros());
    for (int i = 0; i < kNumFlushStages; ++i) {
      stats_.stage_micros[i].Record(cycle_stage_micros_[i]);
    }
  }
  span.End({TraceArg::Uint("bytes_freed", freed)});
  return freed;
}

void FlushPolicy::ChargeStage(FlushStage stage) {
  const Timestamp now = MonotonicMicros();
  cycle_stage_micros_[static_cast<int>(stage)] += now - stage_last_;
  stage_last_ = now;
}

void FlushPolicy::BeginVictim(int phase, TermId term, int64_t heap_rank,
                              Timestamp order_key, MicroblogId record_id) {
  victim_ = EvictionAuditRecord{};
  victim_.shard = ctx_.shard_id;
  victim_.phase = phase;
  victim_.term = term;
  victim_.record_id = record_id;
  victim_.heap_rank = heap_rank;
  victim_.order_key = order_key;
  victim_open_ = true;
}

void FlushPolicy::EndVictim(uint64_t bytes_freed, uint64_t entries_evicted) {
  victim_open_ = false;
  victim_.bytes_freed = bytes_freed;
  victim_.entries_evicted = entries_evicted;
  if (audit_trail_ != nullptr) {
    audit_trail_->Append(victim_);
  }
  KFLUSH_TRACE_INSTANT(
      "flush", "evict_victim", TraceArg::Int("phase", victim_.phase),
      TraceArg::Uint("term", victim_.term),
      TraceArg::Int("heap_rank", victim_.heap_rank),
      TraceArg::Uint("order_key", static_cast<uint64_t>(victim_.order_key)),
      TraceArg::Uint("postings", victim_.postings_dropped),
      TraceArg::Uint("entries", victim_.entries_evicted),
      TraceArg::Uint("records", victim_.records_flushed),
      TraceArg::Uint("bytes_freed", victim_.bytes_freed));
}

void FlushPolicy::RegisterOnDisk(TermId term,
                                 const std::vector<Posting>& run) {
  if (run.empty()) return;
  Status s = ctx_.disk_store->AddPostings(term, run);
  if (!s.ok()) {
    KFLUSH_ERROR("disk AddPostings failed: " << s.ToString());
  }
}

size_t FlushPolicy::DropPostings(const std::vector<Posting>& run) {
  if (run.empty()) return 0;
  evicted_.clear();
  size_t record_bytes = 0;
  ctx_.flush_buffer->Append([&](RecordBatch* batch) {
    for (const Posting& posting : run) {
      const size_t bytes = ctx_.raw_store->Release(posting.id, batch);
      if (bytes > 0) {
        evicted_.push_back(posting.id);
        record_bytes += bytes;
      }
    }
  });
  const uint64_t postings = run.size();
  const uint64_t records = evicted_.size();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    PhaseStats& phase = stats_.phases[current_phase_ - 1];
    stats_.postings_dropped += postings;
    phase.postings += postings;
    stats_.records_flushed += records;
    stats_.record_bytes_flushed += record_bytes;
    phase.records += records;
    phase.record_bytes += record_bytes;
  }
  if (victim_open_) {
    victim_.postings_dropped += postings;
    victim_.records_flushed += records;
    victim_.record_bytes += record_bytes;
  }
  // These records just left the memory tier. Tell the continuous-query
  // layer (outside the buffer lock) so standing results holding them
  // schedule a disk-backed refill; the sink only queues work, it never
  // re-enters the policy.
  if (SubscriptionSink* sink = sub_sink_.load(std::memory_order_acquire)) {
    for (MicroblogId id : evicted_) sink->OnRecordEvicted(id);
  }
  return postings * PostingList::kBytesPerPosting + record_bytes;
}

Status ReconcileAuditWithStats(const std::vector<EvictionAuditRecord>& records,
                               const PolicyStats& stats) {
  PhaseStats sums[3];
  for (const EvictionAuditRecord& r : records) {
    if (r.phase < 1 || r.phase > 3) {
      return Status::Internal("audit record with out-of-range phase " +
                              std::to_string(r.phase));
    }
    PhaseStats& s = sums[r.phase - 1];
    s.postings += r.postings_dropped;
    s.entries += r.entries_evicted;
    s.records += r.records_flushed;
    s.record_bytes += r.record_bytes;
    s.bytes_freed += r.bytes_freed;
  }
  for (int i = 0; i < 3; ++i) {
    const PhaseStats& got = sums[i];
    const PhaseStats& want = stats.phases[i];
    auto mismatch = [&](const char* field, uint64_t g, uint64_t w) {
      return Status::Internal(
          "audit/stats mismatch in phase " + std::to_string(i + 1) + " " +
          field + ": audit sum " + std::to_string(g) + " != stats " +
          std::to_string(w));
    };
    if (got.postings != want.postings) {
      return mismatch("postings", got.postings, want.postings);
    }
    if (got.entries != want.entries) {
      return mismatch("entries", got.entries, want.entries);
    }
    if (got.records != want.records) {
      return mismatch("records", got.records, want.records);
    }
    if (got.record_bytes != want.record_bytes) {
      return mismatch("record_bytes", got.record_bytes, want.record_bytes);
    }
    if (got.bytes_freed != want.bytes_freed) {
      return mismatch("bytes_freed", got.bytes_freed, want.bytes_freed);
    }
  }
  return Status::OK();
}

}  // namespace kflush
