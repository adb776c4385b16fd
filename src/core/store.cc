#include "core/store.h"

#include <algorithm>

#include "core/trace.h"
#include "storage/segment.h"
#include "sub/subscription_sink.h"
#include "storage/wal.h"
#include "util/logging.h"

namespace kflush {

MicroblogStore::MicroblogStore(StoreOptions options)
    : options_(options),
      tracker_(options.memory_budget_bytes),
      raw_store_(&tracker_),
      flush_buffer_(&tracker_) {
  clock_ = options_.clock != nullptr ? options_.clock : WallClock::Default();
  extractor_ = MakeAttribute(options_.attribute);
  ranking_ = MakeRanking(options_.ranking);
  if (options_.durability.enabled && options_.disk == nullptr) {
    // Durable tier: checksummed segments under <dir>/segments. Opening
    // recovers existing segments (catalog + postings rebuilt; a torn
    // final segment is salvaged and resealed).
    auto opened = SegmentDiskStore::OpenOrRecover(
        options_.durability.dir + "/segments", options_.durability.level,
        extractor_.get(),
        [this](const Microblog& blog) { return ranking_->Score(blog); });
    if (opened.ok()) {
      owned_segment_disk_ = std::move(opened).value();
      disk_ = owned_segment_disk_.get();
    } else {
      durability_status_ = opened.status();
      KFLUSH_WARN("durable tier unavailable, running non-durable: "
                  << durability_status_.ToString());
    }
  }
  if (disk_ == nullptr) {
    if (options_.disk != nullptr) {
      disk_ = options_.disk;
    } else {
      owned_disk_ = std::make_unique<SimDiskStore>();
      disk_ = owned_disk_.get();
    }
  }

  PolicyContext ctx;
  ctx.raw_store = &raw_store_;
  ctx.disk_store = disk_;
  ctx.flush_buffer = &flush_buffer_;
  ctx.tracker = &tracker_;
  ctx.clock = clock_;
  ctx.extractor = extractor_.get();
  ctx.shard_id = options_.shard_id;

  PolicyOptions popts;
  popts.k = options_.k;
  popts.fifo_segment_bytes = FlushBudgetBytes();
  popts.enable_phase2 = options_.enable_phase2;
  popts.enable_phase3 = options_.enable_phase3;
  popts.phase3_by_query_time = options_.phase3_by_query_time;
  policy_ = MakePolicy(options_.policy, ctx, popts);

  if (options_.durability.enabled && durability_status_.ok()) {
    durability_status_ = RecoverDurable();
    if (!durability_status_.ok()) {
      KFLUSH_WARN("recovery failed, running non-durable: "
                  << durability_status_.ToString());
      wal_.reset();
    }
  }
  // Write-ahead: a crash must never leave a flushed record in a sealed
  // segment while an older record, still memory-resident, is lost with
  // the WAL's unsynced tail — recovery would return a hole in the stream
  // instead of a prefix of it.
  flush_buffer_.set_wal(wal_.get());

  metrics_.AddProvider(
      [this](MetricsSnapshot* snap) { ExportComponentMetrics(snap); });
}

Status MicroblogStore::RecoverDurable() {
  const std::string wal_path = options_.durability.dir + "/wal.log";
  TraceSpan span("store", "recover",
                 {TraceArg::Int("shard", options_.shard_id)});
  KFLUSH_RETURN_IF_ERROR(EnsureDir(options_.durability.dir));

  MicroblogId max_id = owned_segment_disk_ != nullptr
                           ? owned_segment_disk_->MaxRecordId()
                           : 0;
  // Entries whose only durable copy is (still) the WAL: kept by the
  // post-replay compaction.
  std::vector<std::pair<Microblog, std::vector<TermId>>> retained;
  // Replayed records every term of which is score-dominated by existing
  // disk postings. Re-inserting those into memory would break the
  // invariant the memory-hit path depends on — each term's memory
  // postings must outrank all its disk postings — so they go to disk
  // wholesale: they are exactly the flush batch the crash destroyed
  // between the posting drops and the segment seal.
  std::vector<Microblog> to_disk;
  std::vector<TermId> extracted;
  std::vector<TermId> memory_terms;
  std::vector<TermId> disk_terms;
  WriteAheadLog::ReplayResult replay;
  Status status = WriteAheadLog::Replay(
      wal_path,
      [&](Microblog&& blog, std::vector<TermId>&& routed) -> Status {
        max_id = std::max(max_id, blog.id);
        if (disk_->Contains(blog.id)) {
          // Payload already durable in a sealed segment; the segment scan
          // rebuilt its postings. Nothing left to restore.
          return Status::OK();
        }
        const double score = ranking_->Score(blog);
        const std::vector<TermId>* terms = &routed;
        if (routed.empty()) {
          // Entry from an unsharded store: it owns the full term set.
          extractor_->ExtractTerms(blog, &extracted);
          terms = &extracted;
        }
        if (terms->empty()) return Status::OK();
        memory_terms.clear();
        disk_terms.clear();
        for (TermId term : *terms) {
          double disk_max = 0.0;
          if (disk_->MaxTermScore(term, &disk_max) && score <= disk_max) {
            disk_terms.push_back(term);
          } else {
            memory_terms.push_back(term);
          }
        }
        for (TermId term : disk_terms) {
          KFLUSH_RETURN_IF_ERROR(
              disk_->AddPostings(term, {Posting{blog.id, score}}));
        }
        if (memory_terms.empty()) {
          ++recovery_stats_.records_recovered_to_disk;
          to_disk.push_back(std::move(blog));
          return Status::OK();
        }
        KFLUSH_RETURN_IF_ERROR(raw_store_.Put(
            blog, static_cast<uint32_t>(memory_terms.size())));
        policy_->Insert(blog, memory_terms, score);
        ++recovery_stats_.records_reinserted_memory;
        retained.emplace_back(std::move(blog), std::move(routed));
        return Status::OK();
      },
      &replay);
  KFLUSH_RETURN_IF_ERROR(status);
  recovery_stats_.wal_records_recovered = replay.records_recovered;
  recovery_stats_.wal_torn_bytes_truncated = replay.torn_bytes_truncated;
  if (!to_disk.empty()) {
    KFLUSH_RETURN_IF_ERROR(disk_->WriteBatch(to_disk));
  }
  if (replay.records_recovered > 0 || replay.torn_bytes_truncated > 0) {
    // Compaction drops entries made redundant by sealed segments (and the
    // recovery segment just written); what remains is exactly the
    // memory-resident set.
    KFLUSH_RETURN_IF_ERROR(WriteAheadLog::Rewrite(
        wal_path, options_.durability.level, retained));
  }
  recovery_stats_.wal_entries_retained = retained.size();
  KFLUSH_RETURN_IF_ERROR(WriteAheadLog::Open(
      wal_path, options_.durability.level,
      options_.durability.wal_auto_commit_bytes, &wal_));

  recovered_max_id_ = max_id;
  MicroblogId next = max_id + 1;
  MicroblogId cur = next_id_.load(std::memory_order_relaxed);
  if (next > cur) next_id_.store(next, std::memory_order_relaxed);
  span.End({TraceArg::Uint("wal_records", replay.records_recovered),
            TraceArg::Uint("reinserted_memory",
                           recovery_stats_.records_reinserted_memory),
            TraceArg::Uint("recovered_to_disk",
                           recovery_stats_.records_recovered_to_disk)});
  return Status::OK();
}

Status MicroblogStore::CommitDurable() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Commit();
}

void MicroblogStore::ExportComponentMetrics(MetricsSnapshot* snap) const {
  // Memory accounting (gauges: instantaneous levels).
  snap->gauges["memory.budget_bytes"] =
      static_cast<int64_t>(tracker_.budget());
  snap->gauges["memory.raw_store_bytes"] = static_cast<int64_t>(
      tracker_.ComponentUsed(MemoryComponent::kRawStore));
  snap->gauges["memory.index_bytes"] =
      static_cast<int64_t>(tracker_.ComponentUsed(MemoryComponent::kIndex));
  snap->gauges["memory.policy_overhead_bytes"] = static_cast<int64_t>(
      tracker_.ComponentUsed(MemoryComponent::kPolicyOverhead));
  snap->gauges["memory.flush_buffer_bytes"] = static_cast<int64_t>(
      tracker_.ComponentUsed(MemoryComponent::kFlushBuffer));
  snap->gauges["memory.data_used_bytes"] =
      static_cast<int64_t>(tracker_.DataUsed());
  snap->gauges["memory.total_used_bytes"] =
      static_cast<int64_t>(tracker_.used());

  // Ingest path.
  const IngestStats ingest = ingest_stats();
  snap->counters["ingest.inserted"] = ingest.inserted;
  snap->counters["ingest.skipped_no_terms"] = ingest.skipped_no_terms;
  snap->counters["ingest.flush_triggers"] = ingest.flush_triggers;

  // Flushing policy, including the per-phase breakdown.
  const PolicyStats ps = policy_->stats();
  snap->counters["flush.cycles"] = ps.flush_cycles;
  snap->counters["flush.records_flushed"] = ps.records_flushed;
  snap->counters["flush.record_bytes_flushed"] = ps.record_bytes_flushed;
  snap->counters["flush.postings_dropped"] = ps.postings_dropped;
  snap->histograms["flush.cycle_micros"] = ps.cycle_micros;
  snap->histograms["flush.cycle_cpu_micros"] = ps.cycle_cpu_micros;
  for (int i = 0; i < kNumFlushStages; ++i) {
    snap->histograms[std::string("flush.stage_micros.") +
                     FlushStageName(static_cast<FlushStage>(i))] =
        ps.stage_micros[i];
  }
  for (int i = 0; i < 3; ++i) {
    const PhaseStats& phase = ps.phases[i];
    const std::string prefix = "flush.phase" + std::to_string(i + 1) + ".";
    snap->counters[prefix + "runs"] = phase.runs;
    snap->counters[prefix + "candidates_scanned"] = phase.candidates_scanned;
    snap->counters[prefix + "heap_selected"] = phase.heap_selected;
    snap->counters[prefix + "postings"] = phase.postings;
    snap->counters[prefix + "entries"] = phase.entries;
    snap->counters[prefix + "records"] = phase.records;
    snap->counters[prefix + "record_bytes"] = phase.record_bytes;
    snap->counters[prefix + "bytes_freed"] = phase.bytes_freed;
    snap->counters[prefix + "micros"] = phase.micros;
  }
  snap->gauges["policy.aux_memory_bytes"] =
      static_cast<int64_t>(policy_->AuxMemoryBytes());
  snap->gauges["policy.num_entries"] =
      static_cast<int64_t>(policy_->NumTerms());

  // Disk tier.
  const DiskStats ds = disk_->stats();
  snap->counters["disk.postings_added"] = ds.postings_added;
  snap->counters["disk.records_written"] = ds.records_written;
  snap->counters["disk.record_bytes_written"] = ds.record_bytes_written;
  snap->counters["disk.write_batches"] = ds.write_batches;
  snap->counters["disk.term_queries"] = ds.term_queries;
  snap->counters["disk.records_read"] = ds.records_read;
  snap->counters["disk.record_bytes_read"] = ds.record_bytes_read;
  snap->counters["disk.posting_bytes_read"] = ds.posting_bytes_read;
  snap->counters["disk.records_recovered"] = ds.records_recovered;
  snap->counters["disk.torn_bytes_truncated"] = ds.torn_bytes_truncated;
  snap->counters["disk.fsyncs"] = ds.fsyncs;

  // Durable tier (present only when a WAL is attached).
  if (wal_ != nullptr) {
    const WriteAheadLog::Stats ws = wal_->stats();
    snap->counters["wal.records_appended"] = ws.records_appended;
    snap->counters["wal.bytes_appended"] = ws.bytes_appended;
    snap->counters["wal.commits"] = ws.commits;
    snap->counters["wal.fsyncs"] = ws.fsyncs;
    snap->histograms["wal.fsync_micros"] = ws.fsync_micros;
    snap->counters["wal.records_recovered"] =
        recovery_stats_.wal_records_recovered;
    snap->counters["wal.torn_bytes_truncated"] =
        recovery_stats_.wal_torn_bytes_truncated;
  }

  snap->gauges["flush_buffer.peak_bytes"] =
      static_cast<int64_t>(flush_buffer_.peak_bytes());
  snap->counters["flush_buffer.requeues"] = flush_buffer_.requeues();
  snap->gauges["store.resident_records"] =
      static_cast<int64_t>(raw_store_.size());
}

MicroblogStore::~MicroblogStore() {
  // Final group commit: a clean shutdown leaves every accepted record
  // durable, not just page-cache-resident.
  if (wal_ != nullptr) {
    Status s = wal_->Commit();
    if (!s.ok()) {
      KFLUSH_WARN("final wal commit failed: " << s.ToString());
    }
  }
}

Status MicroblogStore::Insert(Microblog blog) {
  if (blog.id == kInvalidMicroblogId) {
    blog.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  if (blog.created_at == 0) {
    blog.created_at = clock_->NowMicros();
  }

  // Scratch vector: term extraction runs on every insert, and the terms
  // never escape this frame, so reuse one buffer per ingest thread
  // (ExtractTerms clears it).
  static thread_local std::vector<TermId> terms;
  extractor_->ExtractTerms(blog, &terms);
  if (terms.empty()) {
    skipped_no_terms_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  return InsertIndexed(std::move(blog), terms, /*routed=*/false);
}

Status MicroblogStore::InsertRouted(Microblog blog,
                                    const std::vector<TermId>& terms) {
  if (blog.id == kInvalidMicroblogId || blog.created_at == 0) {
    return Status::InvalidArgument(
        "InsertRouted requires a pre-stamped id and created_at");
  }
  if (terms.empty()) {
    return Status::InvalidArgument("InsertRouted requires owned terms");
  }
  return InsertIndexed(std::move(blog), terms, /*routed=*/true);
}

Status MicroblogStore::InsertIndexed(Microblog blog,
                                     const std::vector<TermId>& terms,
                                     bool routed) {
  if (wal_ != nullptr) {
    // Log before any memory-tier mutation: an insert the WAL refused is
    // rejected outright instead of becoming an acknowledged record that a
    // crash would silently lose. Unsharded entries log an empty term set
    // ("re-extract on replay"); routed entries must carry their subset.
    static const std::vector<TermId> kFullTermSet;
    KFLUSH_RETURN_IF_ERROR(wal_->Append(blog, routed ? terms : kFullTermSet));
  }
  const double score = ranking_->Score(blog);
  // The record enters the raw store first (pcount = its index references),
  // then the index — queries racing the insert simply don't see it yet.
  KFLUSH_RETURN_IF_ERROR(
      raw_store_.Put(blog, static_cast<uint32_t>(terms.size())));
  policy_->Insert(blog, terms, score);
  // Publish to the continuous-query layer before the auto-flush check, so
  // a standing result sees the record while it is still memory-resident.
  if (SubscriptionSink* sink = sub_sink_.load(std::memory_order_acquire)) {
    sink->OnInsert(blog, terms, score);
  }
  inserted_.fetch_add(1, std::memory_order_relaxed);

  if (options_.auto_flush && tracker_.DataFull()) {
    FlushOnce();
  }
  return Status::OK();
}

Status MicroblogStore::InsertText(std::string text, UserId user,
                                  uint32_t followers) {
  Microblog blog;
  blog.text = std::move(text);
  blog.user_id = user;
  blog.follower_count = followers;
  for (const std::string& token : tokenizer_.Tokenize(blog.text)) {
    blog.keywords.push_back(dictionary_.Intern(token));
  }
  return Insert(std::move(blog));
}

size_t MicroblogStore::FlushOnce() {
  // At most one flush cycle at a time; concurrent triggers coalesce.
  if (flush_in_flight_.exchange(true)) return 0;
  std::lock_guard<std::mutex> lock(flush_mu_);
  flush_triggers_.fetch_add(1, std::memory_order_relaxed);
  const size_t freed = policy_->Flush(FlushBudgetBytes());
  flush_in_flight_.store(false);
  KFLUSH_DEBUG("flush freed " << freed << " bytes; " << tracker_.ToString());
  return freed;
}

void MicroblogStore::SetK(uint32_t k) { policy_->SetK(k); }

void MicroblogStore::set_subscription_sink(SubscriptionSink* sink) {
  sub_sink_.store(sink, std::memory_order_release);
  policy_->set_subscription_sink(sink);
}

TermId MicroblogStore::TermForKeyword(std::string_view keyword) const {
  const KeywordId id = dictionary_.Lookup(keyword);
  return id == kInvalidKeywordId ? kInvalidTermId : static_cast<TermId>(id);
}

TermId MicroblogStore::TermForLocation(double lat, double lon) const {
  const auto* spatial = dynamic_cast<const SpatialAttribute*>(extractor_.get());
  if (spatial == nullptr) return kInvalidTermId;
  return spatial->mapper().TileFor(lat, lon);
}

IngestStats MicroblogStore::ingest_stats() const {
  IngestStats stats;
  stats.inserted = inserted_.load(std::memory_order_relaxed);
  stats.skipped_no_terms = skipped_no_terms_.load(std::memory_order_relaxed);
  stats.flush_triggers = flush_triggers_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace kflush
