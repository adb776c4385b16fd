#include "storage/segment.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstring>

#include "core/trace.h"
#include "storage/serde.h"

namespace kflush {

namespace {

constexpr char kSegmentMagic[8] = {'K', 'F', 'L', 'U', 'S', 'H', 'S', 'G'};
constexpr size_t kSegmentHeaderBytes = 16;  // magic + u64 seq

constexpr uint8_t kRecordFrame = 0x01;
constexpr uint8_t kFooterFrame = 0x02;

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06" PRIu64 ".kseg", seq);
  return dir + "/" + name;
}

void AppendSegmentHeader(uint64_t seq, std::string* out) {
  out->append(kSegmentMagic, sizeof(kSegmentMagic));
  out->append(reinterpret_cast<const char*>(&seq), sizeof(seq));
}

void AppendFooterFrame(uint64_t record_count, std::string* out) {
  char payload[1 + sizeof(uint64_t)];
  payload[0] = static_cast<char>(kFooterFrame);
  std::memcpy(payload + 1, &record_count, sizeof(record_count));
  AppendFrame(payload, sizeof(payload), out);
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IOError("read " + path);
  return Status::OK();
}

}  // namespace

SegmentDiskStore::SegmentDiskStore(std::string dir, DurabilityLevel level)
    : dir_(std::move(dir)), level_(level) {}

SegmentDiskStore::~SegmentDiskStore() {
  for (Segment& seg : segments_) {
    if (seg.file != nullptr) std::fclose(seg.file);
  }
}

Result<std::unique_ptr<SegmentDiskStore>> SegmentDiskStore::OpenOrRecover(
    const std::string& dir, DurabilityLevel level,
    const AttributeExtractor* extractor,
    const std::function<double(const Microblog&)>& score_fn) {
  KFLUSH_RETURN_IF_ERROR(EnsureDir(dir));
  auto store =
      std::unique_ptr<SegmentDiskStore>(new SegmentDiskStore(dir, level));

  // Collect seg-*.kseg names; load in sequence order so registration
  // order (and hence equal-score posting order) is replay-stable.
  std::vector<std::pair<uint64_t, std::string>> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("opendir " + dir + ": " + std::strerror(errno));
  }
  while (struct dirent* ent = ::readdir(d)) {
    uint64_t seq = 0;
    if (std::sscanf(ent->d_name, "seg-%" SCNu64 ".kseg", &seq) == 1) {
      found.emplace_back(seq, dir + "/" + ent->d_name);
    }
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());

  for (const auto& [seq, path] : found) {
    KFLUSH_RETURN_IF_ERROR(
        store->LoadSegment(path, seq, extractor, score_fn));
    store->next_seq_ = std::max(store->next_seq_, seq + 1);
  }
  return store;
}

Status SegmentDiskStore::LoadSegment(
    const std::string& path, uint64_t seq,
    const AttributeExtractor* extractor,
    const std::function<double(const Microblog&)>& score_fn) {
  TraceSpan span("disk", "recover_segment", {TraceArg::Uint("seq", seq)});
  std::string data;
  KFLUSH_RETURN_IF_ERROR(ReadWholeFile(path, &data));

  // A file too short for the header (or with a foreign magic) carries no
  // salvageable frames — the crash caught segment creation before any
  // content was flushed. Drop the whole file.
  const bool header_ok =
      data.size() >= kSegmentHeaderBytes &&
      std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) == 0;
  if (!header_ok) {
    stats_.torn_bytes_truncated += data.size();
    if (::remove(path.c_str()) != 0) {
      return Status::IOError("remove torn segment " + path + ": " +
                             std::strerror(errno));
    }
    return SyncDir(dir_, level_);
  }

  struct PendingRecord {
    Microblog blog;
    uint64_t offset = 0;
    uint32_t length = 0;
  };
  std::vector<PendingRecord> records;
  size_t offset = kSegmentHeaderBytes;
  size_t valid_end = offset;  // end of the last valid record frame
  bool sealed = false;
  while (offset < data.size()) {
    const char* payload = nullptr;
    uint32_t payload_len = 0;
    size_t consumed = 0;
    if (ReadFrame(data.data() + offset, data.size() - offset, &payload,
                  &payload_len, &consumed) != FrameRead::kOk) {
      break;
    }
    if (payload_len >= 1 + sizeof(uint64_t) &&
        static_cast<uint8_t>(payload[0]) == kFooterFrame) {
      // Sealed. Anything after the footer is torn junk.
      sealed = offset + consumed == data.size();
      if (sealed) valid_end = data.size();
      break;
    }
    if (payload_len < 1 || static_cast<uint8_t>(payload[0]) != kRecordFrame) {
      break;  // unknown frame type: treat as torn tail
    }
    PendingRecord rec;
    size_t rec_consumed = 0;
    if (!DecodeMicroblog(payload + 1, payload_len - 1, &rec.blog,
                         &rec_consumed)
             .ok() ||
        rec_consumed != payload_len - 1) {
      break;  // checksummed but undecodable: torn tail
    }
    rec.offset = offset + kFrameHeaderBytes + 1;
    rec.length = payload_len - 1;
    records.push_back(std::move(rec));
    offset += consumed;
    valid_end = offset;
  }

  if (!sealed) {
    // Salvage: keep the valid record prefix, truncate the tail, reseal.
    stats_.torn_bytes_truncated += data.size() - valid_end;
    if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
      return Status::IOError("truncate torn segment " + path + ": " +
                             std::strerror(errno));
    }
    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr) {
      return Status::IOError("reseal " + path + ": " + std::strerror(errno));
    }
    std::string footer;
    AppendFooterFrame(records.size(), &footer);
    Status status = Status::OK();
    if (std::fwrite(footer.data(), 1, footer.size(), f) != footer.size() ||
        std::fflush(f) != 0) {
      status = Status::IOError("reseal " + path + ": " +
                               std::strerror(errno));
    }
    if (status.ok()) status = SyncFile(f, level_, path);
    std::fclose(f);
    KFLUSH_RETURN_IF_ERROR(status);
  }

  std::FILE* read_handle = std::fopen(path.c_str(), "rb");
  if (read_handle == nullptr) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  Segment seg;
  seg.path = path;
  seg.file = read_handle;
  seg.seq = seq;
  segments_.push_back(seg);
  const uint32_t seg_idx = static_cast<uint32_t>(segments_.size() - 1);

  std::vector<TermId> terms;
  std::vector<Posting> run(1);
  for (PendingRecord& rec : records) {
    RecordLocation loc;
    loc.segment = seg_idx;
    loc.offset = rec.offset;
    loc.length = rec.length;
    locations_[rec.blog.id] = loc;
    max_record_id_ = std::max(max_record_id_, rec.blog.id);
    ++stats_.records_recovered;
    if (extractor != nullptr && score_fn != nullptr) {
      run[0] = Posting{rec.blog.id, score_fn(rec.blog)};
      extractor->ExtractTerms(rec.blog, &terms);
      for (TermId term : terms) {
        KFLUSH_RETURN_IF_ERROR(AddPostings(term, run));
      }
    }
  }
  return Status::OK();
}

Status SegmentDiskStore::AddPostings(TermId term,
                                     const std::vector<Posting>& run) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t added = DiskPostingsInsertAscending(&postings_[term], run);
  num_postings_ += added;
  stats_.postings_added += added;
  return Status::OK();
}

Status SegmentDiskStore::WriteBatch(const RecordBatch& batch) {
  if (batch.empty()) return Status::OK();
  TraceSpan span("disk", "write_segment",
                 {TraceArg::Uint("records", batch.size())});

  // Encode the whole segment image up front; the lock covers only the
  // sequence allocation and catalog update.
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t seq = next_seq_++;
  lock.unlock();

  std::string image;
  AppendSegmentHeader(seq, &image);
  std::vector<std::pair<MicroblogId, RecordLocation>> locations;
  locations.reserve(batch.size());
  std::string record;
  Microblog blog;
  uint64_t record_bytes = 0;
  batch.ForEach([&](const uint8_t* blob) {
    // One record at a time, from the batch's encoding into the segment's.
    DecodeRecord(blob, &blog);
    record.clear();
    record.push_back(static_cast<char>(kRecordFrame));
    EncodeMicroblog(blog, &record);
    RecordLocation loc;
    loc.offset = image.size() + kFrameHeaderBytes + 1;
    loc.length = static_cast<uint32_t>(record.size() - 1);
    locations.emplace_back(blog.id, loc);
    record_bytes += loc.length;
    AppendFrame(record.data(), record.size(), &image);
  });
  const size_t body_end = image.size();
  AppendFooterFrame(batch.size(), &image);

  const std::string path = SegmentPath(dir_, seq);
  CrashPoint("segment.create");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("create segment " + path + ": " +
                           std::strerror(errno));
  }
  Status status = Status::OK();
  // Body and footer flushed separately so a crash between them leaves the
  // torn-but-salvageable shape recovery is built for.
  if (std::fwrite(image.data(), 1, body_end, f) != body_end ||
      std::fflush(f) != 0) {
    status = Status::IOError("write segment " + path + ": " +
                             std::strerror(errno));
  }
  CrashPoint("segment.body");
  if (status.ok() &&
      (std::fwrite(image.data() + body_end, 1, image.size() - body_end, f) !=
           image.size() - body_end ||
       std::fflush(f) != 0)) {
    status = Status::IOError("seal segment " + path + ": " +
                             std::strerror(errno));
  }
  uint64_t fsync_count = 0;
  if (status.ok() && level_ != DurabilityLevel::kNone) {
    status = SyncFile(f, level_, path);
    fsync_count = 1;
  }
  std::fclose(f);
  if (status.ok()) status = SyncDir(dir_, level_);
  if (!status.ok()) {
    // The batch is not durable: drop the partial file so recovery (and a
    // retried batch under a fresh sequence) never sees it.
    ::remove(path.c_str());
    return status;
  }
  CrashPoint("segment.durable");

  std::FILE* read_handle = std::fopen(path.c_str(), "rb");
  if (read_handle == nullptr) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }

  lock.lock();
  Segment seg;
  seg.path = path;
  seg.file = read_handle;
  seg.seq = seq;
  segments_.push_back(seg);
  const uint32_t seg_idx = static_cast<uint32_t>(segments_.size() - 1);
  for (auto& [id, loc] : locations) {
    loc.segment = seg_idx;
    locations_[id] = loc;
    max_record_id_ = std::max(max_record_id_, id);
    ++stats_.records_written;
  }
  stats_.record_bytes_written += record_bytes;
  ++stats_.write_batches;
  stats_.fsyncs += fsync_count;
  return Status::OK();
}

Status SegmentDiskStore::QueryTerm(TermId term, size_t limit,
                                   std::vector<Posting>* out) {
  TraceSpan span("disk", "query_term", {TraceArg::Uint("term", term)});
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.term_queries;
  auto it = postings_.find(term);
  if (it == postings_.end()) return Status::OK();
  const size_t n = DiskPostingsTopN(it->second, limit, out);
  stats_.posting_bytes_read += n * sizeof(Posting);
  return Status::OK();
}

Status SegmentDiskStore::GetRecord(MicroblogId id, Microblog* out) {
  TraceSpan span("disk", "get_record", {TraceArg::Uint("id", id)});
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.records_read;
  auto it = locations_.find(id);
  if (it == locations_.end()) {
    return Status::NotFound("record not on disk");
  }
  const RecordLocation& loc = it->second;
  std::FILE* f = segments_[loc.segment].file;
  std::string buf(loc.length, '\0');
  if (std::fseek(f, static_cast<long>(loc.offset), SEEK_SET) != 0) {
    return Status::IOError("seek failed: " +
                           std::string(std::strerror(errno)));
  }
  if (std::fread(buf.data(), 1, loc.length, f) != loc.length) {
    return Status::IOError("short read from " + segments_[loc.segment].path);
  }
  size_t consumed = 0;
  KFLUSH_RETURN_IF_ERROR(
      DecodeMicroblog(buf.data(), buf.size(), out, &consumed));
  if (consumed != loc.length) {
    return Status::Corruption("record length mismatch");
  }
  stats_.record_bytes_read += loc.length;
  return Status::OK();
}

bool SegmentDiskStore::Contains(MicroblogId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return locations_.count(id) != 0;
}

bool SegmentDiskStore::MaxTermScore(TermId term, double* score) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = postings_.find(term);
  if (it == postings_.end() || it->second.empty()) return false;
  *score = it->second.back().score;  // ascending storage: back is max
  return true;
}

DiskStats SegmentDiskStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SegmentDiskStore::NumRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  return locations_.size();
}

size_t SegmentDiskStore::NumPostings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_postings_;
}

size_t SegmentDiskStore::NumSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

MicroblogId SegmentDiskStore::MaxRecordId() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_record_id_;
}

}  // namespace kflush
