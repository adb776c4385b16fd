#include "storage/record_batch.h"

#include <algorithm>
#include <cstring>

namespace kflush {

namespace {

struct BlobHeader {
  MicroblogId id;
  Timestamp created_at;
  UserId user_id;
  double lat;
  double lon;
  uint32_t follower_count;
  uint32_t text_len;
  uint32_t kw_count;
  uint8_t has_location;
};

BlobHeader ReadHeader(const uint8_t* blob) {
  BlobHeader h;
  std::memcpy(&h, blob, sizeof(h));
  return h;
}

/// Decodes every field but the text; returns the blob's header.
BlobHeader DecodeFields(const uint8_t* blob, Microblog* out) {
  const BlobHeader h = ReadHeader(blob);
  out->id = h.id;
  out->created_at = h.created_at;
  out->user_id = h.user_id;
  out->follower_count = h.follower_count;
  out->has_location = h.has_location != 0;
  out->location.lat = h.lat;
  out->location.lon = h.lon;
  out->keywords.resize(h.kw_count);
  if (h.kw_count > 0) {
    std::memcpy(out->keywords.data(), blob + sizeof(h),
                h.kw_count * sizeof(KeywordId));
  }
  return h;
}

}  // namespace

size_t EncodedRecordBytes(const Microblog& blog) {
  return sizeof(BlobHeader) + blog.keywords.size() * sizeof(KeywordId) +
         blog.text.size();
}

void EncodeRecord(const Microblog& blog, uint8_t* dst) {
  BlobHeader h{};
  h.id = blog.id;
  h.created_at = blog.created_at;
  h.user_id = blog.user_id;
  h.lat = blog.location.lat;
  h.lon = blog.location.lon;
  h.follower_count = blog.follower_count;
  h.text_len = static_cast<uint32_t>(blog.text.size());
  h.kw_count = static_cast<uint32_t>(blog.keywords.size());
  h.has_location = blog.has_location ? 1 : 0;
  std::memcpy(dst, &h, sizeof(h));
  uint8_t* p = dst + sizeof(h);
  if (!blog.keywords.empty()) {
    std::memcpy(p, blog.keywords.data(),
                blog.keywords.size() * sizeof(KeywordId));
    p += blog.keywords.size() * sizeof(KeywordId);
  }
  if (!blog.text.empty()) {
    std::memcpy(p, blog.text.data(), blog.text.size());
  }
}

void DecodeRecord(const uint8_t* blob, Microblog* out) {
  const BlobHeader h = DecodeFields(blob, out);
  const uint8_t* text = blob + sizeof(h) + h.kw_count * sizeof(KeywordId);
  out->text.assign(reinterpret_cast<const char*>(text), h.text_len);
}

void DecodeRecordWithoutText(const uint8_t* blob, Microblog* out) {
  DecodeFields(blob, out);
  out->text.clear();
}

MicroblogId EncodedRecordId(const uint8_t* blob) {
  return ReadHeader(blob).id;
}

size_t EncodedLength(const uint8_t* blob) {
  const BlobHeader h = ReadHeader(blob);
  return sizeof(BlobHeader) + h.kw_count * sizeof(KeywordId) + h.text_len;
}

size_t EncodedFootprintBytes(const uint8_t* blob) {
  // Mirrors Microblog::FootprintBytes() for an encoded record.
  const BlobHeader h = ReadHeader(blob);
  return sizeof(Microblog) + h.text_len + h.kw_count * sizeof(KeywordId);
}

RecordBatch::RecordBatch(const std::vector<Microblog>& blogs) {
  for (const Microblog& blog : blogs) Add(blog);
}

RecordBatch::RecordBatch(std::initializer_list<Microblog> blogs) {
  for (const Microblog& blog : blogs) Add(blog);
}

uint8_t* RecordBatch::Extend(size_t len) {
  if (slices_.empty() ||
      slices_.back().capacity - slices_.back().used < len) {
    Slice slice;
    slice.capacity = std::max(kSliceBytes, len);
    slice.data.reset(new uint8_t[slice.capacity]);
    slices_.push_back(std::move(slice));
  }
  Slice& slice = slices_.back();
  uint8_t* dst = slice.data.get() + slice.used;
  slice.used += len;
  ++count_;
  return dst;
}

void RecordBatch::Add(const Microblog& blog) {
  EncodeRecord(blog, Extend(EncodedRecordBytes(blog)));
  footprint_bytes_ += blog.FootprintBytes();
}

const uint8_t* RecordBatch::Append(const uint8_t* blob) {
  const size_t len = EncodedLength(blob);
  uint8_t* copy = Extend(len);
  std::memcpy(copy, blob, len);
  footprint_bytes_ += EncodedFootprintBytes(blob);
  return copy;
}

void RecordBatch::Append(const RecordBatch& other) {
  other.ForEach([this](const uint8_t* blob) { Append(blob); });
}

size_t RecordBatch::capacity_bytes() const {
  size_t bytes = slices_.capacity() * sizeof(Slice);
  for (const Slice& slice : slices_) bytes += slice.capacity;
  return bytes;
}

const uint8_t* RecordBatch::Find(MicroblogId id) const {
  for (const Slice& slice : slices_) {
    const uint8_t* end = slice.data.get() + slice.used;
    for (const uint8_t* p = slice.data.get(); p < end; p += EncodedLength(p)) {
      if (EncodedRecordId(p) == id) return p;
    }
  }
  return nullptr;
}

}  // namespace kflush
