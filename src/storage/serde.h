// Binary (de)serialization of microblog records: the record encoding inside
// WAL and segment frames, the wire protocol's records, and the trace file
// format used by gen/trace.
//
// Record layout (little-endian):
//   u32 payload_len (bytes after this field)
//   u64 id | u64 created_at | u64 user_id | u32 follower_count
//   u8  flags (bit 0: has_location)
//   f64 lat | f64 lon          (present only when has_location)
//   u16 num_keywords | u32 keyword_id ×n
//   u32 text_len | text bytes

#ifndef KFLUSH_STORAGE_SERDE_H_
#define KFLUSH_STORAGE_SERDE_H_

#include <string>
#include <vector>

#include "model/microblog.h"
#include "util/status.h"

namespace kflush {

/// Appends the encoded record to `*out`.
void EncodeMicroblog(const Microblog& blog, std::string* out);

/// Decodes one record starting at `data`; on success sets `*consumed` to
/// the total encoded length. Returns Corruption on malformed input.
Status DecodeMicroblog(const char* data, size_t len, Microblog* out,
                       size_t* consumed);

// WAL entry payload: the record plus the term subset it was indexed
// under. An empty subset means "this store owns the full term set —
// re-extract on replay"; a non-empty subset is a sharded routed insert
// (the shard must not re-index terms other shards own).
//
//   u16 num_routed | u64 term ×n | <EncodeMicroblog record>

/// Appends the encoded WAL entry to `*out`.
void EncodeWalEntry(const Microblog& blog, const std::vector<TermId>& routed,
                    std::string* out);

/// Decodes one WAL entry occupying exactly `data[0..len)` (the WAL frame
/// layer delimits entries). Returns Corruption on malformed input.
Status DecodeWalEntry(const char* data, size_t len, Microblog* out,
                      std::vector<TermId>* routed);

}  // namespace kflush

#endif  // KFLUSH_STORAGE_SERDE_H_
