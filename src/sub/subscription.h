// Continuous-query (standing top-k subscription) value types, shared by
// the SubscriptionManager, the wire protocol, and the tests. A client
// registers a (keyword | area | user, k) subscription and from then on
// receives incremental top-k deltas — enter/exit events stamped with a
// per-subscription monotonic sequence number — instead of re-polling the
// one-shot query surface. Folding a subscription's delta stream in
// sequence order reproduces, at any quiescent point, exactly the answer
// the one-shot engine would compute from the full record set; the
// standing-query differential oracle holds the system to that bytewise.

#ifndef KFLUSH_SUB_SUBSCRIPTION_H_
#define KFLUSH_SUB_SUBSCRIPTION_H_

#include <cstdint>

#include "index/spatial_grid.h"
#include "model/microblog.h"

namespace kflush {

/// What a subscription matches (mirrors the one-shot convenience surface:
/// keyword term, bounding-box area, user timeline).
enum class SubKind : uint8_t {
  kKeyword = 1,  // one keyword term (interned KeywordId as TermId)
  kArea = 2,     // bounding box, evaluated over the spatial grid tiles
  kUser = 3,     // one author's timeline (user id as TermId)
};

const char* SubKindName(SubKind kind);

/// A standing top-k registration. Only the fields implied by `kind` are
/// meaningful: `term` for kKeyword, `box` for kArea, `user` for kUser.
struct SubscriptionSpec {
  SubKind kind = SubKind::kKeyword;
  uint32_t k = 0;
  TermId term = kInvalidTermId;
  UserId user = 0;
  BoundingBox box;
};

/// One incremental update to a standing result.
enum class SubDeltaKind : uint8_t {
  kEnter = 1,     // record joins the top-k (carries the full record)
  kExit = 2,      // record leaves the top-k (displaced or k shrank)
  kTerminal = 3,  // subscription terminated server-side (NACK-style:
                  // slow-consumer disconnect); never carries a record
};

const char* SubDeltaKindName(SubDeltaKind kind);

/// One delta in a subscription's update stream. `seq` is contiguous and
/// monotonic per subscription starting at 1 — a consumer that observes a
/// gap has provably lost an update.
struct SubDelta {
  uint64_t seq = 0;
  SubDeltaKind kind = SubDeltaKind::kEnter;
  double score = 0.0;
  MicroblogId id = kInvalidMicroblogId;
  /// Full record for kEnter deltas (so consumers need no follow-up
  /// fetch); default-constructed for kExit/kTerminal.
  Microblog record;
};

}  // namespace kflush

#endif  // KFLUSH_SUB_SUBSCRIPTION_H_
