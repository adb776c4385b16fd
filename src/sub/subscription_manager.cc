#include "sub/subscription_manager.h"

#include <algorithm>

#include "core/store.h"
#include "core/trace.h"
#include "index/spatial_grid.h"

namespace kflush {

namespace {

/// Area subscriptions may not fan out wider than the one-shot SearchArea
/// surface can answer, or the snapshot/refill queries would fail where
/// registration succeeded.
constexpr size_t kMaxSubscriptionTiles = 256;

/// Hard sanity cap on k (a standing result is materialized in memory).
constexpr uint32_t kMaxSubscriptionK = 100000;

/// Capped length of the member-eviction id log (audit surface only; the
/// counters keep exact totals past the cap).
constexpr size_t kMaxEvictionLog = 1 << 16;

}  // namespace

const char* SubKindName(SubKind kind) {
  switch (kind) {
    case SubKind::kKeyword:
      return "keyword";
    case SubKind::kArea:
      return "area";
    case SubKind::kUser:
      return "user";
  }
  return "unknown";
}

const char* SubDeltaKindName(SubDeltaKind kind) {
  switch (kind) {
    case SubDeltaKind::kEnter:
      return "enter";
    case SubDeltaKind::kExit:
      return "exit";
    case SubDeltaKind::kTerminal:
      return "terminal";
  }
  return "unknown";
}

SubscriptionManager::SubscriptionManager(SnapshotFn snapshot)
    : snapshot_(std::move(snapshot)),
      registered_counter_(metrics_.counter("sub.registered")),
      unsubscribed_counter_(metrics_.counter("sub.unsubscribed")),
      published_counter_(metrics_.counter("sub.deltas_published")),
      pushed_counter_(metrics_.counter("sub.deltas_pushed")),
      dropped_counter_(
          metrics_.counter("sub.deltas_dropped_on_disconnect")),
      member_evictions_counter_(metrics_.counter("sub.member_evictions")),
      refills_counter_(metrics_.counter("sub.refills")),
      snapshot_queries_counter_(metrics_.counter("sub.snapshot_queries")),
      active_gauge_(metrics_.gauge("sub.active")) {}

SubscriptionManager::~SubscriptionManager() {
  Shutdown();
  set_notifier(nullptr);
  for (MicroblogStore* store : attached_) {
    store->set_subscription_sink(nullptr);
  }
}

void SubscriptionManager::set_notifier(Notifier notifier) {
  std::lock_guard<std::mutex> lock(notifier_mu_);
  notifier_ = std::move(notifier);
}

void SubscriptionManager::AttachStore(MicroblogStore* store) {
  if (attached_.empty()) {
    attribute_ = store->options().attribute;
    ranking_ = store->ranking();
    if (attribute_ == AttributeKind::kSpatial) {
      mapper_ =
          &static_cast<const SpatialAttribute*>(store->extractor())->mapper();
    }
  }
  attached_.push_back(store);
  store->set_subscription_sink(this);
}

Status SubscriptionManager::ValidateSpec(
    const SubscriptionSpec& spec, std::vector<TermId>* index_terms) const {
  if (spec.k == 0 || spec.k > kMaxSubscriptionK) {
    return Status::InvalidArgument("subscription k out of range");
  }
  switch (spec.kind) {
    case SubKind::kKeyword:
      if (attribute_ != AttributeKind::kKeyword) {
        return Status::InvalidArgument(
            "keyword subscription on a non-keyword deployment");
      }
      if (spec.term == kInvalidTermId) {
        return Status::InvalidArgument("keyword subscription without a term");
      }
      index_terms->push_back(spec.term);
      return Status::OK();
    case SubKind::kUser:
      if (attribute_ != AttributeKind::kUser) {
        return Status::InvalidArgument(
            "user subscription on a non-user deployment");
      }
      index_terms->push_back(static_cast<TermId>(spec.user));
      return Status::OK();
    case SubKind::kArea: {
      if (attribute_ != AttributeKind::kSpatial || mapper_ == nullptr) {
        return Status::InvalidArgument(
            "area subscription on a non-spatial deployment");
      }
      if (spec.box.min_lat > spec.box.max_lat ||
          spec.box.min_lon > spec.box.max_lon) {
        return Status::InvalidArgument("inverted bounding box");
      }
      std::vector<TermId> tiles =
          TilesOverlapping(*mapper_, spec.box, kMaxSubscriptionTiles + 1);
      if (tiles.empty() || tiles.size() > kMaxSubscriptionTiles) {
        return Status::InvalidArgument(
            "area subscription spans no or too many grid tiles");
      }
      *index_terms = std::move(tiles);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown subscription kind");
}

Result<uint64_t> SubscriptionManager::Subscribe(const SubscriptionSpec& spec) {
  if (attached_.empty()) {
    return Status::InvalidArgument("no store attached");
  }
  std::vector<TermId> index_terms;
  KFLUSH_RETURN_IF_ERROR(ValidateSpec(spec, &index_terms));

  auto sub = std::make_shared<Subscription>();
  sub->spec = spec;
  sub->k = spec.k;
  sub->index_terms = std::move(index_terms);
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    sub->id = next_sub_id_++;
    subs_.emplace(sub->id, sub);
    for (TermId term : sub->index_terms) {
      by_term_[term].push_back(sub->id);
    }
    active_.store(subs_.size(), std::memory_order_release);
    active_gauge_->Set(static_cast<int64_t>(subs_.size()));
  }
  registered_counter_->Increment();
  KFLUSH_TRACE_FLOW_BEGIN("sub", "subscription", sub->id,
                          TraceArg::Str("kind", SubKindName(spec.kind)));
  // Seed from the full record set. The registration above is already
  // visible to OnInsert, so a racing insert lands either in this snapshot
  // or in the delta stream (never neither); Offer's dedup absorbs both.
  RefillFromSnapshot(sub);
  return sub->id;
}

Status SubscriptionManager::Unsubscribe(uint64_t sub_id) {
  std::shared_ptr<Subscription> sub;
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) {
      return Status::NotFound("unknown subscription");
    }
    sub = it->second;
    subs_.erase(it);
    for (TermId term : sub->index_terms) {
      auto tit = by_term_.find(term);
      if (tit == by_term_.end()) continue;
      auto& ids = tit->second;
      ids.erase(std::remove(ids.begin(), ids.end(), sub_id), ids.end());
      if (ids.empty()) by_term_.erase(tit);
    }
    active_.store(subs_.size(), std::memory_order_release);
    active_gauge_->Set(static_cast<int64_t>(subs_.size()));
  }
  FinishUnsubscribe(sub);
  return Status::OK();
}

void SubscriptionManager::FinishUnsubscribe(
    const std::shared_ptr<Subscription>& sub) {
  std::vector<MicroblogId> held;
  uint64_t undrained = 0;
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    undrained = sub->outbox.size();
    sub->outbox.clear();
    held.assign(sub->member_ids.begin(), sub->member_ids.end());
    sub->members.clear();
    sub->member_ids.clear();
  }
  if (undrained > 0) dropped_counter_->Add(undrained);
  for (MicroblogId id : held) TrackExit(id, sub->id);
  unsubscribed_counter_->Increment();
  KFLUSH_TRACE_FLOW_END("sub", "subscription", sub->id);
}

Status SubscriptionManager::SetK(uint64_t sub_id, uint32_t k) {
  if (k == 0 || k > kMaxSubscriptionK) {
    return Status::InvalidArgument("subscription k out of range");
  }
  std::shared_ptr<Subscription> sub;
  bool grew = false;
  bool emitted = false;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) {
      return Status::NotFound("unknown subscription");
    }
    sub = it->second;
    std::lock_guard<std::mutex> sub_lock(sub->mu);
    grew = k > sub->k;
    sub->k = k;
    // Shrink: trim the worst tail, emitting exits so the folded stream
    // stays exactly the reference top-k.
    while (sub->members.size() > k) {
      Posting worst = sub->members.back();
      sub->members.pop_back();
      sub->member_ids.erase(worst.id);
      EmitLocked(sub.get(), SubDeltaKind::kExit, worst.score, worst.id,
                 nullptr, nullptr);
      TrackExit(worst.id, sub->id);
      emitted = true;
    }
  }
  if (emitted) Notify(sub_id);
  // Grow: records displaced under the old k are gone from memory state,
  // so rebuild the larger result from the full record set.
  if (grew) RefillFromSnapshot(sub);
  return Status::OK();
}

bool SubscriptionManager::Matches(const Subscription& sub,
                                  const Microblog& blog) {
  // Term routing already matched keyword/user subscriptions exactly; area
  // subscriptions were routed by overlapping tile and still need the
  // boundary filter — the same predicate the one-shot SearchArea applies.
  if (sub.spec.kind == SubKind::kArea) {
    return AreaContains(sub.spec.box, blog);
  }
  return true;
}

void SubscriptionManager::EmitLocked(Subscription* sub, SubDeltaKind kind,
                                     double score, MicroblogId id,
                                     const Microblog* record,
                                     bool* was_empty) {
  if (was_empty != nullptr) *was_empty = sub->outbox.empty();
  SubDelta delta;
  delta.seq = sub->next_seq++;
  delta.kind = kind;
  delta.score = score;
  delta.id = id;
  if (record != nullptr) delta.record = *record;
  sub->outbox.push_back(std::move(delta));
  published_counter_->Increment();
  KFLUSH_TRACE_FLOW_STEP("sub", "subscription", sub->id,
                         TraceArg::Str("delta", SubDeltaKindName(kind)));
}

bool SubscriptionManager::Offer(Subscription* sub, const Microblog& blog,
                                double score) {
  std::lock_guard<std::mutex> lock(sub->mu);
  if (sub->member_ids.count(blog.id) > 0) return false;  // duplicate offer
  Posting incoming{blog.id, score};
  if (sub->members.size() >= sub->k) {
    if (!RanksBefore(incoming, sub->members.back())) {
      return false;  // does not make the top-k
    }
    Posting displaced = sub->members.back();
    sub->members.pop_back();
    sub->member_ids.erase(displaced.id);
    EmitLocked(sub, SubDeltaKind::kExit, displaced.score, displaced.id,
               nullptr, nullptr);
    TrackExit(displaced.id, sub->id);
  }
  auto pos = std::lower_bound(sub->members.begin(), sub->members.end(),
                              incoming, RanksBefore);
  sub->members.insert(pos, incoming);
  sub->member_ids.insert(blog.id);
  EmitLocked(sub, SubDeltaKind::kEnter, score, blog.id, &blog, nullptr);
  TrackEnter(blog.id, sub->id);
  return true;
}

void SubscriptionManager::OnInsert(const Microblog& blog,
                                   const std::vector<TermId>& terms,
                                   double score) {
  if (active_.load(std::memory_order_relaxed) == 0) return;
  std::vector<uint64_t> to_notify;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    for (TermId term : terms) {
      auto it = by_term_.find(term);
      if (it == by_term_.end()) continue;
      for (uint64_t sub_id : it->second) {
        auto sit = subs_.find(sub_id);
        if (sit == subs_.end()) continue;
        Subscription* sub = sit->second.get();
        if (!Matches(*sub, blog)) continue;
        if (Offer(sub, blog, score)) to_notify.push_back(sub_id);
      }
    }
  }
  for (uint64_t sub_id : to_notify) Notify(sub_id);
}

void SubscriptionManager::OnRecordEvicted(MicroblogId id) {
  if (active_.load(std::memory_order_relaxed) == 0) return;
  std::unique_lock<std::mutex> lock(member_mu_);
  auto it = member_holders_.find(id);
  if (it == member_holders_.end() || it->second.empty()) return;
  // A member of a standing result just left the memory tier. Queue a
  // disk-backed refill for every holder; it runs at the next drain, off
  // this (flushing) thread.
  member_evictions_counter_->Increment();
  if (member_evictions_log_.size() < kMaxEvictionLog) {
    member_evictions_log_.push_back(id);
  }
  std::vector<uint64_t> holders = it->second;
  for (uint64_t sub_id : holders) {
    pending_refills_.push_back(sub_id);
  }
  lock.unlock();
  // Wake the drainer so the refill runs promptly rather than riding the
  // next unrelated delta. The notifier takes no manager lock, so firing
  // it from the flushing thread cannot deadlock.
  for (uint64_t sub_id : holders) Notify(sub_id);
}

void SubscriptionManager::ProcessPendingRefills() {
  std::deque<uint64_t> pending;
  {
    std::lock_guard<std::mutex> lock(member_mu_);
    pending.swap(pending_refills_);
  }
  if (pending.empty()) return;
  std::vector<uint64_t> unique(pending.begin(), pending.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  for (uint64_t sub_id : unique) {
    std::shared_ptr<Subscription> sub;
    {
      std::shared_lock<std::shared_mutex> lock(registry_mu_);
      auto it = subs_.find(sub_id);
      if (it == subs_.end()) continue;  // unsubscribed since the eviction
      sub = it->second;
    }
    refills_counter_->Increment();
    RefillFromSnapshot(sub);
  }
}

void SubscriptionManager::RefillFromSnapshot(
    const std::shared_ptr<Subscription>& sub) {
  if (!snapshot_ || ranking_ == nullptr) return;
  uint32_t k;
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    k = sub->k;
  }
  snapshot_queries_counter_->Increment();
  Result<QueryResult> result = snapshot_(sub->spec, k);
  if (!result.ok()) return;
  bool emitted = false;
  {
    // Offers happen under the registry lock (like OnInsert) so they
    // cannot race FinishUnsubscribe's outbox accounting.
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    if (subs_.find(sub->id) == subs_.end()) return;
    for (const Microblog& blog : result->results) {
      if (Offer(sub.get(), blog, ranking_->Score(blog))) emitted = true;
    }
  }
  if (emitted) Notify(sub->id);
}

bool SubscriptionManager::DrainDeltas(uint64_t sub_id,
                                      std::vector<SubDelta>* out) {
  ProcessPendingRefills();
  std::shared_ptr<Subscription> sub;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) return false;
    sub = it->second;
  }
  size_t drained = 0;
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    drained = sub->outbox.size();
    for (SubDelta& delta : sub->outbox) {
      out->push_back(std::move(delta));
    }
    sub->outbox.clear();
  }
  if (drained > 0) pushed_counter_->Add(drained);
  return true;
}

bool SubscriptionManager::HasUndrainedDeltas(uint64_t sub_id) const {
  std::shared_ptr<Subscription> sub;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) return false;
    sub = it->second;
  }
  std::lock_guard<std::mutex> lock(sub->mu);
  return !sub->outbox.empty();
}

bool SubscriptionManager::SnapshotMembers(uint64_t sub_id,
                                          std::vector<Posting>* out) const {
  std::shared_ptr<Subscription> sub;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = subs_.find(sub_id);
    if (it == subs_.end()) return false;
    sub = it->second;
  }
  std::lock_guard<std::mutex> lock(sub->mu);
  out->assign(sub->members.begin(), sub->members.end());
  return true;
}

void SubscriptionManager::Shutdown() {
  std::unordered_map<uint64_t, std::shared_ptr<Subscription>> subs;
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    subs.swap(subs_);
    by_term_.clear();
    active_.store(0, std::memory_order_release);
    active_gauge_->Set(0);
  }
  for (auto& [id, sub] : subs) {
    (void)id;
    FinishUnsubscribe(sub);
  }
  {
    std::lock_guard<std::mutex> lock(member_mu_);
    pending_refills_.clear();
  }
}

void SubscriptionManager::Notify(uint64_t sub_id) {
  std::lock_guard<std::mutex> lock(notifier_mu_);
  if (notifier_) notifier_(sub_id);
}

void SubscriptionManager::TrackEnter(MicroblogId id, uint64_t sub_id) {
  std::lock_guard<std::mutex> lock(member_mu_);
  member_holders_[id].push_back(sub_id);
}

void SubscriptionManager::TrackExit(MicroblogId id, uint64_t sub_id) {
  std::lock_guard<std::mutex> lock(member_mu_);
  auto it = member_holders_.find(id);
  if (it == member_holders_.end()) return;
  auto& holders = it->second;
  auto pos = std::find(holders.begin(), holders.end(), sub_id);
  if (pos != holders.end()) holders.erase(pos);
  if (holders.empty()) member_holders_.erase(it);
}

std::vector<MicroblogId> SubscriptionManager::member_eviction_ids() const {
  std::lock_guard<std::mutex> lock(member_mu_);
  return member_evictions_log_;
}

namespace {

/// The snapshot querier: a standing result recomputed over the FULL
/// record set. force_disk defeats the memory-hit shortcut, so a refill
/// reads every tier even where the hit rule holds.
Result<QueryResult> SnapshotQueryOn(QueryEngine* engine,
                                    const SubscriptionSpec& spec, uint32_t k) {
  if (spec.kind == SubKind::kArea) {
    return engine->SearchArea(spec.box.min_lat, spec.box.min_lon,
                              spec.box.max_lat, spec.box.max_lon, k,
                              /*max_tiles=*/kMaxSubscriptionTiles,
                              /*force_disk=*/true);
  }
  TopKQuery query;
  query.terms.push_back(spec.kind == SubKind::kKeyword
                            ? spec.term
                            : static_cast<TermId>(spec.user));
  query.type = QueryType::kSingle;
  query.k = k;
  query.force_disk = true;
  return engine->Execute(query);
}

}  // namespace

std::unique_ptr<SubscriptionManager> MakeSubscriptions(QueryEngine* engine) {
  auto manager = std::make_unique<SubscriptionManager>(
      [engine](const SubscriptionSpec& spec, uint32_t k) {
        return SnapshotQueryOn(engine, spec, k);
      });
  for (size_t i = 0; i < engine->num_shards(); ++i) {
    manager->AttachStore(engine->store(i));
  }
  return manager;
}

}  // namespace kflush
