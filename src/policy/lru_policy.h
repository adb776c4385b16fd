// The LRU anti-caching baseline, modeled on H-Store's anti-cache (paper
// §V: "a global doubly-linked list is maintained to order microblogs in
// least recently used order"). Every insertion and every query access
// touches the global list under one lock — faithfully reproducing both the
// per-item tracking overhead (Figure 10(a)) and the digestion-rate collapse
// under concurrent querying (Figure 10(b)).

#ifndef KFLUSH_POLICY_LRU_POLICY_H_
#define KFLUSH_POLICY_LRU_POLICY_H_

#include <list>
#include <unordered_map>

#include "index/inverted_index.h"
#include "policy/flush_policy.h"

namespace kflush {

/// Anti-caching with a global LRU list over individual microblogs.
class LruPolicy : public FlushPolicy {
 public:
  /// Approximate bookkeeping bytes per tracked record (two list pointers
  /// embedded conceptually in the record's index entry, plus the position
  /// map node).
  static constexpr size_t kBytesPerNode = 48;

  LruPolicy(const PolicyContext& ctx, uint32_t k);
  ~LruPolicy() override;

  PolicyKind kind() const override { return PolicyKind::kLru; }

  void Insert(const Microblog& blog, const std::vector<TermId>& terms,
              double score) override;
  size_t QueryTerm(TermId term, size_t limit,
                   std::vector<Posting>* out) override;
  size_t EntrySize(TermId term) const override;
  void OnResultAccess(const std::vector<MicroblogId>& ids) override;

  size_t NumTerms() const override;
  size_t NumKFilledTerms() const override;
  void CollectEntrySizes(std::vector<size_t>* out) const override;
  size_t AuxMemoryBytes() const override;

  /// Number of records currently tracked by the LRU list (tests).
  size_t LruListSize() const;

 protected:
  size_t FlushImpl(size_t bytes_needed) override;

 private:
  /// Moves `id` to the MRU end, inserting if untracked.
  void Touch(MicroblogId id);
  /// Pops the LRU-end id; returns kInvalidMicroblogId when empty.
  MicroblogId PopColdest();
  void Untrack(MicroblogId id);

  InvertedIndex index_;

  /// The global list: front = most recently used. One mutex guards both
  /// the list and the position map — deliberately global, as in H-Store.
  mutable std::mutex lru_mu_;
  std::list<MicroblogId> lru_;
  std::unordered_map<MicroblogId, std::list<MicroblogId>::iterator> position_;
};

}  // namespace kflush

#endif  // KFLUSH_POLICY_LRU_POLICY_H_
