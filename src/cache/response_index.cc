#include "cache/response_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/keyword_set.h"

namespace locaware::cache {

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kFifo:
      return "fifo";
    case EvictionPolicy::kRandom:
      return "random";
  }
  return "?";
}

ResponseIndex::ResponseIndex(const ResponseIndexConfig& config)
    : config_(config), eviction_rng_state_(config.eviction_seed | 1) {
  LOCAWARE_CHECK_GT(config.max_filenames, 0u);
  LOCAWARE_CHECK_GT(config.max_providers_per_file, 0u);
  // The entry array and the tables draw their buffers from the same arena as
  // the per-entry spill vectors. Deliberately NOT pre-sized to
  // max_filenames: an Entry is fat (inline keyword/provider SmallVectors),
  // the engine builds one index per peer, and most peers' caches stay far
  // below capacity — eager full-capacity buffers cost hundreds of MB of cold
  // arena pages at 10k peers (measured 3x engine slowdown). Growth is
  // amortized and the discarded power-of-two buffers recycle through the
  // arena's free lists.
  entries_.set_arena(config_.arena);
  slot_of_.set_arena(config_.arena);
  inverted_.set_arena(config_.arena);
}

uint32_t ResponseIndex::SlotOf(FileId file) const {
  auto it = slot_of_.find(file);
  return it == slot_of_.end() ? kNoSlot : it->second;
}

void ResponseIndex::LinkAtBack(uint32_t slot) {
  Entry& e = entries_[slot];
  e.prev = use_tail_;
  e.next = kNoSlot;
  if (use_tail_ != kNoSlot) {
    entries_[use_tail_].next = slot;
  } else {
    use_head_ = slot;
  }
  use_tail_ = slot;
}

void ResponseIndex::Unlink(uint32_t slot) {
  Entry& e = entries_[slot];
  if (e.prev != kNoSlot) {
    entries_[e.prev].next = e.next;
  } else {
    use_head_ = e.next;
  }
  if (e.next != kNoSlot) {
    entries_[e.next].prev = e.prev;
  } else {
    use_tail_ = e.prev;
  }
}

void ResponseIndex::AddPostings(FileId file, std::span<const KeywordId> keywords) {
  for (KeywordId kw : keywords) {
    auto [it, inserted] = inverted_.try_emplace(kw);
    if (inserted) it->second.set_arena(config_.arena);
    it->second.push_back(file);
  }
}

void ResponseIndex::RemovePostings(FileId file, std::span<const KeywordId> keywords) {
  for (KeywordId kw : keywords) {
    auto it = inverted_.find(kw);
    LOCAWARE_CHECK(it != inverted_.end());
    auto pos = std::find(it->second.begin(), it->second.end(), file);
    LOCAWARE_CHECK(pos != it->second.end());
    it->second.erase(pos);  // preserves posting order for determinism
    if (it->second.empty()) inverted_.erase(it);
  }
}

ResponseIndex::UpdateOutcome ResponseIndex::AddProvider(
    FileId file, std::span<const KeywordId> sorted_keywords,
    const ProviderEntry& entry, sim::SimTime now) {
  // The id-plane contract (common/types.h): keyword sets travel sorted and
  // deduplicated. A violation would corrupt containment checks or double-
  // post the file under one keyword silently, so fail loudly.
  LOCAWARE_CHECK(std::is_sorted(sorted_keywords.begin(), sorted_keywords.end()))
      << "AddProvider keywords must be sorted ascending";
  LOCAWARE_CHECK(std::adjacent_find(sorted_keywords.begin(), sorted_keywords.end()) ==
                 sorted_keywords.end())
      << "AddProvider keywords must be deduplicated";
  UpdateOutcome outcome;

  uint32_t slot = SlotOf(file);
  if (slot == kNoSlot) {
    while (entries_.size() >= config_.max_filenames) EvictOne(&outcome.evicted);
    Entry fresh;
    fresh.file = file;
    fresh.keywords.set_arena(config_.arena);
    fresh.providers.set_arena(config_.arena);
    fresh.keywords.assign(sorted_keywords.begin(), sorted_keywords.end());
    entries_.push_back(std::move(fresh));
    slot = static_cast<uint32_t>(entries_.size() - 1);
    slot_of_.try_emplace(file, slot);
    LinkAtBack(slot);
    AddPostings(file, entries_[slot].keywords);
    outcome.file_inserted = true;
  } else {
    Touch(slot);
  }

  Entry& e = entries_[slot];
  // Refresh an existing provider: drop its old slot, re-insert at front.
  auto existing = std::find_if(e.providers.begin(), e.providers.end(),
                               [&](const ProviderEntry& p) {
                                 return p.provider == entry.provider;
                               });
  if (existing != e.providers.end()) e.providers.erase(existing);

  ProviderEntry stamped = entry;
  stamped.added_at = now;
  e.providers.insert(e.providers.begin(), stamped);
  if (e.providers.size() > config_.max_providers_per_file) {
    e.providers.pop_back();  // most-recent replaces oldest (§4.1.2)
  }
  outcome.provider_inserted = true;
  ++stats_.inserts;
  return outcome;
}

bool ResponseIndex::PruneStale(Entry* entry, sim::SimTime now) {
  if (config_.entry_ttl <= 0) return !entry->providers.empty();
  auto stale = std::remove_if(entry->providers.begin(), entry->providers.end(),
                              [&](const ProviderEntry& p) {
                                return now - p.added_at > config_.entry_ttl;
                              });
  stats_.expirations += static_cast<uint64_t>(entry->providers.end() - stale);
  entry->providers.erase(stale, entry->providers.end());
  return !entry->providers.empty();
}

ProviderVec ResponseIndex::LiveProviders(const Entry& entry, sim::SimTime now) const {
  if (config_.entry_ttl <= 0) return entry.providers;
  ProviderVec live;
  for (const ProviderEntry& p : entry.providers) {
    if (now - p.added_at <= config_.entry_ttl) live.push_back(p);
  }
  return live;
}

std::vector<ResponseIndex::Hit> ResponseIndex::LookupByKeywords(
    std::span<const KeywordId> sorted_query, sim::SimTime now) {
  LOCAWARE_CHECK(std::is_sorted(sorted_query.begin(), sorted_query.end()))
      << "LookupByKeywords query must be sorted ascending";
  ++stats_.lookups;
  // Lookups filter stale providers from what they return but never erase
  // entries: removal happens only in AddProvider (eviction) and ExpireStale
  // (sweep), so owners with derived structures (Locaware's counting Bloom
  // filter) see every removal.
  std::vector<Hit> hits;
  if (sorted_query.empty()) {
    // An empty query is satisfied by every file (vacuous containment), same
    // as the string-era semantics. Sorted file order, not table order: the
    // hit list feeds provider selection, so iteration order is observable.
    for (FileId file : Files()) {
      ProviderVec live = LiveProviders(entries_[SlotOf(file)], now);
      if (!live.empty()) hits.push_back(Hit{file, std::move(live)});
    }
  } else {
    // Seed from the rarest query keyword's posting list; any query keyword
    // with no posting means no entry can contain them all.
    const FilePostingVec* seed =
        SmallestPosting(sorted_query, [&](KeywordId kw) -> const FilePostingVec* {
          auto it = inverted_.find(kw);
          return it == inverted_.end() ? nullptr : &it->second;
        });
    if (seed != nullptr) {
      for (FileId file : *seed) {
        const Entry& entry = entries_[SlotOf(file)];
        if (!ContainsAllIds(entry.keywords, sorted_query)) continue;
        ProviderVec live = LiveProviders(entry, now);
        if (live.empty()) continue;
        hits.push_back(Hit{file, std::move(live)});
      }
    }
  }
  for (const Hit& h : hits) Touch(SlotOf(h.file));
  if (!hits.empty()) ++stats_.hits;
  return hits;
}

std::optional<ResponseIndex::Hit> ResponseIndex::LookupFile(FileId file,
                                                            sim::SimTime now) {
  ++stats_.lookups;
  const uint32_t slot = SlotOf(file);
  if (slot == kNoSlot) return std::nullopt;
  ProviderVec live = LiveProviders(entries_[slot], now);
  if (live.empty()) return std::nullopt;
  Touch(slot);
  ++stats_.hits;
  return Hit{file, std::move(live)};
}

std::vector<ResponseIndex::EvictedFile> ResponseIndex::ExpireStale(sim::SimTime now) {
  std::vector<EvictedFile> removed;
  if (config_.entry_ttl <= 0) return removed;
  // Collect-and-sort before acting: the table is unordered, so sweeping in
  // iteration order would let table layout leak into the removal report (and
  // through it into any order-sensitive consumer). Sorted keys make the
  // sweep a pure function of the index's *contents*, whatever container
  // backs it.
  for (FileId file : Files()) {
    const uint32_t slot = SlotOf(file);
    if (PruneStale(&entries_[slot], now)) continue;
    removed.push_back(EvictedFile{file, std::move(entries_[slot].keywords)});
    EraseSlot(slot, removed.back().keywords);
  }
  return removed;
}

std::vector<ResponseIndex::EvictedFile> ResponseIndex::RemoveProvider(
    PeerId provider) {
  std::vector<EvictedFile> removed;
  // Same collect-and-sort rule as ExpireStale: act in sorted key order, never
  // table order.
  for (FileId file : Files()) {
    const uint32_t slot = SlotOf(file);
    ProviderVec& providers = entries_[slot].providers;
    auto pos = std::find_if(providers.begin(), providers.end(),
                            [&](const ProviderEntry& p) {
                              return p.provider == provider;
                            });
    if (pos == providers.end()) continue;
    providers.erase(pos);
    ++stats_.invalidations;
    if (providers.empty()) {
      removed.push_back(EvictedFile{file, std::move(entries_[slot].keywords)});
      EraseSlot(slot, removed.back().keywords);
    }
  }
  return removed;
}

void ResponseIndex::EraseSlot(uint32_t slot, std::span<const KeywordId> keywords) {
  const FileId file = entries_[slot].file;
  RemovePostings(file, keywords);
  Unlink(slot);
  slot_of_.erase(file);
  const uint32_t last = static_cast<uint32_t>(entries_.size() - 1);
  if (slot != last) {
    // Fill the hole with the last entry and repoint everything naming it.
    Entry& moved = entries_[slot];
    moved = std::move(entries_[last]);
    if (moved.prev != kNoSlot) {
      entries_[moved.prev].next = slot;
    } else {
      use_head_ = slot;
    }
    if (moved.next != kNoSlot) {
      entries_[moved.next].prev = slot;
    } else {
      use_tail_ = slot;
    }
    slot_of_.at(moved.file) = slot;
  }
  entries_.pop_back();
}

bool ResponseIndex::Erase(FileId file) {
  const uint32_t slot = SlotOf(file);
  if (slot == kNoSlot) return false;
  EraseSlot(slot, entries_[slot].keywords);
  return true;
}

bool ResponseIndex::Contains(FileId file) const { return slot_of_.contains(file); }

size_t ResponseIndex::TotalProviderCount() const {
  size_t total = 0;
  for (const Entry& entry : entries_) total += entry.providers.size();
  return total;
}

std::vector<FileId> ResponseIndex::Files() const {
  std::vector<FileId> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.file);
  // Sorted, not slot order: callers act on this list (sweeps, reports), and
  // the storage layout must never leak into observable behavior.
  std::sort(out.begin(), out.end());
  return out;
}

const KeywordVec& ResponseIndex::KeywordsOf(FileId file) const {
  const uint32_t slot = SlotOf(file);
  LOCAWARE_CHECK(slot != kNoSlot) << "KeywordsOf(" << file << ") absent";
  return entries_[slot].keywords;
}

void ResponseIndex::Touch(uint32_t slot) {
  if (config_.eviction != EvictionPolicy::kLru) return;  // FIFO/random ignore use
  if (slot == use_tail_) return;
  Unlink(slot);
  LinkAtBack(slot);
}

void ResponseIndex::EvictOne(std::vector<EvictedFile>* evicted) {
  LOCAWARE_CHECK(!entries_.empty());
  uint32_t victim = use_head_;  // LRU and FIFO both pop the front
  if (config_.eviction == EvictionPolicy::kRandom) {
    // xorshift64* steps a private generator; cheap and reproducible.
    eviction_rng_state_ ^= eviction_rng_state_ >> 12;
    eviction_rng_state_ ^= eviction_rng_state_ << 25;
    eviction_rng_state_ ^= eviction_rng_state_ >> 27;
    const uint64_t r = eviction_rng_state_ * 0x2545F4914F6CDD1DULL;
    // The idx-th file in use order, walked from the head.
    for (size_t idx = static_cast<size_t>(r % entries_.size()); idx > 0; --idx) {
      victim = entries_[victim].next;
    }
  }
  // Keywords are moved into the eviction report first, so posting removal
  // reads them from there (the entry's own vector is empty afterwards).
  Entry& entry = entries_[victim];
  evicted->push_back(EvictedFile{entry.file, std::move(entry.keywords)});
  EraseSlot(victim, evicted->back().keywords);
  ++stats_.evictions;
}

}  // namespace locaware::cache
