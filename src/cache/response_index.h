// The response index (RI) — the per-peer cache of file indexes at the heart
// of all caching protocols in the paper (§3.2, §4.1).
//
// An index maps a file to one or more *providers* (peer address + locId +
// freshness timestamp). Locaware keeps several providers per file,
// most-recent-first ("the most recent pf entries replace the oldest ones",
// §4.1.2); Dicas keeps a single provider. Capacity is bounded in files
// ("each peer can control its cache size in function of its storage
// capacity") with pluggable eviction, and entries can expire after a lifetime
// (Markatos' observation that cached results go stale quickly in Gnutella).
//
// The index lives entirely on the id plane (common/types.h): entries are
// keyed by FileId and carry sorted KeywordId sets — no strings. Keyword
// search intersects per-keyword posting lists (KeywordId -> files) instead
// of scanning every entry with string compares. All three per-entry lists
// (keywords, providers, postings) are SmallVectors with inline storage sized
// for the common case, so steady-state insert/evict churn touches the heap
// only for outlier entries (bench/micro_cache pins the win).
//
// Entries sit densely in one array behind a FileId -> slot table, linked
// into the use order by slot index, so an index costs what it holds: most
// peers cache a handful of files, and a hash table of fat entries would pay
// for at least eight (bench/micro_cache's bytes/entry).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/small_vector.h"
#include "common/types.h"
#include "sim/sim_time.h"

namespace locaware::cache {

/// One known provider of a cached file.
struct ProviderEntry {
  PeerId provider = kInvalidPeer;
  LocId loc_id = 0;
  sim::SimTime added_at = 0;
};

/// Inline-capacity lists sized for the steady state: the catalog generates 3
/// keywords per file, posting lists stay short under a 50-file cap, and the
/// provider cap defaults to 8 (Locaware's "several providers").
using KeywordVec = SmallVector<KeywordId, 4>;
using ProviderVec = SmallVector<ProviderEntry, 8>;
using FilePostingVec = SmallVector<FileId, 4>;

/// Which cached file to sacrifice when the index is full.
enum class EvictionPolicy {
  kLru,     ///< least-recently *used* (lookups and inserts refresh) — default
  kFifo,    ///< insertion order, ignores use
  kRandom,  ///< uniform random victim
};

const char* EvictionPolicyName(EvictionPolicy policy);

/// Capacity and lifetime knobs.
struct ResponseIndexConfig {
  /// Max distinct files cached (paper sizes Bloom filters for ~50).
  size_t max_filenames = 50;
  /// Max providers remembered per file (Locaware: several; Dicas: 1).
  size_t max_providers_per_file = 8;
  /// Provider entry lifetime; 0 disables expiry.
  sim::SimTime entry_ttl = 0;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Seed for the kRandom eviction policy.
  uint64_t eviction_seed = 0x10caed5eedULL;
  /// Spill source for the per-entry keyword/provider/posting lists (null =
  /// global heap). The sharded engine passes the owning shard's arena; the
  /// index must then only be touched from that shard (it already must be —
  /// the class is not thread-safe).
  common::Arena* arena = nullptr;
};

/// \brief Bounded, keyword-searchable map FileId → provider list.
///
/// Not thread-safe; under the sharded engine each peer's index is owned by
/// the peer's shard.
class ResponseIndex {
 public:
  explicit ResponseIndex(const ResponseIndexConfig& config);

  /// A file removed from the index, with the keyword ids it carried — the
  /// owner needs them to delete the keywords from derived structures
  /// (Locaware's counting Bloom filter).
  struct EvictedFile {
    FileId file = kInvalidFile;
    KeywordVec keywords;  ///< sorted ascending
  };

  /// Outcome of AddProvider, reported so the owner can maintain derived
  /// structures (Locaware updates its counting Bloom filter from these).
  struct UpdateOutcome {
    bool file_inserted = false;            ///< a new file entered the index
    bool provider_inserted = false;        ///< a (new or refreshed) provider landed
    std::vector<EvictedFile> evicted;      ///< files removed to make room
  };

  /// Inserts or refreshes `entry` as a provider of `file`, whose keyword-id
  /// set is `sorted_keywords` (ascending; only read when the file is new). A
  /// provider already present is refreshed (timestamp + locId updated) and
  /// moved to most-recent; when the provider list is full the oldest provider
  /// is dropped. May evict whole files per the eviction policy.
  UpdateOutcome AddProvider(FileId file, std::span<const KeywordId> sorted_keywords,
                            const ProviderEntry& entry, sim::SimTime now);

  /// A matching cached file with its live providers (stale ones filtered).
  struct Hit {
    FileId file = kInvalidFile;
    ProviderVec providers;  ///< most recent first
  };

  /// All cached files whose keyword set contains every query keyword
  /// (`sorted_query` ascending). Counts as a "use" for LRU. Stale providers
  /// are filtered out of the result (but not erased — only AddProvider and
  /// ExpireStale remove state); files with no live provider do not match.
  std::vector<Hit> LookupByKeywords(std::span<const KeywordId> sorted_query,
                                    sim::SimTime now);

  /// Exact-file variant of LookupByKeywords.
  std::optional<Hit> LookupFile(FileId file, sim::SimTime now);

  /// Removes every provider older than the ttl (no-op when ttl = 0); returns
  /// the files that became empty and were removed, sorted by FileId — the
  /// sweep collects keys and processes them in sorted order, so the backing
  /// table's layout never leaks into the report.
  std::vector<EvictedFile> ExpireStale(sim::SimTime now);

  /// Invalidates every entry naming `provider` (a peer known to have left the
  /// network); returns the files that lost their last provider and were
  /// removed (sorted by FileId, like ExpireStale) — the owner mirrors those
  /// into derived structures (Locaware's counting Bloom filter), exactly like
  /// an expiry sweep.
  std::vector<EvictedFile> RemoveProvider(PeerId provider);

  /// Removes one file outright; returns whether it was present.
  bool Erase(FileId file);

  bool Contains(FileId file) const;
  size_t num_filenames() const { return entries_.size(); }
  size_t capacity() const { return config_.max_filenames; }
  /// Total provider entries across all files (the storage-cost metric for
  /// the Dicas-Keys duplication comparison).
  size_t TotalProviderCount() const;
  /// Cached files, sorted ascending (deterministic whatever table backs the
  /// index).
  std::vector<FileId> Files() const;
  /// Sorted keyword ids stored for a cached file. CHECK-fails if absent.
  const KeywordVec& KeywordsOf(FileId file) const;

  // --- lifetime counters (monotonic) ---
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;           ///< lookups returning >= 1 file
    uint64_t inserts = 0;        ///< provider insertions (incl. refreshes)
    uint64_t evictions = 0;      ///< files evicted for capacity
    uint64_t expirations = 0;    ///< provider entries dropped for age
    uint64_t invalidations = 0;  ///< provider entries dropped via RemoveProvider
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Slot index meaning "none" (list ends, absent files).
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  struct Entry {
    FileId file = kInvalidFile;
    uint32_t prev = kNoSlot;  ///< use-order neighbor toward the next victim
    uint32_t next = kNoSlot;  ///< use-order neighbor toward the most recent
    KeywordVec keywords;      ///< sorted ascending
    ProviderVec providers;    ///< most recent first
  };

  /// The slot holding `file`, or kNoSlot.
  uint32_t SlotOf(FileId file) const;
  /// Use-order list maintenance (slot indexes, no allocation).
  void LinkAtBack(uint32_t slot);
  void Unlink(uint32_t slot);
  /// Moves a slot to the most-recently-used position.
  void Touch(uint32_t slot);
  /// Evicts one victim per policy; appends it to *evicted.
  void EvictOne(std::vector<EvictedFile>* evicted);
  /// Drops stale providers of one entry; true if any provider survives.
  bool PruneStale(Entry* entry, sim::SimTime now);
  /// Non-mutating copy of an entry's live (non-stale) providers.
  ProviderVec LiveProviders(const Entry& entry, sim::SimTime now) const;
  /// Inverted-index maintenance around entry insertion/removal.
  void AddPostings(FileId file, std::span<const KeywordId> keywords);
  void RemovePostings(FileId file, std::span<const KeywordId> keywords);
  /// Removes the entry in `slot` (postings, use order, slot table), filling
  /// the hole with the last entry. `keywords` are the entry's own, or the
  /// report's for callers that moved them into an eviction report first.
  /// Invalidates `slot` and the last slot.
  void EraseSlot(uint32_t slot, std::span<const KeywordId> keywords);

  ResponseIndexConfig config_;
  /// The entries, dense in slot order (arbitrary: erase moves the last entry
  /// into the hole). Every list the index exposes is sorted or follows the
  /// use order, never slot order.
  SmallVector<Entry, 0> entries_;
  /// FileId -> slot, and KeywordId -> files carrying it (posting order =
  /// insertion order; sized by residency, max ~3 keywords x max_filenames
  /// keys, not by vocabulary). Flat tables (single allocation each,
  /// arena-bound like the per-entry vectors); iteration is table order, so
  /// nothing iterates them (the collect-and-sort rule, common/flat_map.h).
  FlatMap<FileId, uint32_t> slot_of_;
  FlatMap<KeywordId, FilePostingVec> inverted_;
  /// LRU/FIFO order as a list through Entry::prev/next: head = next victim,
  /// tail = most recent.
  uint32_t use_head_ = kNoSlot;
  uint32_t use_tail_ = kNoSlot;
  uint64_t eviction_rng_state_;
  Stats stats_;
};

}  // namespace locaware::cache
