#pragma once
// Content-addressed result cache of the serve front-end.
//
// Keyed by (canonical spec hash, FlowOptions fingerprint): two requests
// collide exactly when the parsed specification is canonically identical
// (stg/canon.hpp — formatting, comments and declaration order are gone)
// AND every output-affecting option matches (FlowOptions::fingerprint —
// wall-clock deadlines deliberately excluded, so a request that merely
// allows less time still reuses a cached success).
//
// The value is the request's serialized result payload (report JSON +
// emitted netlists, one compact pre-serialized string) stored in a
// slab-pool block (serve/arena.hpp); warm responses splice the cached
// bytes verbatim, which is what makes them bit-identical to the cold
// response that populated the entry.
//
// Sharded: key-hash picks one of N shards, each with its own mutex, LRU
// list, index and slab pool, so concurrent workers miss/insert on
// different shards without contending.  Eviction is byte-budgeted LRU per
// shard (budget/shards each): inserting past the budget evicts from the
// cold end until the new entry fits; an entry larger than a whole shard's
// budget is not cached at all.  Hit/miss/eviction counters are global
// relaxed atomics, surfaced in the serve stats JSON.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/arena.hpp"
#include "stg/canon.hpp"

namespace sitm::serve {

struct CacheKey {
  SpecHash spec;            ///< canonical_spec_hash of the parsed request
  std::uint64_t options = 0;  ///< FlowOptions::fingerprint()

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    // The spec hash is already uniform; fold in the options fingerprint.
    return static_cast<std::size_t>(
        k.spec.lo ^ (k.spec.hi * 0x9e3779b97f4a7c15ull) ^
        (k.options * 0xc2b2ae3d27d4eb4full));
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t rejected = 0;  ///< payload larger than a shard's budget
  std::size_t entries = 0;
  std::size_t bytes_live = 0;    ///< slab bytes held by cached entries
  std::size_t bytes_pooled = 0;  ///< slab bytes parked on freelists
  std::size_t byte_budget = 0;
};

class FlowCache {
 public:
  /// `byte_budget` bounds the live payload bytes across all shards
  /// (rounded slab sizes + fixed per-entry overhead); `shards` is clamped
  /// to >= 1.
  explicit FlowCache(std::size_t byte_budget, int shards = 16);

  /// Resident entries hold raw slab blocks; ~SlabPool only frees its
  /// freelist, so they must be released before the shards go away.
  ~FlowCache() { clear(); }

  /// Copy the payload for `key` into `*out` and mark the entry
  /// most-recently-used.  False (and a miss count) when absent.
  bool lookup(const CacheKey& key, std::string* out);

  /// Move one counted lookup from the misses to the hits (`as_hit`) or
  /// back.  Serve's single flight answers a missed request with an
  /// identical in-flight request's result, which makes it a hit, and takes
  /// that back when the flight failed and the request runs its own flow.
  void recount_lookup(bool as_hit);

  /// Insert `payload` for `key`, evicting LRU entries as needed.  A key
  /// already present keeps its existing payload (two racing misses compute
  /// identical bytes; the first one wins).
  void insert(const CacheKey& key, std::string_view payload);

  /// Drop every entry (slab blocks go back to the pools, freelists are
  /// trimmed).  Counters keep their totals.
  void clear();

  CacheStats stats() const;

  /// Fixed accounting overhead charged per entry on top of its slab block
  /// (index node, LRU node, key).
  static constexpr std::size_t kEntryOverhead = 128;

 private:
  struct Entry {
    CacheKey key;
    SlabPool::Block block;
    std::size_t payload_len = 0;
    std::size_t charged = 0;  ///< block.size + kEntryOverhead
  };
  struct Shard {
    std::mutex m;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index;
    SlabPool pool;
    std::size_t bytes = 0;  ///< charged bytes of live entries
  };

  Shard& shard_for(const CacheKey& key) {
    return *shards_[CacheKeyHash{}(key) % shards_.size()];
  }
  /// Evict cold entries of `s` until `need` more charged bytes fit the
  /// per-shard budget.  Caller holds s.m.
  void evict_for(Shard& s, std::size_t need);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_budget_ = 0;
  std::size_t byte_budget_ = 0;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace sitm::serve
