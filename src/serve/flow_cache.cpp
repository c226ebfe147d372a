#include "serve/flow_cache.hpp"

#include <cstring>

namespace sitm::serve {

FlowCache::FlowCache(std::size_t byte_budget, int shards) {
  if (shards < 1) shards = 1;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  byte_budget_ = byte_budget;
  shard_budget_ = byte_budget / static_cast<std::size_t>(shards);
}

bool FlowCache::lookup(const CacheKey& key, std::string* out) {
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.m);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  if (out) out->assign(it->second->block.data, it->second->payload_len);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FlowCache::recount_lookup(bool as_hit) {
  (as_hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  (as_hit ? misses_ : hits_).fetch_sub(1, std::memory_order_relaxed);
}

void FlowCache::evict_for(Shard& s, std::size_t need) {
  while (!s.lru.empty() && s.bytes + need > shard_budget_) {
    Entry& victim = s.lru.back();
    s.bytes -= victim.charged;
    s.index.erase(victim.key);
    s.pool.release(victim.block);
    s.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FlowCache::insert(const CacheKey& key, std::string_view payload) {
  Shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.m);
  if (s.index.contains(key)) return;

  // Charge what will actually be resident: the rounded slab block plus the
  // fixed index/LRU overhead.  An entry that alone exceeds the shard's
  // budget would evict everything and still not fit — reject it instead.
  Entry e;
  e.key = key;
  e.payload_len = payload.size();
  e.block = s.pool.alloc(payload.size() ? payload.size() : 1);
  e.charged = e.block.size + kEntryOverhead;
  if (e.charged > shard_budget_) {
    s.pool.release(e.block);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  evict_for(s, e.charged);
  std::memcpy(e.block.data, payload.data(), payload.size());
  s.bytes += e.charged;
  s.lru.push_front(std::move(e));
  s.index.emplace(key, s.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void FlowCache::clear() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.m);
    for (Entry& e : s.lru) s.pool.release(e.block);
    s.lru.clear();
    s.index.clear();
    s.bytes = 0;
    s.pool.trim();
  }
}

CacheStats FlowCache::stats() const {
  CacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.insertions = insertions_.load(std::memory_order_relaxed);
  st.rejected = rejected_.load(std::memory_order_relaxed);
  st.byte_budget = byte_budget_;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    const std::lock_guard<std::mutex> lock(s.m);
    st.entries += s.lru.size();
    st.bytes_live += s.pool.bytes_live();
    st.bytes_pooled += s.pool.bytes_pooled();
  }
  return st;
}

}  // namespace sitm::serve
