#pragma once
// Open-addressing hash containers for the synthesis hot paths.
//
// The reachability engine, the CSC conflict detector and the minimizer all
// need key -> small-value lookups in their inner loops.  Generic node-based
// containers (std::map / std::unordered_map) spend most of their time in
// allocation and pointer chasing there; this header provides a minimal flat
// alternative: power-of-two capacity, linear probing, no erase, grow at ~70%
// load.  Keys and values are stored inline in one contiguous slot array.
// (The SI verifier keeps its own set of packed 8-byte keys; see
// netlist/si_verify.hpp.)

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sitm {

/// Final mixer of splitmix64: cheap, well-distributed 64 -> 64 bit hash.
inline std::uint64_t hash_mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hash for integral keys up to 64 bits.
struct U64Hash {
  std::uint64_t operator()(std::uint64_t k) const { return hash_mix(k); }
};

/// Hash for word-vector keys (wide Petri-net markings).
struct WordVecHash {
  std::uint64_t operator()(const std::vector<std::uint64_t>& v) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ v.size();
    for (std::uint64_t w : v) h = hash_mix(h ^ w);
    return h;
  }
};

/// Flat open-addressing hash map.  Insert-only (no erase), which is all the
/// hot paths need; `clear` keeps the capacity.  Iteration order is
/// unspecified — callers that need deterministic output must order results
/// themselves (the synthesis code keys results by dense ids, so this never
/// shows through).
template <class Key, class Value, class Hash = U64Hash>
class FlatMap {
 public:
  FlatMap() = default;
  explicit FlatMap(std::size_t expected) { reserve(expected); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(used_.begin(), used_.end(), false);
    size_ = 0;
  }

  void reserve(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 7 < expected * 10) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Pointer to the value stored under `key`, or nullptr.
  Value* find(const Key& key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = Hash{}(key) & mask_;; i = (i + 1) & mask_) {
      if (!used_[i]) return nullptr;
      if (slots_[i].key == key) return &slots_[i].value;
    }
  }
  const Value* find(const Key& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Insert (key, value) if absent.  Returns the address of the stored value
  /// and whether an insertion happened.  The returned pointer is invalidated
  /// by the next insertion.
  std::pair<Value*, bool> emplace(Key key, Value value) {
    if ((size_ + 1) * 10 >= slots_.size() * 7)
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = Hash{}(key) & mask_;; i = (i + 1) & mask_) {
      if (!used_[i]) {
        used_[i] = true;
        slots_[i].key = std::move(key);
        slots_[i].value = std::move(value);
        ++size_;
        return {&slots_[i].value, true};
      }
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
  }

  /// Value under `key`, default-constructing it if absent.
  Value& operator[](Key key) { return *emplace(std::move(key), Value{}).first; }

  /// Invoke fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (used_[i]) fn(slots_[i].key, slots_[i].value);
  }

 private:
  struct Slot {
    Key key;
    Value value;
  };

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<char> old_used = std::move(used_);
    slots_.assign(new_cap, Slot{});
    used_.assign(new_cap, false);
    mask_ = new_cap - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      for (std::size_t j = Hash{}(old_slots[i].key) & mask_;;
           j = (j + 1) & mask_) {
        if (used_[j]) continue;
        used_[j] = true;
        slots_[j] = std::move(old_slots[i]);
        break;
      }
    }
  }

  std::vector<Slot> slots_;
  std::vector<char> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sitm
