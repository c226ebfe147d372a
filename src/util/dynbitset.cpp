#include "util/dynbitset.hpp"

#include <algorithm>

namespace sitm {

void DynBitset::set_all() {
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  trim_tail();
}

void DynBitset::trim_tail() {
  if (!words_.empty()) words_.back() &= bitwords::tail_mask(size_);
}

std::size_t DynBitset::count() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

bool DynBitset::any() const {
  for (auto w : words_)
    if (w) return true;
  return false;
}

DynBitset& DynBitset::operator|=(const DynBitset& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

DynBitset& DynBitset::operator&=(const DynBitset& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

DynBitset& DynBitset::operator-=(const DynBitset& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  return *this;
}

DynBitset DynBitset::operator~() const {
  DynBitset out(size_);
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] = ~words_[i];
  out.trim_tail();
  return out;
}

bool DynBitset::disjoint(const DynBitset& o) const {
  for (std::size_t i = 0; i < words_.size(); ++i)
    if (words_[i] & o.words_[i]) return false;
  return true;
}

std::size_t DynBitset::first() const {
  for (std::size_t w = 0; w < words_.size(); ++w)
    if (words_[w]) return w * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[w]));
  return npos;
}

std::size_t DynBitset::next(std::size_t i) const {
  ++i;
  if (i >= size_) return npos;
  std::size_t w = i >> 6;
  std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (i & 63));
  while (true) {
    if (bits) return w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
    if (++w >= words_.size()) return npos;
    bits = words_[w];
  }
}

}  // namespace sitm
