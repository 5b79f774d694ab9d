// An insertion-ordered Txid -> V map.
//
// The chain's transaction index and the observer's first-seen log are
// built once, looked up tens of thousands of times per audit, and never
// erased from. A node-based std::unordered_map spends most of a warm
// audit allocating, hashing into and freeing one node per transaction;
// this map keeps the entries dense in a vector (insertion order, one
// allocation) and locates them through an open-addressed table of u32
// entry ordinals at load factor <= 1/2. The index costs 8-16 bytes per
// entry, far less than a table of whole (Txid, V) slots would.
//
// Txids are SHA-256 digests, so their first 8 bytes (Txid::short_id) are
// already uniform; the Fibonacci multiply only spreads hand-made test ids
// whose entropy sits in a few bits. Keys that share a short_id still
// resolve: every probe compares the full 32-byte Txid.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "btc/txid.hpp"
#include "util/assert.hpp"

namespace cn::btc {

template <class V>
class TxidMap {
 public:
  using value_type = std::pair<Txid, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Iteration follows insertion order.
  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }

  /// Index slots; changes only when the map re-indexes.
  std::size_t bucket_count() const noexcept { return index_.size(); }

  /// Sizes both the entries and the index so @p n entries in total fit
  /// without a reallocation or a re-index.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    if (slots_for(n) > index_.size()) reindex(slots_for(n));
  }

  /// Inserts (@p id, @p value) unless @p id is present; like
  /// std::unordered_map::emplace, a duplicate keeps the first value and
  /// returns false with an iterator to the existing entry.
  std::pair<const_iterator, bool> emplace(const Txid& id, V value) {
    CN_ASSERT(entries_.size() < std::numeric_limits<std::uint32_t>::max());
    if (slots_for(entries_.size() + 1) > index_.size()) {
      reindex(slots_for(entries_.size() + 1));
    }
    std::size_t slot = home(id);
    for (; index_[slot] != 0; slot = (slot + 1) & (index_.size() - 1)) {
      const std::size_t e = index_[slot] - 1;
      if (entries_[e].first == id) return {entries_.begin() + e, false};
    }
    index_[slot] = static_cast<std::uint32_t>(entries_.size() + 1);
    entries_.emplace_back(id, std::move(value));
    return {entries_.end() - 1, true};
  }

  const_iterator find(const Txid& id) const noexcept {
    if (index_.empty()) return end();
    for (std::size_t slot = home(id);; slot = (slot + 1) & (index_.size() - 1)) {
      const std::uint32_t e = index_[slot];
      if (e == 0) return end();
      if (entries_[e - 1].first == id) return entries_.begin() + (e - 1);
    }
  }

  bool contains(const Txid& id) const noexcept { return find(id) != end(); }

  /// Same keys mapped to equal values, whatever the insertion orders.
  friend bool operator==(const TxidMap& a, const TxidMap& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [id, value] : a) {
      const auto it = b.find(id);
      if (it == b.end() || !(it->second == value)) return false;
    }
    return true;
  }

 private:
  /// Power-of-two slot count keeping @p n entries at load factor <= 1/2.
  static std::size_t slots_for(std::size_t n) noexcept {
    return n == 0 ? 0 : std::max<std::size_t>(16, std::bit_ceil(2 * n));
  }

  std::size_t home(const Txid& id) const noexcept {
    return static_cast<std::size_t>((id.short_id() * 0x9E3779B97F4A7C15ull) >>
                                    shift_);
  }

  void reindex(std::size_t slots) {
    index_.assign(slots, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t slot = home(entries_[e].first);
      while (index_[slot] != 0) slot = (slot + 1) & (slots - 1);
      index_[slot] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::vector<value_type> entries_;
  std::vector<std::uint32_t> index_;  ///< 0 = empty, else entry ordinal + 1
  unsigned shift_ = 64;
};

}  // namespace cn::btc
