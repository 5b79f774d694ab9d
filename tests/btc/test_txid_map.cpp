#include "btc/txid_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

namespace cn::btc {
namespace {

/// Txid whose four 64-bit words are @p a..@p d (short_id() == @p a).
Txid make_txid(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
               std::uint64_t d = 0) {
  Txid id;
  const std::uint64_t words[4] = {a, b, c, d};
  std::memcpy(id.bytes.data(), words, sizeof(words));
  return id;
}

/// SplitMix64: cheap, well-spread keys for the bulk round trip.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TEST(TxidMap, FindOnEmptyMapIsEnd) {
  TxidMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(Txid::hash_of("x")), map.end());
  EXPECT_FALSE(map.contains(kNullTxid));
  EXPECT_EQ(map.begin(), map.end());
  map.reserve(100);  // an index with no entries still finds nothing
  EXPECT_EQ(map.find(Txid::hash_of("x")), map.end());
}

TEST(TxidMap, DuplicateEmplaceKeepsFirstValue) {
  TxidMap<int> map;
  const Txid id = Txid::hash_of("dup");
  const auto [first, inserted] = map.emplace(id, 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first->second, 1);
  const auto [again, reinserted] = map.emplace(id, 2);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, first);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(id)->second, 1);
}

TEST(TxidMap, IterationFollowsInsertionOrder) {
  TxidMap<int> map;
  std::vector<Txid> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(Txid::hash_of("order" + std::to_string(i)));
    map.emplace(ids.back(), i);
  }
  int expected = 0;
  for (const auto& [id, value] : map) {
    EXPECT_EQ(id, ids[static_cast<std::size_t>(expected)]);
    EXPECT_EQ(value, expected);
    ++expected;
  }
  EXPECT_EQ(expected, 200);
}

TEST(TxidMap, ReserveThenInsertsNeverReindexes) {
  for (const std::size_t n : {1u, 7u, 8u, 9u, 1000u, 4096u}) {
    TxidMap<std::size_t> map;
    map.reserve(n);
    const std::size_t buckets = map.bucket_count();
    map.emplace(make_txid(1), 0);
    const auto* entries = &*map.begin();
    for (std::size_t i = 1; i < n; ++i) map.emplace(make_txid(i + 1), i);
    EXPECT_EQ(map.bucket_count(), buckets) << n;
    EXPECT_EQ(&*map.begin(), entries) << n;  // no entry reallocation either
    EXPECT_GE(map.bucket_count(), 2 * n);    // load factor <= 1/2
  }
}

TEST(TxidMap, KeysSharingShortIdStillResolve) {
  TxidMap<std::uint64_t> map;
  for (std::uint64_t i = 0; i < 300; ++i) {
    map.emplace(make_txid(0xABCDEF, i, ~i, i * 3), i);
  }
  ASSERT_EQ(map.size(), 300u);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto it = map.find(make_txid(0xABCDEF, i, ~i, i * 3));
    ASSERT_NE(it, map.end()) << i;
    EXPECT_EQ(it->second, i);
  }
  EXPECT_FALSE(map.contains(make_txid(0xABCDEF, 301, ~301ull, 903)));
  // Same prefix, same middle words, differing only in the last byte.
  EXPECT_FALSE(map.contains(make_txid(0xABCDEF, 5, ~5ull, 16)));
}

TEST(TxidMap, EqualityIgnoresInsertionOrder) {
  TxidMap<int> a;
  TxidMap<int> b;
  a.emplace(make_txid(1), 10);
  a.emplace(make_txid(2), 20);
  b.emplace(make_txid(2), 20);
  b.emplace(make_txid(1), 10);
  EXPECT_EQ(a, b);
  b.emplace(make_txid(3), 30);
  EXPECT_NE(a, b);
  a.emplace(make_txid(3), 31);
  EXPECT_NE(a, b);  // same keys, one value differs
}

TEST(TxidMap, MillionKeyRoundTrip) {
  constexpr std::uint64_t kKeys = 1'000'000;
  std::vector<Txid> ids;
  ids.reserve(kKeys);
  std::uint64_t state = 42;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ids.push_back(make_txid(mix(state), mix(state), mix(state), mix(state)));
  }
  TxidMap<std::uint64_t> map;  // grows by re-indexing, no reserve
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(map.emplace(ids[i], i).second) << i;
  }
  ASSERT_EQ(map.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const auto it = map.find(ids[i]);
    ASSERT_NE(it, map.end()) << i;
    ASSERT_EQ(it->second, i);
  }
  std::uint64_t i = 0;
  for (const auto& [id, value] : map) {
    ASSERT_EQ(value, i);
    ASSERT_EQ(id, ids[i]);
    ++i;
  }
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_FALSE(map.contains(make_txid(mix(state), mix(state))));
  }
}

}  // namespace
}  // namespace cn::btc
