// Shared fixtures/builders for the test suites.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "btc/block.hpp"
#include "btc/chain.hpp"
#include "btc/transaction.hpp"

namespace cn::test {

/// A scratch path under ::testing::TempDir() that no other test case or
/// process shares: `<TempDir>/<stem>_<Suite>_<Test>_<pid><ext>`. ctest
/// runs every discovered case as its own process, in parallel under
/// `ctest -j`, so a fixed file name would race between cases.
inline std::string unique_temp_path(const std::string& stem,
                                    const std::string& ext = "") {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "_" + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "/" + stem + "_" + name + "_" +
         std::to_string(::getpid()) + ext;
}

/// A simple 1-in/1-out payment with the given fee-rate (sat/vB).
inline btc::Transaction tx_with_rate(double sat_per_vb, std::uint32_t vsize = 250,
                                     SimTime issued = 0, std::uint64_t nonce = 0,
                                     std::string from_label = "alice",
                                     std::string to_label = "bob") {
  static std::uint64_t auto_nonce = 1'000'000;
  if (nonce == 0) nonce = ++auto_nonce;
  const auto fee = btc::Satoshi{
      static_cast<std::int64_t>(sat_per_vb * static_cast<double>(vsize))};
  return btc::make_payment(issued, vsize, fee, btc::Address::derive(from_label),
                           btc::Address::derive(to_label),
                           btc::Satoshi{1'000'000}, nonce);
}

/// Builds a block at @p height containing transactions with the given
/// fee-rates, in that observed order.
inline btc::Block block_with_rates(std::uint64_t height,
                                   const std::vector<double>& rates,
                                   const std::string& pool_tag = "/TestPool/",
                                   SimTime mined_at = 600) {
  std::vector<btc::Transaction> txs;
  txs.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    txs.push_back(tx_with_rate(rates[i], 250, 0, height * 10'000 + i + 1));
  }
  btc::Coinbase cb;
  cb.tag = pool_tag;
  cb.reward_address = btc::Address::derive(pool_tag + "/reward");
  cb.reward = btc::Satoshi{625'000'000};
  return btc::Block(height, mined_at, std::move(cb), std::move(txs));
}

}  // namespace cn::test
