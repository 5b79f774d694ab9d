// Blocks and consensus-level size constants.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "btc/amount.hpp"
#include "btc/header.hpp"
#include "btc/transaction.hpp"
#include "util/time.hpp"

namespace cn::btc {

/// Consensus constants (virtual-size accounting per BIP-141: one vbyte ==
/// four weight units; 4M weight cap == 1M vbytes).
inline constexpr std::uint64_t kMaxBlockVsize = 1'000'000;  // vbytes
/// Space reserved for the coinbase transaction in every template.
inline constexpr std::uint32_t kCoinbaseVsize = 200;

/// The coinbase transaction, reduced to what the audit reads from it:
/// the pool's marker string (scriptSig tag), the reward wallet, and the
/// collected amount (subsidy + fees).
struct Coinbase {
  std::string tag;            ///< pool marker, e.g. "/F2Pool/"
  Address reward_address{};   ///< wallet credited with the reward
  Satoshi reward{};           ///< subsidy + total fees
};

/// A mined block: ordered transactions plus the coinbase.
class Block {
 public:
  Block() = default;
  Block(std::uint64_t height, SimTime mined_at, Coinbase coinbase,
        std::vector<Transaction> txs);

  std::uint64_t height() const noexcept { return height_; }
  SimTime mined_at() const noexcept { return mined_at_; }
  const Coinbase& coinbase() const noexcept { return coinbase_; }

  /// Ordered non-coinbase transactions, position 0 first.
  std::span<const Transaction> txs() const noexcept { return txs_; }
  std::size_t tx_count() const noexcept { return txs_.size(); }
  bool is_empty() const noexcept { return txs_.empty(); }

  /// Sum of transaction vsizes (excluding the coinbase allowance).
  std::uint64_t total_vsize() const noexcept { return total_vsize_; }
  /// Sum of transaction fees.
  Satoshi total_fees() const noexcept { return total_fees_; }

  /// Position of a transaction in the block, if present.
  std::optional<std::size_t> position_of(const Txid& id) const noexcept;

  /// True if txs()[index] spends an output of an earlier transaction in
  /// this same block — the paper's in-block CPFP definition (§E).
  bool is_cpfp_at(std::size_t index) const;

  /// Indices of all in-block CPFP transactions.
  std::vector<std::size_t> cpfp_positions() const;

  /// Txids the transactions at @p cpfp (cpfp_positions()) spend from:
  /// the in-block parents their CPFP children rescue.
  std::unordered_set<Txid> cpfp_parents(std::span<const std::size_t> cpfp) const;

  /// Synthetic id of the coinbase transaction (derived from its fields);
  /// the first Merkle leaf, as in Bitcoin.
  Txid coinbase_id() const;

  /// Merkle root over [coinbase_id, txs...]: recomputed from content.
  Txid compute_merkle_root() const;

  /// Chain linkage. A block is *sealed* by Chain::append, which stamps a
  /// header committing to the previous block's hash and this block's
  /// Merkle root.
  bool sealed() const noexcept { return sealed_; }
  void seal(const BlockHash& prev_hash);
  /// Seals with a Merkle root recorded when the block was first sealed
  /// (the CNB1 loader's fast path — skips re-hashing every txid).
  /// Chain::verify_integrity recomputes roots and catches a wrong one.
  void restore_header(const Txid& merkle_root, const BlockHash& prev_hash);
  /// Requires sealed().
  const BlockHeader& header() const;
  BlockHash hash() const { return header().hash(); }

 private:
  std::uint64_t height_ = 0;
  SimTime mined_at_ = 0;
  Coinbase coinbase_{};
  std::vector<Transaction> txs_;
  std::uint64_t total_vsize_ = 0;
  Satoshi total_fees_{};
  BlockHeader header_{};
  bool sealed_ = false;
};

}  // namespace cn::btc
