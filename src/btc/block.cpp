#include "btc/block.hpp"

#include "btc/merkle.hpp"
#include "util/assert.hpp"

namespace cn::btc {

Block::Block(std::uint64_t height, SimTime mined_at, Coinbase coinbase,
             std::vector<Transaction> txs)
    : height_(height),
      mined_at_(mined_at),
      coinbase_(std::move(coinbase)),
      txs_(std::move(txs)) {
  for (const Transaction& tx : txs_) {
    total_vsize_ += tx.vsize();
    total_fees_ += tx.fee();
  }
  CN_ASSERT(total_vsize_ + kCoinbaseVsize <= kMaxBlockVsize);
}

std::optional<std::size_t> Block::position_of(const Txid& id) const noexcept {
  for (std::size_t i = 0; i < txs_.size(); ++i)
    if (txs_[i].id() == id) return i;
  return std::nullopt;
}

bool Block::is_cpfp_at(std::size_t index) const {
  CN_ASSERT(index < txs_.size());
  const Transaction& tx = txs_[index];
  // A tx is in-block CPFP if it spends an output of ANY tx in this block
  // (the paper's definition does not require the parent to come earlier in
  // the serialized order, though topological validity implies it does).
  for (const TxInput& in : tx.inputs()) {
    if (in.prev_txid.is_null()) continue;
    for (const Transaction& other : txs_) {
      if (other.id() == in.prev_txid) return true;
    }
  }
  return false;
}

Txid Block::coinbase_id() const {
  std::string buf;
  buf.reserve(coinbase_.tag.size() + 32);
  buf.append("coinbase/");
  buf.append(coinbase_.tag);
  buf.push_back('/');
  buf.append(std::to_string(coinbase_.reward_address.value));
  buf.push_back('/');
  buf.append(std::to_string(coinbase_.reward.value));
  buf.push_back('/');
  buf.append(std::to_string(height_));
  return Txid::hash_of(buf);
}

Txid Block::compute_merkle_root() const {
  std::vector<Txid> leaves;
  leaves.reserve(txs_.size() + 1);
  leaves.push_back(coinbase_id());
  for (const Transaction& tx : txs_) leaves.push_back(tx.id());
  return merkle_root(leaves);
}

void Block::seal(const BlockHash& prev_hash) {
  CN_ASSERT(!sealed_);
  header_.prev_hash = prev_hash;
  header_.merkle_root = compute_merkle_root();
  header_.height = height_;
  header_.timestamp = mined_at_;
  sealed_ = true;
}

void Block::restore_header(const Txid& merkle_root,
                           const BlockHash& prev_hash) {
  CN_ASSERT(!sealed_);
  header_.prev_hash = prev_hash;
  header_.merkle_root = merkle_root;
  header_.height = height_;
  header_.timestamp = mined_at_;
  sealed_ = true;
}

const BlockHeader& Block::header() const {
  CN_ASSERT(sealed_);
  return header_;
}

std::vector<std::size_t> Block::cpfp_positions() const {
  // Hash all txids once, then test inputs against the set: O(n + inputs).
  std::unordered_set<Txid> ids;
  ids.reserve(txs_.size() * 2);
  for (const Transaction& tx : txs_) ids.insert(tx.id());

  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    for (const TxInput& in : txs_[i].inputs()) {
      if (!in.prev_txid.is_null() && ids.contains(in.prev_txid)) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

std::unordered_set<Txid> Block::cpfp_parents(
    std::span<const std::size_t> cpfp) const {
  std::unordered_set<Txid> parents;
  for (const std::size_t pos : cpfp) {
    for (const TxInput& in : txs_[pos].inputs()) {
      if (!in.prev_txid.is_null()) parents.insert(in.prev_txid);
    }
  }
  return parents;
}

}  // namespace cn::btc
