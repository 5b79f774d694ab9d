// Signed Position Prediction Error (paper §5.1, §5.4.2).
//
// Per-transaction: SPPE = predicted percentile rank - observed percentile
// rank, where the prediction orders ALL of the block's transactions by
// fee-rate. A large positive SPPE means the transaction sits near the top
// of the block although its public fee-rate says it belongs near the
// bottom — the signature of off-norm prioritization (selfish interest,
// collusion, or a dark acceleration fee).
#pragma once

#include <span>
#include <vector>

#include "btc/block.hpp"
#include "btc/chain.hpp"
#include "core/audit_dataset.hpp"
#include "core/wallet_inference.hpp"

namespace cn::core {

/// SPPE (in percentile-rank points, range [-100, 100]) for every position
/// of @p block, indexed by observed position. Empty for blocks with fewer
/// than 2 transactions.
std::vector<double> block_sppe(const btc::Block& block);

/// SPPE of a single transaction (by observed position). Requires a block
/// with at least 2 transactions.
double tx_sppe(const btc::Block& block, std::size_t position);

/// Mean SPPE of a set of committed transactions, optionally restricted to
/// blocks attributed to @p pool (empty pool string = no restriction).
/// Returns 0 with *count = 0 when no transaction qualifies.
double mean_sppe(const btc::Chain& chain, const std::vector<TxRef>& txs,
                 const PoolAttribution& attribution, const std::string& pool,
                 std::size_t* count = nullptr);

/// Per-transaction SPPE values for the same selection (order follows
/// @p txs, entries without a defined SPPE skipped). Useful for
/// uncertainty estimates (bootstrap) on top of the mean.
std::vector<double> sppe_values(const btc::Chain& chain,
                                const std::vector<TxRef>& txs,
                                const PoolAttribution& attribution,
                                const std::string& pool);

/// Columnar variants: gather the dataset's cached per-tx SPPE column for
/// a TxIdx selection, optionally restricted to blocks of @p pool
/// (kNoPoolId = no restriction). Values and order are identical to the
/// object-graph overloads on the same selection — NaN entries (1-tx
/// blocks) are skipped exactly where the object-graph overloads skip them.
std::vector<double> sppe_values(const AuditDataset& dataset,
                                std::span<const TxIdx> txs, PoolId pool);

double mean_sppe(const AuditDataset& dataset, std::span<const TxIdx> txs,
                 PoolId pool, std::size_t* count = nullptr);

}  // namespace cn::core
