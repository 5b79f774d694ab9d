// Chain-neutrality scoring (the paper's §6.1 proposal, made concrete).
//
// The paper closes by asking how a third-party observer could verify
// that miners adhere to ordering norms. This module composes the audit
// primitives into a per-pool scorecard a watchdog could publish:
//
//  * ordering fidelity — mean PPE of the pool's blocks (norm II);
//  * opaque-boost rate — fraction of the pool's committed transactions
//    with SPPE >= a threshold (selfish/collusive/dark-fee placements);
//  * self-dealing — the §5.1 acceleration p-value on the pool's own
//    (self-interest) transactions;
//  * floor discipline — fraction of blocks containing below-floor
//    (sub-1 sat/vB) transactions (norm III).
//
// The composite score starts at 100 and subtracts calibrated penalties;
// a norm-following pool lands in the high 90s, the paper's misbehaving
// pools fall well below.
//
// One kernel scores every scorecard: a per-pool NormTally, folded block
// by block (tally_block) and scored together with the self-dealing test
// (score_tally). The Chain and columnar batch audits and the daemon's
// incremental accumulators (daemon/accumulators.hpp) all go through it,
// so their scorecards agree by construction.
#pragma once

#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "btc/chain.hpp"
#include "core/prio_test.hpp"
#include "core/wallet_inference.hpp"

namespace cn::util {
class ThreadPool;
}

namespace cn::core {

struct NeutralityOptions {
  double sppe_boost_threshold = 90.0;  ///< "hoisted" transaction cutoff
  std::uint64_t min_blocks = 10;       ///< pools below this are skipped
  double alpha = 0.001;                ///< significance for self-dealing
};

struct NeutralityReport {
  std::string pool;
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;

  double mean_ppe = 0.0;            ///< percentile-rank points, [0, 100]
  double boosted_tx_rate = 0.0;     ///< fraction with SPPE >= threshold
  double self_dealing_p = 1.0;      ///< acceleration p-value (own txs)
  double self_dealing_sppe = 0.0;   ///< SPPE of own txs in own blocks
  double below_floor_block_rate = 0.0;

  bool self_dealing_flagged = false;
  double score = 100.0;  ///< composite neutrality score, [0, 100]

  /// Mean effective coverage over the pool's blocks; annotated by the
  /// audit pipeline when a DataQualityReport is available (1.0 without).
  double coverage = 1.0;
  /// Coverage below the audit's min_coverage threshold: the scorecard
  /// rests on too little observed data and must not be read as "clean".
  bool insufficient_data = false;
};

/// The per-pool sums a scorecard is scored from.
struct NormTally {
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
  double ppe_sum = 0.0;            ///< over blocks with a defined PPE
  std::uint64_t ppe_blocks = 0;
  std::uint64_t boosted = 0;       ///< txs with SPPE >= boost threshold
  std::uint64_t floor_blocks = 0;  ///< blocks with an unrescued sub-floor tx
};

/// Folds one block the pool mined into @p tally. @p sppe is
/// block_sppe(block) and @p rescued_parents is
/// block.cpfp_parents(block.cpfp_positions()); the caller computes each
/// once per block. A sub-floor transaction is a norm-III deviation only
/// when it is not a rescued parent — GBT legitimately admits sub-floor
/// parents inside a paying package.
void tally_block(NormTally& tally, const btc::Block& block,
                 std::span<const double> sppe,
                 const std::unordered_set<btc::Txid>& rescued_parents,
                 const NeutralityOptions& options);

/// Scores @p tally (blocks > 0) into @p pool's scorecard. @p self_dealing
/// is the §5.1 acceleration test on the pool's own transactions (its
/// p_accelerate, sppe and y are read), or null when it has none.
NeutralityReport score_tally(std::string pool, const NormTally& tally,
                             const PrioTestResult* self_dealing,
                             const NeutralityOptions& options);

/// Builds per-pool scorecards for every pool with at least
/// options.min_blocks attributed blocks, ordered worst-first.
std::vector<NeutralityReport> neutrality_reports(
    const btc::Chain& chain, const PoolAttribution& attribution,
    const NeutralityOptions& options = {});

/// Columnar variant, fanned out per pool over @p workers: each pool's
/// scorecard reads the dataset's cached PPE/SPPE columns, precomputed
/// block lists, and flag bits instead of rescanning the chain.
/// Byte-identical reports to the overload above at any lane count.
std::vector<NeutralityReport> neutrality_reports(const AuditDataset& dataset,
                                                 const NeutralityOptions& options,
                                                 util::ThreadPool& workers);

/// The composite score for one report (exposed for testing; also set on
/// the reports returned above).
double neutrality_score(const NeutralityReport& report,
                        const NeutralityOptions& options = {});

}  // namespace cn::core
