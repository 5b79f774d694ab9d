#include "core/neutrality.hpp"

#include <algorithm>
#include <cmath>

#include "core/audit_dataset.hpp"
#include "core/ppe.hpp"
#include "core/prio_test.hpp"
#include "core/sppe.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace cn::core {

double neutrality_score(const NeutralityReport& report,
                        const NeutralityOptions& options) {
  double score = 100.0;
  // Ordering fidelity: each PPE point above 1 costs 2 points (cap 20).
  score -= std::min(std::max(report.mean_ppe - 1.0, 0.0) * 2.0, 20.0);
  // Opaque boosts: each 0.1% of hoisted transactions costs 1 point (cap 40).
  score -= std::min(report.boosted_tx_rate * 1000.0, 40.0);
  // Self-dealing: a significant acceleration test costs 30 points, scaled
  // by how extreme the position evidence is.
  if (report.self_dealing_p < options.alpha) {
    score -= 15.0 + 15.0 * std::min(std::max(report.self_dealing_sppe, 0.0), 100.0) / 100.0;
  }
  // Floor discipline: sporadic below-floor inclusion is a mild deviation.
  score -= std::min(report.below_floor_block_rate * 20.0, 10.0);
  return std::max(score, 0.0);
}

void tally_block(NormTally& tally, const btc::Block& block,
                 std::span<const double> sppe,
                 const std::unordered_set<btc::Txid>& rescued_parents,
                 const NeutralityOptions& options) {
  ++tally.blocks;
  tally.txs += block.tx_count();
  if (const auto ppe = block_ppe(block); ppe.has_value()) {
    tally.ppe_sum += *ppe;
    ++tally.ppe_blocks;
  }
  for (const double s : sppe) {
    if (s >= options.sppe_boost_threshold) ++tally.boosted;
  }
  for (const btc::Transaction& tx : block.txs()) {
    if (tx.fee_rate() < btc::FeeRate::from_sat_per_vb(1) &&
        !rescued_parents.contains(tx.id())) {
      ++tally.floor_blocks;
      break;
    }
  }
}

NeutralityReport score_tally(std::string pool, const NormTally& tally,
                             const PrioTestResult* self_dealing,
                             const NeutralityOptions& options) {
  NeutralityReport report;
  report.pool = std::move(pool);
  report.blocks = tally.blocks;
  report.txs = tally.txs;
  if (tally.ppe_blocks > 0) {
    report.mean_ppe = tally.ppe_sum / static_cast<double>(tally.ppe_blocks);
  }
  if (tally.txs > 0) {
    report.boosted_tx_rate =
        static_cast<double>(tally.boosted) / static_cast<double>(tally.txs);
  }
  report.below_floor_block_rate =
      static_cast<double>(tally.floor_blocks) / static_cast<double>(tally.blocks);
  if (self_dealing != nullptr) {
    report.self_dealing_p = self_dealing->p_accelerate;
    report.self_dealing_sppe = self_dealing->sppe;
    report.self_dealing_flagged = self_dealing->p_accelerate < options.alpha &&
                                  self_dealing->y >= options.min_blocks;
  }
  report.score = neutrality_score(report, options);
  return report;
}

namespace {

/// One pool's scorecard — the per-pool body of neutrality_reports.
NeutralityReport report_for_pool(const btc::Chain& chain,
                                 const PoolAttribution& attribution,
                                 const std::string& pool,
                                 const NeutralityOptions& options) {
  NormTally tally;
  for (const btc::Block& block : chain.blocks()) {
    const auto owner = attribution.pool_of(block.height());
    if (!owner.has_value() || *owner != pool) continue;
    tally_block(tally, block, block_sppe(block),
                block.cpfp_parents(block.cpfp_positions()), options);
  }
  const auto own_txs = self_interest_txs(chain, attribution, pool);
  if (own_txs.empty()) return score_tally(pool, tally, nullptr, options);
  const auto test =
      test_differential_prioritization(chain, attribution, pool, own_txs);
  return score_tally(pool, tally, &test, options);
}

/// Columnar twin of report_for_pool: the same tally over the dataset's
/// cached columns. The per-block PPE/SPPE values are the ones
/// block_ppe/block_sppe produced at build time, so every accumulated
/// double is bitwise equal to the object-graph fold's.
NeutralityReport report_for_pool(const AuditDataset& dataset, PoolId pool,
                                 const NeutralityOptions& options) {
  NormTally tally;
  const std::span<const double> block_ppe = dataset.block_ppe();
  const std::span<const double> sppe = dataset.sppe();
  const std::span<const std::uint8_t> flags = dataset.tx_flags();
  for (const std::uint32_t b : dataset.blocks_of_pool(pool)) {
    const TxIdx begin = dataset.tx_begin(b);
    const TxIdx end = dataset.tx_end(b);
    ++tally.blocks;
    tally.txs += end - begin;

    if (!std::isnan(block_ppe[b])) {
      tally.ppe_sum += block_ppe[b];
      ++tally.ppe_blocks;
    }
    for (TxIdx t = begin; t < end; ++t) {
      if (sppe[t] >= options.sppe_boost_threshold) ++tally.boosted;  // NaN: no
    }
    // Floor discipline (norm III): sub-floor txs that are NOT parents
    // rescued by an in-block CPFP child.
    for (TxIdx t = begin; t < end; ++t) {
      if ((flags[t] & kTxBelowFloor) != 0 && (flags[t] & kTxCpfpParent) == 0) {
        ++tally.floor_blocks;
        break;
      }
    }
  }

  const std::span<const TxIdx> own_txs = dataset.self_interest_txs(pool);
  if (own_txs.empty()) {
    return score_tally(dataset.pool_name(pool), tally, nullptr, options);
  }
  const auto test = test_differential_prioritization(dataset, pool, own_txs);
  return score_tally(dataset.pool_name(pool), tally, &test, options);
}

/// Worst-first ordering shared by both overloads.
void sort_reports(std::vector<NeutralityReport>& out) {
  std::sort(out.begin(), out.end(),
            [](const NeutralityReport& a, const NeutralityReport& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.pool < b.pool;
            });
}

}  // namespace

std::vector<NeutralityReport> neutrality_reports(
    const btc::Chain& chain, const PoolAttribution& attribution,
    const NeutralityOptions& options) {
  std::vector<NeutralityReport> out;
  for (const std::string& pool : attribution.pools_by_blocks()) {
    if (attribution.blocks_of(pool) < options.min_blocks) continue;
    out.push_back(report_for_pool(chain, attribution, pool, options));
  }
  sort_reports(out);
  return out;
}

std::vector<NeutralityReport> neutrality_reports(const AuditDataset& dataset,
                                                 const NeutralityOptions& options,
                                                 util::ThreadPool& workers) {
  std::vector<PoolId> pools;
  for (const PoolId id : dataset.pools_by_blocks()) {
    if (dataset.blocks_of(id) >= options.min_blocks) pools.push_back(id);
  }
  std::vector<NeutralityReport> out =
      workers.parallel_map(pools.size(), [&](std::size_t i) {
        return report_for_pool(dataset, pools[i], options);
      });
  sort_reports(out);
  return out;
}

}  // namespace cn::core
