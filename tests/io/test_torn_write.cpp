// Torn-write regression suite (testing/fault_injector kTornWrite): a
// CNB1 writer killed mid-flush leaves either a truncated file or a
// zero-garbled section — the two shapes a crashed cnconvert or
// checkpoint writer can actually produce. The loaders' contract, over
// every seed: strict open_dataset reports a typed defect (never a wrong
// value), lenient drops the poisoned optional group and still yields a
// verified chain (or, when the tear hit a required chain section, fails
// typed) — and neither policy ever crashes or reads out of bounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "../helpers.hpp"
#include "io/cnb.hpp"
#include "io/dataset_source.hpp"
#include "node/snapshot.hpp"
#include "testing/fault_injector.hpp"

namespace cn::io {
namespace {

class TornWriteTest : public ::testing::Test {
 protected:
  std::string stem_ = cn::test::unique_temp_path("cn_torn");
  std::string clean_ = stem_ + "_clean.cnb";
  std::string torn_ = stem_ + "_torn.cnb";

  void SetUp() override {
    std::filesystem::remove(clean_);
    std::filesystem::remove(torn_);
    btc::Chain chain(100);
    for (std::uint64_t h = 100; h < 106; ++h) {
      chain.append(cn::test::block_with_rates(
          h, {9.0, 5.0, 2.0}, h % 2 == 0 ? "/F2Pool/" : "/ViaBTC/",
          static_cast<SimTime>(600 * (h - 99))));
    }
    node::SnapshotSeries snapshots;
    snapshots.record({300, 4, 900'000});
    snapshots.record({900, 11, 2'400'000});
    FirstSeenMap first_seen;
    for (const btc::Block& block : chain.blocks()) {
      for (const btc::Transaction& tx : block.txs()) {
        first_seen.emplace(tx.id(), block.mined_at() - 30);
      }
    }
    CnbWriteOptions options;
    options.snapshots = &snapshots;
    options.first_seen = &first_seen;
    std::string error;
    ASSERT_TRUE(write_cnb(chain, clean_, options, &error)) << error;
  }
  void TearDown() override {
    std::filesystem::remove(clean_);
    std::filesystem::remove(torn_);
  }

  /// Tears the clean file with @p seed; returns the injected fault.
  cn::testing::InjectedFault tear(std::uint64_t seed) {
    std::filesystem::remove(torn_);
    cn::testing::FaultOptions options;
    options.torn_write = true;
    cn::testing::InjectionLog log;
    cn::testing::FaultInjector injector(seed);
    EXPECT_TRUE(injector.inject_cnb_file(clean_, torn_, options, log));
    EXPECT_EQ(log.faults.size(), 1u);
    EXPECT_EQ(log.faults.at(0).kind, cn::testing::FaultKind::kTornWrite);
    EXPECT_TRUE(log.faults.at(0).detectable);
    return log.faults.at(0);
  }

  /// Section id of the torn directory entry (fault.line is 1-based).
  std::uint32_t torn_section_id(const cn::testing::InjectedFault& fault) {
    const auto info = inspect_cnb(clean_);
    EXPECT_TRUE(info.has_value());
    EXPECT_GE(fault.line, 1u);
    EXPECT_LE(fault.line, info->sections.size());
    return info->sections.at(fault.line - 1).id;
  }
};

TEST_F(TornWriteTest, SameSeedTearsTheSameBytes) {
  const auto fault_a = tear(42);
  std::string torn_b = torn_ + "_b";
  cn::testing::FaultOptions options;
  options.torn_write = true;
  cn::testing::InjectionLog log;
  ASSERT_TRUE(
      cn::testing::FaultInjector(42).inject_cnb_file(clean_, torn_b, options, log));
  EXPECT_EQ(fault_a.line, log.faults.at(0).line);
  EXPECT_EQ(fault_a.detail, log.faults.at(0).detail);
  EXPECT_EQ(std::filesystem::file_size(torn_),
            std::filesystem::file_size(torn_b));
  std::filesystem::remove(torn_b);
}

TEST_F(TornWriteTest, StrictLoadReportsATypedDefectForEverySeed) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    tear(seed);
    const auto result = open_dataset(torn_, LoadPolicy::kStrict);
    ASSERT_FALSE(result.has_value()) << "seed " << seed;
    const LoadError* error = result.report.first_error();
    ASSERT_NE(error, nullptr) << "seed " << seed;
    // A tear is visible as a short file or a checksum/layout mismatch —
    // never as a silent success or an untyped failure.
    EXPECT_TRUE(error->kind == LoadErrorKind::kTruncatedFile ||
                error->kind == LoadErrorKind::kSectionChecksum ||
                error->kind == LoadErrorKind::kSectionLayout)
        << "seed " << seed << ": " << result.report.summary();
  }
}

TEST_F(TornWriteTest, LenientLoadDropsThePoisonedGroupOrFailsTyped) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto fault = tear(seed);
    const std::uint32_t section = torn_section_id(fault);
    const auto result = open_dataset(torn_, LoadPolicy::kLenient);
    if (!result.has_value()) {
      // Only a tear through the required chain sections may withhold
      // the value — and then the report must say why.
      EXPECT_LT(section,
                static_cast<std::uint32_t>(CnbSection::kSnapTime))
          << "seed " << seed << " dropped the chain over an optional section";
      EXPECT_NE(result.report.first_error(), nullptr);
      continue;
    }
    // The chain survived; it must be internally consistent, and the
    // poisoned optional group must be gone rather than half-loaded.
    EXPECT_TRUE(result->chain.verify_integrity()) << "seed " << seed;
    const bool tore_snapshots =
        section >= static_cast<std::uint32_t>(CnbSection::kSnapTime) &&
        section <= static_cast<std::uint32_t>(CnbSection::kSnapVsize);
    if (tore_snapshots) {
      EXPECT_FALSE(result->snapshots.has_value()) << "seed " << seed;
    }
    EXPECT_FALSE(result.report.errors.empty()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cn::io
