// The unified io::open_dataset entry point (io/dataset_source.hpp):
// format sniffing, typed open failures, CSV/CNB1 equivalence, and the
// acceptance bar of the binary format — audit reports byte-identical
// across formats and thread counts, on clean AND fault-injected inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "btc/coinbase_tags.hpp"
#include "core/audit_dataset.hpp"
#include "core/audit_pipeline.hpp"
#include "core/data_quality.hpp"
#include "core/wallet_inference.hpp"
#include "helpers.hpp"
#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "io/dataset_source.hpp"
#include "sim/dataset.hpp"
#include "testing/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace cn::io {
namespace {

std::string rendered(const core::AuditReport& report) {
  std::FILE* tmp = std::tmpfile();
  core::print_audit_report(report, tmp);
  const long size = std::ftell(tmp);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::rewind(tmp);
  const std::size_t read = std::fread(out.data(), 1, out.size(), tmp);
  std::fclose(tmp);
  out.resize(read);
  return out;
}

/// run_full_audit over everything a handle carries, the way cnaudit's
/// report command wires it up.
std::string audited(const DatasetHandle& handle, unsigned threads) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  core::AuditOptions options;
  options.threads = threads;
  options.interned_addresses = &handle.addresses;
  options.prebuilt_dataset = handle.prebuilt_for(registry);
  const core::DataQualityReport quality = core::assess_data_quality(
      handle.chain, handle.snapshots.has_value() ? &*handle.snapshots : nullptr,
      handle.first_seen.has_value() ? &*handle.first_seen : nullptr);
  return rendered(
      core::run_full_audit(handle.chain, registry, &quality, options));
}

/// What a CNB1 load must share with the CSV load of the same world:
/// an intact chain whose index resolves every txid to the same place,
/// the same first-seen log, and the same rendered report.
void expect_same_load(const DatasetHandle& csv, const DatasetHandle& cnb) {
  EXPECT_TRUE(cnb.chain.verify_integrity());
  ASSERT_EQ(cnb.chain.size(), csv.chain.size());
  EXPECT_EQ(cnb.chain.tip_hash(), csv.chain.tip_hash());
  EXPECT_EQ(cnb.chain.total_tx_count(), csv.chain.total_tx_count());
  for (const btc::Block& block : csv.chain.blocks()) {
    for (std::size_t i = 0; i < block.txs().size(); ++i) {
      const btc::Txid& id = block.txs()[i].id();
      const auto loc = cnb.chain.locate(id);
      ASSERT_TRUE(loc.has_value()) << id.to_hex();
      EXPECT_EQ(loc->block_height, block.height());
      EXPECT_EQ(loc->position, i);
      const btc::Transaction* tx = cnb.chain.find_tx(id);
      ASSERT_NE(tx, nullptr);
      EXPECT_EQ(tx->id(), id);
    }
  }
  ASSERT_TRUE(csv.first_seen.has_value());
  ASSERT_TRUE(cnb.first_seen.has_value());
  EXPECT_EQ(*cnb.first_seen, *csv.first_seen);
  EXPECT_EQ(cnb.addresses.size(), csv.addresses.size());
  EXPECT_EQ(audited(cnb, 4), audited(csv, 1));
}

class DatasetSourceTest : public ::testing::Test {
 protected:
  std::string dir_ = cn::test::unique_temp_path("cn_source");
  void SetUp() override { std::filesystem::remove_all(dir_); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Exports a small simulated world (chain + both observer series) as
  /// CSV under dir_/csv and returns the directory path.
  std::string export_world() {
    world_ = sim::make_dataset(sim::DatasetKind::kA, 5, 0.03);
    const std::string csv = dir_ + "/csv";
    EXPECT_TRUE(export_chain(world_->chain, csv));
    EXPECT_TRUE(export_snapshots(world_->observer.snapshots(),
                                 csv + "/snapshots.csv"));
    EXPECT_TRUE(export_first_seen(world_->observer.first_seen_map(),
                                  csv + "/first_seen.csv"));
    return csv;
  }

  /// Writes @p handle as a CNB1 file with the derived audit columns
  /// embedded (built under the paper registry, like cnconvert does).
  std::string to_cnb(DatasetHandle handle, bool with_derived = true) {
    const std::string path = dir_ + "/world.cnb";
    if (with_derived && !handle.audit_dataset.has_value()) {
      const auto registry = btc::CoinbaseTagRegistry::paper_registry();
      const core::PoolAttribution attribution(handle.chain, registry);
      util::ThreadPool workers(1);
      handle.audit_dataset = core::AuditDataset::build(
          handle.chain, attribution, workers, &handle.addresses);
      handle.registry_fingerprint = registry.fingerprint();
    }
    std::string error;
    EXPECT_TRUE(write_cnb(handle, path, &error)) << error;
    return path;
  }

  std::optional<sim::SimResult> world_;
};

TEST_F(DatasetSourceTest, SniffsDirectoriesMagicAndExtension) {
  std::filesystem::create_directories(dir_);
  EXPECT_EQ(sniff_dataset_format(dir_), DatasetFormat::kCsv);

  const std::string cnb = dir_ + "/chain.bin";  // magic wins over extension
  btc::Chain chain(1);
  chain.append(cn::test::block_with_rates(1, {2.0}));
  ASSERT_TRUE(write_cnb(chain, cnb));
  EXPECT_EQ(sniff_dataset_format(cnb), DatasetFormat::kCnb);

  // Unreadable path: the .cnb extension is the fallback signal.
  EXPECT_EQ(sniff_dataset_format(dir_ + "/missing.cnb"), DatasetFormat::kCnb);
  EXPECT_EQ(sniff_dataset_format(dir_ + "/missing.csv"), std::nullopt);
}

TEST_F(DatasetSourceTest, OpenMissingPathIsTypedNotACrash) {
  for (const LoadPolicy policy : {LoadPolicy::kStrict, LoadPolicy::kLenient}) {
    const auto result = open_dataset(dir_ + "/nope", policy);
    EXPECT_FALSE(result.has_value());
    ASSERT_NE(result.report.first_error(), nullptr);
    EXPECT_EQ(result.report.first_error()->kind, LoadErrorKind::kFileOpen);
  }
}

TEST_F(DatasetSourceTest, CsvOpenMatchesTheImportersItWraps) {
  const std::string csv = export_world();
  const auto opened = open_dataset(csv);
  ASSERT_TRUE(opened.has_value()) << opened.report.summary();
  EXPECT_EQ(opened->format, DatasetFormat::kCsv);

  btc::AddressTable addresses;
  const auto imported = import_chain(csv, LoadPolicy::kStrict, &addresses);
  ASSERT_TRUE(imported.has_value());
  EXPECT_EQ(opened->chain.size(), imported->size());
  EXPECT_EQ(opened->chain.tip_hash(), imported->tip_hash());
  EXPECT_EQ(opened->addresses.size(), addresses.size());
  ASSERT_TRUE(opened->snapshots.has_value());
  EXPECT_EQ(opened->snapshots->size(),
            world_->observer.snapshots().size());
  ASSERT_TRUE(opened->first_seen.has_value());
  EXPECT_EQ(*opened->first_seen, world_->observer.first_seen_map());
  EXPECT_FALSE(opened->audit_dataset.has_value());
}

TEST_F(DatasetSourceTest, ExplicitFormatOverridesSniffing) {
  const std::string csv = export_world();
  // Forcing cnb on a directory must fail typed, not misparse.
  const auto forced =
      open_dataset(csv, LoadPolicy::kStrict, DatasetFormat::kCnb);
  EXPECT_FALSE(forced.has_value());
}

TEST_F(DatasetSourceTest, AuditReportsByteIdenticalAcrossFormatsAndThreads) {
  const std::string csv = export_world();
  auto from_csv = open_dataset(csv);
  ASSERT_TRUE(from_csv.has_value()) << from_csv.report.summary();

  const std::string cnb = to_cnb(*from_csv);
  auto from_cnb = open_dataset(cnb);
  ASSERT_TRUE(from_cnb.has_value()) << from_cnb.report.summary();
  ASSERT_TRUE(from_cnb->audit_dataset.has_value());
  ASSERT_NE(from_cnb->prebuilt_for(btc::CoinbaseTagRegistry::paper_registry()),
            nullptr);

  const std::string baseline = audited(*from_csv, 1);
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {1u, 4u, 0u}) {
    EXPECT_EQ(audited(*from_csv, threads), baseline) << threads;
    // The CNB1 path takes the prebuilt-dataset shortcut — same bytes.
    EXPECT_EQ(audited(*from_cnb, threads), baseline) << threads;
  }
}

TEST_F(DatasetSourceTest, FaultInjectedInputsStayByteIdenticalAcrossFormats) {
  const std::string csv = export_world();
  const std::string dirty = dir_ + "/dirty";
  testing::FaultInjector injector(7);
  testing::FaultOptions fault_options;
  fault_options.row_corruption_rate = 0.05;
  fault_options.snapshot_gaps = 1;
  const auto log = injector.inject_dataset(csv, dirty, fault_options);
  ASSERT_FALSE(log.faults.empty());

  auto from_csv = open_dataset(dirty, LoadPolicy::kLenient);
  ASSERT_TRUE(from_csv.has_value()) << from_csv.report.summary();
  EXPECT_FALSE(from_csv.report.clean());

  // What lenient salvaged, written as CNB1, must audit identically.
  const std::string cnb = to_cnb(*from_csv);
  auto from_cnb = open_dataset(cnb);
  ASSERT_TRUE(from_cnb.has_value()) << from_cnb.report.summary();

  const std::string baseline = audited(*from_csv, 1);
  for (const unsigned threads : {1u, 4u, 0u}) {
    EXPECT_EQ(audited(*from_csv, threads), baseline) << threads;
    EXPECT_EQ(audited(*from_cnb, threads), baseline) << threads;
  }
}

TEST_F(DatasetSourceTest, HelperThreadRebuildMatchesCsvLoad) {
  // read_cnb rebuilds the chain on a helper thread whenever the host has
  // more than one hardware thread, whatever the file size.
  if (util::resolve_threads(0) < 2) {
    GTEST_SKIP() << "single hardware thread: the rebuild runs inline";
  }
  const std::string csv = export_world();
  auto from_csv = open_dataset(csv);
  ASSERT_TRUE(from_csv.has_value()) << from_csv.report.summary();
  const std::string cnb = to_cnb(*from_csv);

  const auto strict = open_dataset(cnb, LoadPolicy::kStrict);
  ASSERT_TRUE(strict.has_value()) << strict.report.summary();
  EXPECT_TRUE(strict.report.clean());
  EXPECT_TRUE(strict->audit_dataset.has_value());
  expect_same_load(*from_csv, *strict);

  // Lenient, with one derived-column section corrupted: that optional
  // group is dropped while the helper rebuilds the chain, and the audit
  // falls back to building the dataset itself.
  const auto info = inspect_cnb(cnb);
  ASSERT_TRUE(info.has_value());
  const std::string dirty = dir_ + "/dirty.cnb";
  bool derived_hit = false;
  for (std::uint64_t seed = 1; seed <= 64 && !derived_hit; ++seed) {
    testing::InjectionLog log;
    testing::FaultOptions faults;
    faults.cnb_sections = 1;
    ASSERT_TRUE(
        testing::FaultInjector(seed).inject_cnb_file(cnb, dirty, faults, log));
    ASSERT_EQ(log.faults.size(), 1u);
    ASSERT_EQ(log.faults[0].kind, testing::FaultKind::kCorruptSection);
    derived_hit = info->sections[log.faults[0].line - 1].id >=
                  static_cast<std::uint32_t>(CnbSection::kPoolNameOffsets);
  }
  ASSERT_TRUE(derived_hit);
  const auto lenient = open_dataset(dirty, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_FALSE(lenient.report.clean());
  EXPECT_FALSE(lenient->audit_dataset.has_value());
  expect_same_load(*from_csv, *lenient);
}

TEST_F(DatasetSourceTest, PrebuiltDatasetIsGatedOnRegistryFingerprint) {
  const std::string csv = export_world();
  auto handle = open_dataset(csv);
  ASSERT_TRUE(handle.has_value());

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  // No dataset stored: nothing to reuse.
  EXPECT_EQ(handle->prebuilt_for(registry), nullptr);

  const core::PoolAttribution attribution(handle->chain, registry);
  util::ThreadPool workers(1);
  handle->audit_dataset =
      core::AuditDataset::build(handle->chain, attribution, workers);
  // Fingerprint still zero: a dataset of unknown provenance is not reused.
  EXPECT_EQ(handle->prebuilt_for(registry), nullptr);

  handle->registry_fingerprint = registry.fingerprint();
  EXPECT_EQ(handle->prebuilt_for(registry), &*handle->audit_dataset);
}

}  // namespace
}  // namespace cn::io
