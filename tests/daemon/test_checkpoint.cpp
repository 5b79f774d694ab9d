// CNCP1 checkpoints (daemon/checkpoint.hpp): save/load round-trips the
// accumulators byte-exactly; every way a checkpoint can be wrong —
// missing, truncated, bit-flipped, wrong magic, written under different
// thresholds or a different tag registry — fails with the matching
// typed io::LoadError; and overwrites are atomic (the previous file
// survives a failed write).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "btc/coinbase_tags.hpp"
#include "daemon/accumulators.hpp"
#include "daemon/checkpoint.hpp"
#include "io/load_report.hpp"

namespace cn::daemon {
namespace {

const core::FirstSeenFn kNoFirstSeen =
    [](const btc::Txid&) -> std::optional<SimTime> { return std::nullopt; };

class CheckpointTest : public ::testing::Test {
 protected:
  std::string path_ = cn::test::unique_temp_path("cn_ckpt", ".ckpt");
  btc::CoinbaseTagRegistry registry_ = btc::CoinbaseTagRegistry::paper_registry();

  void SetUp() override { std::filesystem::remove(path_); }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }

  AccumulatorOptions options() const {
    AccumulatorOptions o;
    o.neutrality.min_blocks = 2;
    return o;
  }

  AuditAccumulators populated(std::uint64_t blocks = 12) const {
    AuditAccumulators acc(registry_, options());
    std::uint64_t seq = 0;
    for (std::uint64_t h = 800; h < 800 + blocks; ++h) {
      acc.apply_block(cn::test::block_with_rates(
                          h, {8.0, 4.0, 2.0},
                          h % 2 == 0 ? "/F2Pool/" : "/ViaBTC/",
                          static_cast<SimTime>(600 * (h - 799))),
                      kNoFirstSeen, ++seq);
      acc.apply_snapshot({static_cast<SimTime>(600 * (h - 799) + 15), 5, 1'200'000},
                         ++seq);
    }
    return acc;
  }

  CheckpointLoad load_into(AuditAccumulators& acc) const {
    return load_checkpoint(acc, path_, options().fingerprint(),
                           registry_.fingerprint());
  }

  static std::vector<char> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }
  static void write_bytes(const std::string& path, const std::vector<char>& b) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  }
};

TEST_F(CheckpointTest, RoundTripRestoresByteIdenticalState) {
  AuditAccumulators acc = populated();
  std::string error;
  ASSERT_TRUE(save_checkpoint(acc, path_, &error)) << error;
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));  // renamed away

  AuditAccumulators restored(registry_, options());
  const CheckpointLoad load = load_into(restored);
  ASSERT_TRUE(load.ok) << (load.error ? load.error->detail : "");
  EXPECT_EQ(load.seq, acc.last_seq());

  std::vector<std::uint8_t> a, b;
  acc.encode(a);
  restored.encode(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(AuditAccumulators::to_json(restored.seal()),
            AuditAccumulators::to_json(acc.seal()));
}

TEST_F(CheckpointTest, MissingFileIsFileOpen) {
  AuditAccumulators acc(registry_, options());
  const CheckpointLoad load = load_into(acc);
  ASSERT_FALSE(load.ok);
  ASSERT_TRUE(load.error.has_value());
  EXPECT_EQ(load.error->kind, io::LoadErrorKind::kFileOpen);
}

TEST_F(CheckpointTest, EveryTruncationFailsTyped) {
  AuditAccumulators acc = populated();
  ASSERT_TRUE(save_checkpoint(acc, path_));
  const std::vector<char> full = read_bytes(path_);
  ASSERT_GT(full.size(), 40u);  // 40-byte header plus a payload

  for (std::size_t len = 0; len < full.size(); len += 13) {
    write_bytes(path_, std::vector<char>(full.begin(),
                                         full.begin() + static_cast<long>(len)));
    AuditAccumulators victim(registry_, options());
    const CheckpointLoad load = load_into(victim);
    ASSERT_FALSE(load.ok) << "len " << len;
    ASSERT_TRUE(load.error.has_value()) << "len " << len;
    EXPECT_TRUE(load.error->kind == io::LoadErrorKind::kTruncatedFile ||
                load.error->kind == io::LoadErrorKind::kBadMagic)
        << "len " << len << ": " << load.error->detail;
  }
}

TEST_F(CheckpointTest, FlippedPayloadByteFailsChecksum) {
  AuditAccumulators acc = populated();
  ASSERT_TRUE(save_checkpoint(acc, path_));
  std::vector<char> bytes = read_bytes(path_);
  bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x40);
  write_bytes(path_, bytes);

  AuditAccumulators victim(registry_, options());
  const CheckpointLoad load = load_into(victim);
  ASSERT_FALSE(load.ok);
  ASSERT_TRUE(load.error.has_value());
  EXPECT_EQ(load.error->kind, io::LoadErrorKind::kSectionChecksum);
}

TEST_F(CheckpointTest, WrongMagicIsBadMagic) {
  AuditAccumulators acc = populated();
  ASSERT_TRUE(save_checkpoint(acc, path_));
  std::vector<char> bytes = read_bytes(path_);
  bytes[0] = 'X';
  write_bytes(path_, bytes);

  AuditAccumulators victim(registry_, options());
  const CheckpointLoad load = load_into(victim);
  ASSERT_FALSE(load.ok);
  EXPECT_EQ(load.error->kind, io::LoadErrorKind::kBadMagic);
}

TEST_F(CheckpointTest, ThresholdMismatchRefusesToResume) {
  AuditAccumulators acc = populated();
  ASSERT_TRUE(save_checkpoint(acc, path_));

  AccumulatorOptions other = options();
  other.neutrality.sppe_boost_threshold = 50.0;  // different rules
  AuditAccumulators victim(registry_, other);
  const CheckpointLoad load = load_checkpoint(
      victim, path_, other.fingerprint(), registry_.fingerprint());
  ASSERT_FALSE(load.ok);
  EXPECT_EQ(load.error->kind, io::LoadErrorKind::kUnsupportedVersion);
}

TEST_F(CheckpointTest, RegistryMismatchRefusesToResume) {
  AuditAccumulators acc = populated();
  ASSERT_TRUE(save_checkpoint(acc, path_));

  AuditAccumulators victim(registry_, options());
  const CheckpointLoad load = load_checkpoint(
      victim, path_, options().fingerprint(), registry_.fingerprint() ^ 1);
  ASSERT_FALSE(load.ok);
  EXPECT_EQ(load.error->kind, io::LoadErrorKind::kUnsupportedVersion);
}

TEST_F(CheckpointTest, OverwriteReplacesAtomically) {
  AuditAccumulators first = populated(6);
  ASSERT_TRUE(save_checkpoint(first, path_));
  AuditAccumulators second = populated(12);
  ASSERT_TRUE(save_checkpoint(second, path_));

  AuditAccumulators restored(registry_, options());
  const CheckpointLoad load = load_into(restored);
  ASSERT_TRUE(load.ok);
  EXPECT_EQ(load.seq, second.last_seq());
  EXPECT_EQ(restored.blocks(), 12u);
}

}  // namespace
}  // namespace cn::daemon
