// The simulator's determinism contract (DESIGN.md §12), tested at the
// strictest level available: exported bytes.
//
//   1. Two runs of one config are identical, down to the exported CSV
//      and CNB1 bytes.
//   2. Those bytes match pinned golden digests for two worlds. A golden
//      catches a change anywhere on the path from workload to export:
//      mempool, template builder, policies, observer, exporters.
//
// Registered as a world test: the suite shares its simulated worlds
// across cases.
#include <gtest/gtest.h>

#include <string>

#include "../helpers.hpp"
#include "io/cnb.hpp"
#include "sim/dataset.hpp"
#include "sim/engine.hpp"

namespace cn {
namespace {

// Golden digests (io::export_digest) of two serial worlds' full exports.
// They pin every byte the simulator hands to an auditor; a change that
// moves one changes the simulated world, not just its speed.
// Data set A, seed 4242, scale 0.15.
constexpr const char* kGoldenDatasetA4242 =
    "260c73e5bdc52e167f402cb8cbe1b701ed6450eac9edf6e6c1f2566dd959847e";
// Data set C, seed 7, scale 0.05 (bench_sim_scale --smoke pins it too).
constexpr const char* kGoldenDatasetC7 =
    "324501308b0c350807da3addc8eba0898fb5b8eba38621a51853988e333f11c3";

std::string digest_of(const sim::SimResult& world, const std::string& tag) {
  std::string error;
  const std::string digest = io::export_digest(
      world.chain, world.observer.snapshots(), world.observer.first_seen_map(),
      test::unique_temp_path("cn_det_" + tag), &error);
  EXPECT_FALSE(digest.empty()) << error;
  return digest;
}

/// The shared worlds: one data set A config, simulated twice.
class SerialDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const sim::EngineConfig config =
        sim::dataset_config(sim::DatasetKind::kA, 4242, 0.15);
    first_ = new sim::SimResult(sim::Engine(config).run());
    second_ = new sim::SimResult(sim::Engine(config).run());
  }
  static void TearDownTestSuite() {
    delete second_;
    delete first_;
    second_ = first_ = nullptr;
  }

  static sim::SimResult* first_;
  static sim::SimResult* second_;
};

sim::SimResult* SerialDeterminism::first_ = nullptr;
sim::SimResult* SerialDeterminism::second_ = nullptr;

TEST_F(SerialDeterminism, RunToRunIdentical) {
  const sim::SimResult& a = *first_;
  const sim::SimResult& b = *second_;
  ASSERT_EQ(a.chain.size(), b.chain.size());
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    const auto& ba = a.chain.blocks()[i];
    const auto& bb = b.chain.blocks()[i];
    ASSERT_EQ(ba.tx_count(), bb.tx_count()) << "block " << i;
    for (std::size_t j = 0; j < ba.tx_count(); ++j) {
      ASSERT_EQ(ba.txs()[j].id(), bb.txs()[j].id())
          << "block " << i << " position " << j;
    }
  }
  EXPECT_EQ(a.issued_count, b.issued_count);
  EXPECT_EQ(a.rbf_replacements, b.rbf_replacements);
  EXPECT_EQ(a.scam_txids, b.scam_txids);
  EXPECT_TRUE(a.observer.first_seen_map() == b.observer.first_seen_map());
  EXPECT_EQ(a.observer.snapshots().stats().size(),
            b.observer.snapshots().stats().size());
}

TEST_F(SerialDeterminism, ExportBytesIdenticalRunToRun) {
  EXPECT_EQ(digest_of(*first_, "first"), digest_of(*second_, "second"));
}

TEST_F(SerialDeterminism, MatchesGoldenDigest) {
  EXPECT_EQ(digest_of(*first_, "a4242"), kGoldenDatasetA4242);
}

TEST(SerialGolden, SmallDatasetCWorldMatchesGoldenDigest) {
  const sim::EngineConfig config =
      sim::dataset_config(sim::DatasetKind::kC, 7, 0.05);
  EXPECT_EQ(digest_of(sim::Engine(config).run(), "c7"), kGoldenDatasetC7);
}

}  // namespace
}  // namespace cn
