// WorldCache: content-addressed CNB1 materialization. The contracts
// under test are the ones cnsweep and every bench lean on: a hit is
// byte-identical to a fresh simulation, a defective entry is evicted
// and regenerated (never trusted), and concurrent misses on the same
// fingerprint simulate exactly once.
#include "io/world_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "io/cnb.hpp"
#include "sim/engine.hpp"
#include "testing/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace cn {
namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// A world small enough to simulate in well under a second; every test
// in this file regenerates it at least once.
sim::WorldSpec tiny_spec(std::uint64_t seed = 7) {
  return sim::baseline_spec(sim::DatasetKind::kA, seed, 0.05);
}

class WorldCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = cn::test::unique_temp_path("cn_world");
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(WorldCacheTest, MissThenHitSameWorld) {
  io::WorldCache cache(dir_);
  const sim::WorldSpec spec = tiny_spec();

  const io::World cold = cache.materialize(spec);
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_TRUE(std::filesystem::exists(cache.path_for(spec)));

  const io::World warm = cache.materialize(spec);
  EXPECT_TRUE(warm.cache_hit);

  const io::WorldCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.sim_seconds, 0.0);

  // The generate path serves its result through the same load path a
  // warm caller takes, so cold and warm worlds must agree exactly.
  EXPECT_EQ(cold.chain.size(), warm.chain.size());
  EXPECT_EQ(cold.chain.total_tx_count(), warm.chain.total_tx_count());
  EXPECT_EQ(cold.snapshots.size(), warm.snapshots.size());
  EXPECT_EQ(cold.first_seen_map, warm.first_seen_map);
  EXPECT_EQ(cold.truth.spec_fingerprint, spec.fingerprint());
  EXPECT_EQ(cold.truth.scam_address, warm.truth.scam_address);
  EXPECT_EQ(cold.truth.accelerated_txids, warm.truth.accelerated_txids);
}

TEST_F(WorldCacheTest, EntryByteIdenticalToFreshSimulation) {
  io::WorldCache cache(dir_);
  const sim::WorldSpec spec = tiny_spec();
  (void)cache.materialize(spec);

  // Run the engine directly — the way every bench did before the cache —
  // and write the observables through the same CNB1 options generate()
  // uses. The cache entry must be byte-for-byte this file.
  sim::SimResult result = sim::Engine(spec.config()).run();
  io::SimWorldInfo truth;
  truth.spec_fingerprint = spec.fingerprint();
  truth.scam_address = result.scam_address;
  truth.accelerated_txids = result.acceleration.all_accelerated_sorted();
  io::CnbWriteOptions options;
  options.snapshots = &result.observer.snapshots();
  options.first_seen = &result.observer.first_seen_map();
  options.world = &truth;
  const std::string fresh = dir_ + "/fresh.cnb";
  std::string error;
  ASSERT_TRUE(io::write_cnb(result.chain, fresh, options, &error)) << error;

  const std::string cached_bytes = read_bytes(cache.path_for(spec));
  ASSERT_FALSE(cached_bytes.empty());
  EXPECT_EQ(cached_bytes, read_bytes(fresh));
}

TEST_F(WorldCacheTest, CorruptEntryEvictedAndRegenerated) {
  io::WorldCache cache(dir_);
  const sim::WorldSpec spec = tiny_spec();
  (void)cache.materialize(spec);
  const std::string entry = cache.path_for(spec);
  const std::string pristine = read_bytes(entry);

  // Flip bytes inside one section's payload; the directory checksum
  // stays stale so a strict load must reject the file.
  cn::testing::FaultInjector injector(spec.seed);
  cn::testing::FaultOptions fault_options;
  fault_options.cnb_sections = 1;
  cn::testing::InjectionLog log;
  const std::string dirty = entry + ".dirty";
  ASSERT_TRUE(injector.inject_cnb_file(entry, dirty, fault_options, log));
  ASSERT_FALSE(log.faults.empty());
  EXPECT_EQ(log.faults[0].kind, cn::testing::FaultKind::kCorruptSection);
  std::filesystem::rename(dirty, entry);
  ASSERT_NE(read_bytes(entry), pristine);

  const io::World world = cache.materialize(spec);
  EXPECT_FALSE(world.cache_hit);  // regenerated, not served corrupt
  const io::WorldCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  // Determinism: the regenerated entry is the original, byte for byte.
  EXPECT_EQ(read_bytes(entry), pristine);
}

TEST_F(WorldCacheTest, TruncatedEntryEvictedAndRegenerated) {
  io::WorldCache cache(dir_);
  const sim::WorldSpec spec = tiny_spec();
  (void)cache.materialize(spec);
  const std::string entry = cache.path_for(spec);
  const std::string pristine = read_bytes(entry);

  std::filesystem::resize_file(entry, pristine.size() / 2);

  (void)cache.materialize(spec);
  const io::WorldCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(read_bytes(entry), pristine);
}

TEST_F(WorldCacheTest, RenamedEntryNeverMasqueradesAsAnotherWorld) {
  io::WorldCache cache(dir_);
  const sim::WorldSpec seven = tiny_spec(7);
  const sim::WorldSpec eight = tiny_spec(8);
  (void)cache.materialize(seven);

  // Plant seed-7's (perfectly valid) file at seed-8's address. The
  // stored spec fingerprint must out the impostor.
  std::filesystem::copy_file(cache.path_for(seven), cache.path_for(eight));

  const io::World world = cache.materialize(eight);
  EXPECT_FALSE(world.cache_hit);
  EXPECT_EQ(world.truth.spec_fingerprint, eight.fingerprint());
  const io::WorldCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(WorldCacheTest, RacingJobsGenerateExactlyOnce) {
  io::WorldCache cache(dir_);
  const sim::WorldSpec spec = tiny_spec();

  constexpr std::size_t kJobs = 4;
  std::vector<io::World> worlds(kJobs);
  util::ThreadPool pool(kJobs);
  pool.parallel_for(kJobs, [&](std::size_t i) {
    worlds[i] = cache.materialize(spec);
  });

  const io::WorldCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kJobs - 1);
  std::size_t generated = 0;
  for (const io::World& world : worlds) {
    if (!world.cache_hit) ++generated;
    EXPECT_EQ(world.chain.size(), worlds[0].chain.size());
    EXPECT_EQ(world.truth.spec_fingerprint, spec.fingerprint());
  }
  EXPECT_EQ(generated, 1u);
}

}  // namespace
}  // namespace cn
