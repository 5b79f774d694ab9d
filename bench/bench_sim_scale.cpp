// Simulation throughput: the serial engine over a world-size sweep.
//
// Runs one world per size (small = data set A, medium = B, large = C,
// each scaled by CN_SCALE) and records seconds, txs/s, events/s and
// blocks/s per world into BENCH_sim_scale.json. This is the baseline a
// simulator speed-up is measured against.
//
//   --smoke   determinism only, no timings, no micro-benchmarks: runs the
//             small data set C world (seed 7, scale 0.05) twice and
//             checks that both runs export the same bytes and that those
//             bytes match the golden digest the determinism suite
//             (tests/sim/test_determinism.cpp) pins. Fast enough for CI.
#include "common.hpp"

#include <cstring>

#include "io/cnb.hpp"
#include "obs/registry.hpp"
#include "sim/dataset.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cn;

// Same world and digest as kGoldenDatasetC7 in tests/sim/test_determinism.cpp.
constexpr std::uint64_t kGoldenSeed = 7;
constexpr double kGoldenScale = 0.05;
constexpr const char* kGoldenDigest =
    "324501308b0c350807da3addc8eba0898fb5b8eba38621a51853988e333f11c3";

double counter_value(const char* name) {
  for (const auto& m : obs::snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::uint64_t g_seed = 42;

void BM_EngineSmall(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sim::Engine(sim::dataset_config(sim::DatasetKind::kA, g_seed, 0.05))
                 .run();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineSmall)->Unit(benchmark::kMillisecond);

int run_smoke() {
  cn::bench::JsonReport json("sim_scale_smoke");
  cn::bench::banner("sim engine (smoke): run-to-run and golden determinism",
                    "(engineering bench; no paper counterpart)");
  const sim::EngineConfig config =
      sim::dataset_config(sim::DatasetKind::kC, kGoldenSeed, kGoldenScale);
  std::string digests[2];
  double txs = 0.0, blocks = 0.0;
  for (int run = 0; run < 2; ++run) {
    const sim::SimResult world = sim::Engine(config).run();
    std::string error;
    digests[run] = io::export_digest(
        world.chain, world.observer.snapshots(), world.observer.first_seen_map(),
        cn::bench::out_dir() + "/sim_scale_smoke_" + std::to_string(run), &error);
    if (digests[run].empty()) {
      std::fprintf(stderr, "FATAL: export failed: %s\n", error.c_str());
      return 1;
    }
    txs = static_cast<double>(world.chain.total_tx_count());
    blocks = static_cast<double>(world.chain.size());
  }
  const bool repeat_ok = digests[0] == digests[1];
  const bool golden_ok = digests[0] == kGoldenDigest;
  std::printf("  run-to-run identical exports: %s\n", repeat_ok ? "OK" : "FAILED");
  std::printf("  export matches golden digest: %s\n  (%s)\n",
              golden_ok ? "OK" : "FAILED", digests[0].c_str());
  // The top-level seed/scale fields echo CN_SEED/CN_SCALE; the smoke
  // world ignores both.
  json.metric("world_seed", static_cast<double>(kGoldenSeed));
  json.metric("world_scale", kGoldenScale);
  json.metric("run_to_run_identical", repeat_ok ? 1.0 : 0.0);
  json.metric("matches_golden", golden_ok ? 1.0 : 0.0);
  json.metric("txs", txs);
  json.metric("blocks", blocks);
  if (!repeat_ok || !golden_ok) {
    std::fprintf(stderr, "FATAL: smoke determinism check failed\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }
  g_seed = cn::bench::seed_from_env();

  cn::bench::JsonReport json("sim_scale");
  cn::bench::banner("sim engine throughput: serial world-size sweep",
                    "(engineering bench; no paper counterpart)");
  const double scale = cn::bench::scale_from_env(0.5);

  struct World {
    const char* name;
    sim::DatasetKind kind;
    double scale;
  };
  const World worlds[] = {
      {"small", sim::DatasetKind::kA, 0.5 * scale},
      {"medium", sim::DatasetKind::kB, 1.0 * scale},
      {"large", sim::DatasetKind::kC, 2.0 * scale},
  };
  for (const World& w : worlds) {
    const double events_before = counter_value("sim.engine.events");
    const auto t0 = std::chrono::steady_clock::now();
    const sim::SimResult result =
        sim::Engine(sim::dataset_config(w.kind, g_seed, w.scale)).run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double txs = static_cast<double>(result.chain.total_tx_count());
    const double blocks = static_cast<double>(result.chain.size());
    const double events = counter_value("sim.engine.events") - events_before;
    std::printf(
        "world %-6s (kind=%c, scale=%.3g) %8.3f s   %9.0f txs/s   "
        "%9.0f events/s   %6.2f blocks/s\n",
        w.name, "ABC"[static_cast<int>(w.kind)], w.scale, seconds,
        txs / seconds, events / seconds, blocks / seconds);
    const std::string key = w.name;
    json.metric(key + ".seconds", seconds);
    json.metric(key + ".txs_per_s", txs / seconds);
    json.metric(key + ".events_per_s", events / seconds);
    json.metric(key + ".blocks_per_s", blocks / seconds);
    json.add("txs", txs);
    json.add("blocks", blocks);
  }

  return cn::bench::run_microbenchmarks(argc, argv);
}
