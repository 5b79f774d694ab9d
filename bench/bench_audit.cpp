// run_full_audit wall time, stage by stage, plus two gates: the
// observability layer costs at most 2% of an audit and never changes its
// bytes, and an audit from a stored CNB1 dataset shrinks the build stage
// below 5% of the in-memory audit without changing its bytes. Either gate
// failing exits non-zero.
#include "common.hpp"
#include "worlds.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "core/audit_pipeline.hpp"
#include "core/wallet_inference.hpp"
#include "io/cnb.hpp"
#include "io/dataset_source.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cn;

const io::World* g_world = nullptr;

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

core::AuditOptions audit_options() {
  core::AuditOptions options;
  options.watch_addresses.push_back(g_world->scam_address());
  return options;
}

void BM_AuditColumnar(benchmark::State& state) {
  const auto options = audit_options();
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  for (auto _ : state) {
    auto report = core::run_full_audit(g_world->chain, registry, options);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_AuditColumnar)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  cn::bench::JsonReport json("audit");
  cn::bench::banner("run_full_audit: staged columnar pipeline",
                    "(engineering bench; the paper's §4-§5 methodology end to end)");

  const std::uint64_t seed = cn::bench::seed_from_env();
  const double scale = cn::bench::scale_from_env(0.5);
  const io::World world = cn::bench::world_for(
      cn::bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));
  g_world = &world;
  std::printf("world: %zu blocks, %llu transactions\n\n", world.chain.size(),
              static_cast<unsigned long long>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  // Best of three in-memory audits: the reference the CNB1 build-stage
  // budget below is measured against.
  core::AuditReport columnar_report;
  double columnar_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto report = core::run_full_audit(g_world->chain, registry, audit_options());
    columnar_s = std::min(
        columnar_s,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    columnar_report = std::move(report);
  }

  std::printf("  columnar pipeline: %8.3f s\n", columnar_s);
  std::printf("\n--- columnar stage timings ---\n");
  for (const core::AuditStage& s : columnar_report.stages) {
    std::printf("  %-14s %8.3f s\n", s.name.c_str(), s.seconds);
    json.metric("stage_" + s.name + "_seconds", s.seconds);
  }
  json.metric("columnar_seconds", columnar_s);

  // Observability overhead gate (DESIGN.md §10): the instrumented audit
  // must stay within 2% of the same audit with the runtime obs switch
  // off, and the report must not change by a byte either way. One audit
  // takes tens of milliseconds, far too short to compare against a 2%
  // budget on a host whose speed drifts by more than that from second to
  // second. So each pair of samples alternates obs on and off audit by
  // audit until both sides have run for at least kSampleSeconds, which
  // puts both under the same drift; the side that opens a pair
  // alternates from pair to pair, and the gate reads the median of the
  // per-pair ratios.
  constexpr double kSampleSeconds = 1.0;
  constexpr int kObsPairs = 15;
  const auto options = audit_options();
  core::AuditReport lit_report, dark_report;
  std::vector<double> lit_samples, dark_samples, overheads;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    double seconds[2] = {0.0, 0.0};  // [obs off, obs on]
    int reps[2] = {0, 0};
    bool on = pair % 2 == 0;
    while (seconds[0] < kSampleSeconds || seconds[1] < kSampleSeconds) {
      cn::obs::set_enabled(on);
      const auto t0 = std::chrono::steady_clock::now();
      auto report = core::run_full_audit(g_world->chain, registry, options);
      seconds[on] += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      ++reps[on];
      (on ? lit_report : dark_report) = std::move(report);
      on = !on;
    }
    lit_samples.push_back(seconds[1] / reps[1]);
    dark_samples.push_back(seconds[0] / reps[0]);
    overheads.push_back(lit_samples.back() / dark_samples.back() - 1.0);
  }
  const auto quantile = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  cn::obs::set_enabled(true);
  const bool obs_bytes_equal = rendered(dark_report) == rendered(lit_report);
  const double lit_s = quantile(lit_samples, 0.5);
  const double dark_s = quantile(dark_samples, 0.5);
  const double overhead = quantile(overheads, 0.5);
  const double overhead_iqr = quantile(overheads, 0.75) - quantile(overheads, 0.25);
  const bool overhead_ok = overhead <= 0.02;
  std::printf("\n--- observability overhead ---\n");
  std::printf("  obs on:  %8.4f s per audit (median of %d samples of >= %.0f s)\n"
              "  obs off: %8.4f s per audit\n"
              "  overhead: median %+.2f%%, IQR %.2f%% over %d pairs "
              "(budget 2%%, reports %s)\n",
              lit_s, kObsPairs, kSampleSeconds, dark_s, overhead * 100.0,
              overhead_iqr * 100.0, kObsPairs,
              obs_bytes_equal ? "byte-identical" : "DIVERGED");
  json.metric("obs_enabled_seconds", lit_s);
  json.metric("obs_disabled_seconds", dark_s);
  json.metric("obs_overhead_fraction", overhead);
  json.metric("obs_overhead_iqr", overhead_iqr);
  json.metric("obs_overhead_pairs", kObsPairs);
  json.metric("obs_overhead_ok", overhead_ok ? 1.0 : 0.0);
  json.metric("obs_reports_byte_identical", obs_bytes_equal ? 1.0 : 0.0);
  if (!obs_bytes_equal) {
    std::fprintf(stderr, "FATAL: report changed when observability was disabled\n");
    return 1;
  }

  // --- CNB1 prebuilt-dataset path (DESIGN.md §11) ---
  // Round-trip the world through a CNB1 file with the derived columns
  // embedded, audit from the stored dataset, and hold it to three
  // promises: the report stays byte-identical to the in-memory columnar
  // audit, the build stage collapses to pointer-fixup cost (< 5% of the
  // audit wall-clock), and the numbers land in the BENCH json.
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cn::bench::out_dir(), ec);
  const std::string cnb_path =
      (fs::path(cn::bench::out_dir()) / "audit_world.cnb").string();
  {
    util::ThreadPool workers(0);
    const core::PoolAttribution attribution(world.chain, registry);
    const auto dataset =
        core::AuditDataset::build(world.chain, attribution, workers);
    io::CnbWriteOptions cnb_options;
    cnb_options.dataset = &dataset;
    cnb_options.registry_fingerprint = registry.fingerprint();
    std::string io_error;
    if (!io::write_cnb(world.chain, cnb_path, cnb_options, &io_error)) {
      std::fprintf(stderr, "FATAL: write_cnb: %s\n", io_error.c_str());
      return 1;
    }
  }

  const auto t_load = std::chrono::steady_clock::now();
  const auto loaded = io::open_dataset(cnb_path, io::LoadPolicy::kStrict);
  const double cnb_load_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_load)
          .count();
  const core::AuditDataset* prebuilt =
      loaded.has_value() ? loaded->prebuilt_for(registry) : nullptr;
  if (prebuilt == nullptr) {
    std::fprintf(stderr, "FATAL: CNB1 load yielded no usable prebuilt dataset\n");
    return 1;
  }

  core::AuditReport prebuilt_report;
  double prebuilt_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto options = audit_options();
    options.prebuilt_dataset = prebuilt;
    const auto t0 = std::chrono::steady_clock::now();
    auto report = core::run_full_audit(loaded->chain, registry, options);
    prebuilt_s = std::min(
        prebuilt_s,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    prebuilt_report = std::move(report);
  }
  const bool cnb_bytes_equal =
      rendered(prebuilt_report) == rendered(columnar_report);

  double build_stage_s = 0.0;
  for (const core::AuditStage& s : prebuilt_report.stages) {
    if (s.name == "build") build_stage_s = s.seconds;
  }
  // The budget is against the audit users actually wait for: a stored
  // dataset must shrink the build stage to < 5% of the columnar audit's
  // wall-clock (it used to BE ~94% of it — the cost this format erases).
  const double build_fraction =
      columnar_s > 0.0 ? build_stage_s / columnar_s : 0.0;
  const bool build_fraction_ok = build_fraction < 0.05;
  std::printf("\n--- CNB1 prebuilt dataset ---\n");
  std::printf("  load:  %8.3f s   audit: %8.3f s   (reports %s)\n", cnb_load_s,
              prebuilt_s, cnb_bytes_equal ? "byte-identical" : "DIVERGED");
  std::printf("  build stage: %.4f s = %.2f%% of the %.3f s columnar audit "
              "(budget 5%%, %s)\n",
              build_stage_s, build_fraction * 100.0, columnar_s,
              build_fraction_ok ? "OK" : "FAILED");
  json.metric("cnb_load_seconds", cnb_load_s);
  json.metric("cnb_audit_seconds", prebuilt_s);
  json.metric("cnb_stage_build_seconds", build_stage_s);
  json.metric("cnb_build_fraction", build_fraction);
  json.metric("cnb_build_fraction_ok", build_fraction_ok ? 1.0 : 0.0);
  json.metric("cnb_reports_byte_identical", cnb_bytes_equal ? 1.0 : 0.0);
  if (!cnb_bytes_equal) {
    std::fprintf(stderr,
                 "FATAL: CNB1 prebuilt report diverged from the in-memory "
                 "audit\n");
    return 1;
  }
  // Both budget gates are reported before either fails the run, so the
  // exit status and the *_ok bits in the JSON always agree.
  if (!overhead_ok) {
    std::fprintf(stderr,
                 "FATAL: observability costs %+.2f%% of an audit (budget 2%%)\n",
                 overhead * 100.0);
  }
  if (!build_fraction_ok) {
    std::fprintf(stderr,
                 "FATAL: build stage is %.2f%% of the columnar audit "
                 "(budget 5%%)\n",
                 build_fraction * 100.0);
  }
  if (!overhead_ok || !build_fraction_ok) return 1;

  return cn::bench::run_microbenchmarks(argc, argv);
}
