// cnauditd — the always-on chain-neutrality audit daemon.
//
//   cnauditd --input PATH [--policy strict|lenient]
//            [--checkpoint PATH] [--checkpoint-every N] [--seal-every N]
//            [--threads 0|1] [--oneshot] [--out PATH]
//            [--serve] [--http-port N]
//            [--read-deadline-ms N] [--metrics-out PATH]
//
// Consumes the data set as an ordered event stream (blocks merged with
// Mempool snapshots), applies each event to incremental audit
// accumulators, and checkpoints progress atomically every
// --checkpoint-every blocks. Killed at ANY instant — including mid-
// checkpoint — a restart with the same flags resumes from the last
// durable checkpoint and produces the same final report, byte for byte,
// as an uninterrupted run (tools/test_chaos.cmake proves this under
// armed kill points; see CN_CRASH_AT in src/testing/crash_points.hpp).
//
//   --oneshot (default)  drain the feed, write the sealed JSON report
//                        to --out (stdout when omitted), exit.
//   --serve              also bind 127.0.0.1:--http-port (0 =
//                        ephemeral; the bound port is printed) serving
//                        /report /healthz /readyz /metrics, and keep
//                        serving after the feed drains until SIGINT or
//                        SIGTERM.
//   --threads 1          synchronous pull-apply loop (default);
//   --threads 0          pipelined: ingest thread with per-read
//                        deadline + retry/backoff, bounded queue with
//                        blocking backpressure, apply thread, watchdog
//                        thread that fails /readyz when apply stalls.
//                        Reports are identical across both.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "btc/coinbase_tags.hpp"
#include "daemon/daemon.hpp"
#include "io/dataset_source.hpp"
#include "io/stream_source.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "testing/crash_points.hpp"
#include "util/strings.hpp"

namespace {

using namespace cn;

/// "--key value" / "--key=value" option map; positional args rejected.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        ok_ = false;
        bad_ = key;
        return;
      }
      if (const auto eq = key.find('='); eq != std::string::npos) {
        values_[key.substr(2, eq - 2)] = key.substr(eq + 1);
        continue;
      }
      // Valueless switches.
      const std::string name = key.substr(2);
      if (name == "oneshot" || name == "serve") {
        values_[name] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        ok_ = false;
        bad_ = key;
        return;
      }
      values_[name] = argv[++i];
    }
  }

  bool ok() const { return ok_; }
  const std::string& bad() const { return bad_; }
  bool has(const std::string& key) const { return values_.count(key) != 0; }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string get_or(const std::string& key, const std::string& fallback) const {
    return get(key).value_or(fallback);
  }
  /// Option @p key as a whole unsigned number no larger than @p max
  /// (@p fallback when absent); nullopt, after a message naming the
  /// option, when the value is malformed or too large.
  std::optional<std::uint64_t> get_u64(const std::string& key,
                                       std::uint64_t fallback,
                                       std::uint64_t max) const {
    const auto v = get(key);
    if (!v) return fallback;
    const auto parsed = util::parse_u64(*v, max);
    if (!parsed) {
      const std::string bound =
          max < std::numeric_limits<std::uint64_t>::max()
              ? " <= " + std::to_string(max)
              : "";
      std::fprintf(stderr, "cnauditd: --%s '%s' is not an unsigned integer%s\n",
                   key.c_str(), v->c_str(), bound.c_str());
    }
    return parsed;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
  std::string bad_;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: cnauditd --input PATH [--policy strict|lenient]\n"
      "                [--checkpoint PATH] [--checkpoint-every N] [--seal-every N]\n"
      "                [--threads 0|1] [--oneshot] [--out PATH]\n"
      "                [--serve] [--http-port N]\n"
      "                [--read-deadline-ms N] [--metrics-out PATH]\n");
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, 1);
  if (!args.ok()) {
    std::fprintf(stderr, "cnauditd: bad argument '%s'\n", args.bad().c_str());
    return usage();
  }
  const auto input = args.get("input");
  if (!input) {
    std::fprintf(stderr, "cnauditd: --input PATH is required\n");
    return usage();
  }
  const std::string policy_s = args.get_or("policy", "strict");
  if (policy_s != "strict" && policy_s != "lenient") {
    std::fprintf(stderr, "cnauditd: unknown --policy '%s'\n", policy_s.c_str());
    return usage();
  }
  const io::LoadPolicy policy =
      policy_s == "strict" ? io::LoadPolicy::kStrict : io::LoadPolicy::kLenient;

  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  const auto checkpoint_every = args.get_u64("checkpoint-every", 32, kU64Max);
  const auto seal_every = args.get_u64("seal-every", 16, kU64Max);
  const auto read_deadline_ms = args.get_u64("read-deadline-ms", 1000, kIntMax);
  const auto threads = args.get_u64("threads", 1, 1);  // 0 or 1
  const auto http_port =
      args.get_u64("http-port", 0, std::numeric_limits<std::uint16_t>::max());
  if (!checkpoint_every || !seal_every || !read_deadline_ms || !threads ||
      !http_port) {
    return 2;
  }

  testing::arm_crash_points_from_env();

  auto loaded = io::open_dataset(*input, policy);
  if (!loaded.report.clean()) {
    std::fprintf(stderr, "cnauditd: %s: %s\n", input->c_str(),
                 loaded.report.summary().c_str());
  }
  if (!loaded) {
    std::fprintf(stderr, "cnauditd: failed to load a data set from %s\n",
                 input->c_str());
    return 1;
  }
  const io::DatasetHandle& handle = *loaded.value;

  daemon::DaemonConfig config;
  config.checkpoint_path = args.get_or("checkpoint", "");
  config.checkpoint_every_blocks = *checkpoint_every;
  config.seal_every_blocks = *seal_every;
  config.read_deadline_ms = static_cast<int>(*read_deadline_ms);
  config.threads = static_cast<int>(*threads);

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  io::ReplaySource replay(handle);
  core::FirstSeenFn first_seen;
  if (handle.first_seen.has_value()) {
    const io::FirstSeenMap* map = &*handle.first_seen;
    first_seen = [map](const btc::Txid& id) -> std::optional<SimTime> {
      const auto it = map->find(id);
      if (it == map->end()) return std::nullopt;
      return it->second;
    };
  }

  daemon::AuditDaemon daemon(replay, registry, first_seen, config);
  std::string recover_msg;
  daemon.recover(&recover_msg);
  std::fprintf(stderr, "cnauditd: %s (%llu events in feed)\n",
               recover_msg.c_str(),
               static_cast<unsigned long long>(replay.size()));

  const bool serve = args.has("serve");
  daemon::HttpServer http;
  if (serve) {
    std::string error;
    const auto port = static_cast<std::uint16_t>(*http_port);
    if (!http.start(port, [&daemon](const daemon::HttpRequest& r) {
          return daemon.handle(r);
        }, &error)) {
      std::fprintf(stderr, "cnauditd: http: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "cnauditd: serving on 127.0.0.1:%u\n", http.port());
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
  }

  if (config.threads == 1) {
    daemon.run_to_end();
  } else {
    daemon.start();
    daemon.join();
  }

  int rc = 0;
  if (!daemon.healthy()) {
    std::fprintf(stderr, "cnauditd: ingest failed (fatal error)\n");
    rc = 1;
  }

  const std::string report = daemon.seal_report_json();
  const daemon::DaemonStats stats = daemon.stats();
  std::fprintf(stderr,
               "cnauditd: applied %llu events (%llu blocks, %llu snapshots), "
               "%llu checkpoints, %llu seals\n",
               static_cast<unsigned long long>(stats.events_applied),
               static_cast<unsigned long long>(stats.blocks_applied),
               static_cast<unsigned long long>(stats.snapshots_applied),
               static_cast<unsigned long long>(stats.checkpoints_written),
               static_cast<unsigned long long>(stats.seals));

  if (const auto out = args.get("out")) {
    if (!write_file(*out, report)) {
      std::fprintf(stderr, "cnauditd: could not write %s\n", out->c_str());
      rc = 1;
    }
  } else if (!serve) {
    std::fwrite(report.data(), 1, report.size(), stdout);
    std::fputc('\n', stdout);
  }

  if (serve) {
    std::fprintf(stderr, "cnauditd: feed drained; serving until SIGINT/SIGTERM\n");
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    http.stop();
  }

  if (const auto metrics = args.get("metrics-out")) {
    if (!obs::write_metrics_json(*metrics)) {
      std::fprintf(stderr, "cnauditd: could not write %s\n", metrics->c_str());
    }
  }
  return rc;
}
