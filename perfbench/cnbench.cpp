// cnbench — the measuring half of the end-to-end benchmark (README.md).
//
//   cnbench --workload warm-audit|daemon-replay --seed N --seconds S
//           --trace 0|1 --work-dir DIR --out FILE
//
// Drives the library only through the public calls cnaudit, cnconvert
// and cnauditd make, with their default settings: the serial simulation
// engine, AuditOptions::threads = 0, and a synchronous daemon sealing
// every 16 blocks and checkpointing every 32. The world is derived from
// --seed. Set-up (the first-use path: simulate, CSV export, CSV report,
// conversion to .cnb) is repeated and timed; then operations run
// closed-loop (one at a time, the next as soon as the previous one
// returns) for --seconds, each warm-audit report in a process of its
// own. Every output is checked, and the raw samples
// (per-operation latencies, per-layer values, obs counter deltas,
// determinism-guard counts, and in traced mode the span list) are
// written to FILE as JSON. run.py reduces them
// to the metrics BENCHMARK.json names. The exit code is 0 even when a
// check failed: failures are listed in FILE and run.py owns the verdict.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "btc/coinbase_tags.hpp"
#include "core/audit_pipeline.hpp"
#include "core/data_quality.hpp"
#include "core/wallet_inference.hpp"
#include "daemon/daemon.hpp"
#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "io/dataset_source.hpp"
#include "io/stream_source.hpp"
#include "obs/registry.hpp"
#include "sim/dataset.hpp"
#include "sim/engine.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cn;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Size of the data-set-C world both workloads use: large enough that an
// operation sits well above timer noise, small enough that >= 100 of
// them fit in a run (README.md). The simulated block count is random
// (about 187); the benchmark keeps the first kWorldBlocks of them, so
// every seed gives a world of the same length and an operation's cost
// does not follow the draw of blocks.
constexpr double kScale = 0.13;
constexpr std::size_t kWorldBlocks = 128;
// Set-up is repeated and its median reported, so work moved into
// set-up shows as a steady number.
constexpr int kSetupRepetitions = 3;
// Sample floors: a p90 needs >= 100 samples for ten beyond it; 1000
// daemon blocks are about eight replays.
constexpr std::int64_t kMinWarmOps = 100;
constexpr std::size_t kMinDaemonBlocks = 1000;
constexpr int kQueriesPerReplay = 200;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of one world, derived from the workload seed and a stable tag.
std::uint64_t world_seed(std::uint64_t seed, std::uint64_t tag) {
  return splitmix64(seed ^ splitmix64(tag));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// @p v with every digit, so that it parses back to the same double.
std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------
// Spans: recorded only in traced operations, kept in memory and written
// once at exit. Names start with the src/ layer they time ("sim.",
// "io.", "core.", "daemon."), or "bench." for the benchmark's own
// per-operation root.

struct SpanRow {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = top level
  std::int64_t op = 0;  ///< spans of one operation share it; < 0 = set-up
  std::uint32_t name = 0;    ///< index into Tracer::names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  bool active = false;  ///< the current operation is traced
  std::int64_t op = 0;

  void open(std::string_view name) {
    const std::uint32_t parent = stack_.empty() ? 0 : rows_[stack_.back()].id;
    rows_.push_back({static_cast<std::uint32_t>(rows_.size() + 1), parent, op,
                     intern(name), now_ns(), 0});
    stack_.push_back(rows_.size() - 1);
  }

  /// Appends a closed span recorded by a forked operation, which had the
  /// same rows up to its fork and so gave it the id this assigns.
  void append(std::uint32_t parent, std::string_view name, std::int64_t start_ns,
              std::int64_t end_ns) {
    rows_.push_back({static_cast<std::uint32_t>(rows_.size() + 1), parent, op,
                     intern(name), start_ns, end_ns});
  }

  /// Closes the innermost open span; @p rename (when non-empty) replaces
  /// its name, for spans whose kind is known only at their end.
  void close(std::string_view rename = {}) {
    SpanRow& row = rows_[stack_.back()];
    row.end_ns = now_ns();
    if (!rename.empty()) row.name = intern(rename);
    stack_.pop_back();
  }

  const std::vector<SpanRow>& rows() const { return rows_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::uint32_t intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::vector<SpanRow> rows_;
  std::vector<std::size_t> stack_;
  std::vector<std::string> names_;
};

Tracer g_tracer;

/// RAII span around one layer call; a no-op in untraced operations.
class Scope {
 public:
  explicit Scope(std::string_view name) : on_(g_tracer.active) {
    if (on_) g_tracer.open(name);
  }
  ~Scope() {
    if (on_) g_tracer.close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
};

// ---------------------------------------------------------------------
// Raw results.

using NumberMap = std::map<std::string, double>;

struct OpRecord {
  double ms = 0.0;      ///< latency of the whole operation
  double items = 0.0;   ///< work done: reports rendered or transactions applied
  bool traced = false;
  NumberMap values;     ///< per-layer values measured in this operation
  NumberMap counts;     ///< obs counter deltas over the operation
  NumberMap guard;      ///< counts that must repeat exactly
  std::map<std::string, std::string> digests;
  /// daemon-replay only: (kind, service ms) per block event.
  std::vector<std::pair<std::string, double>> blocks;
};

struct SetupRecord {
  double seconds = 0.0;
  NumberMap values;
  NumberMap counts;
  std::map<std::string, std::string> digests;
};

struct Results {
  std::vector<SetupRecord> setups;
  std::vector<OpRecord> ops;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  NumberMap params;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

NumberMap counter_snapshot() {
  NumberMap out;
  for (const obs::MetricValue& m : obs::snapshot()) {
    if (m.kind == obs::MetricKind::kCounter) out[m.name] = m.value;
  }
  return out;
}

/// Counter deltas for the names a workload reports.
NumberMap counter_delta(const NumberMap& before, const NumberMap& after,
                        const std::vector<std::string>& names) {
  NumberMap out;
  for (const std::string& name : names) {
    const auto b = before.find(name);
    const auto a = after.find(name);
    const double vb = b == before.end() ? 0.0 : b->second;
    const double va = a == after.end() ? 0.0 : a->second;
    out[name] = va - vb;
  }
  return out;
}

std::string render(const core::AuditReport& report) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  if (out == nullptr) return {};
  core::print_audit_report(report, out, /*with_timings=*/false);
  std::fclose(out);
  std::string text(buf, len);
  std::free(buf);
  return text;
}

/// The `cnaudit report` call sequence on a loaded data set: quality
/// grading from whichever observer series it carries, then the full
/// audit with cnaudit's default options, then rendering.
struct AuditRun {
  core::AuditReport report;
  std::string text;
};

AuditRun audit_loaded(const io::DatasetHandle& data,
                      const btc::CoinbaseTagRegistry& registry) {
  core::AuditOptions options;
  options.interned_addresses = &data.addresses;
  if (data.first_seen.has_value()) options.first_seen = &*data.first_seen;
  options.prebuilt_dataset = data.prebuilt_for(registry);
  AuditRun run;
  std::optional<core::DataQualityReport> quality;
  if (data.snapshots.has_value() || data.first_seen.has_value()) {
    Scope span("core.assess_data_quality");
    quality = core::assess_data_quality(
        data.chain, data.snapshots.has_value() ? &*data.snapshots : nullptr,
        data.first_seen.has_value() ? &*data.first_seen : nullptr);
  }
  {
    Scope span("core.run_full_audit");
    run.report = core::run_full_audit(data.chain, registry,
                                      quality ? &*quality : nullptr, options);
  }
  {
    Scope span("core.print_audit_report");
    run.text = render(run.report);
  }
  return run;
}

/// What `cnaudit simulate` exports: the chain, the observer's snapshots
/// and its first-seen log.
struct World {
  btc::Chain chain;
  node::SnapshotSeries snapshots;
  io::FirstSeenMap first_seen;
};

/// The first @p blocks blocks of @p sim (which has at least that many),
/// with the snapshots and first-seen entries up to the last of them.
World world_prefix(const sim::SimResult& sim, std::size_t blocks) {
  World world{btc::Chain(sim.chain.front().height()), {}, {}};
  for (const btc::Block& block : sim.chain.blocks().first(blocks)) {
    world.chain.append(block);
  }
  const SimTime end = world.chain.back().mined_at();
  for (const node::MempoolStat& stat : sim.observer.snapshots().stats()) {
    if (stat.time <= end) world.snapshots.record(stat);
  }
  for (const auto& [id, seen] : sim.observer.first_seen_map()) {
    if (seen <= end) world.first_seen.emplace(id, seen);
  }
  return world;
}

/// The same audit straight from the in-memory world: the reference the
/// CSV path must reproduce.
std::string audit_in_memory(const World& world, const btc::CoinbaseTagRegistry& registry) {
  core::AuditOptions options;
  options.first_seen = &world.first_seen;
  const core::DataQualityReport quality =
      core::assess_data_quality(world.chain, &world.snapshots, &world.first_seen);
  return render(core::run_full_audit(world.chain, registry, &quality, options));
}

void add_stage_values(const core::AuditReport& report, NumberMap& values) {
  for (const core::AuditStage& stage : report.stages) {
    values["core.stage." + stage.name + "_ms"] += stage.seconds * 1e3;
  }
}

/// `cnaudit simulate --out DIR`'s export: the chain, snapshots and
/// first-seen log as CSV. Returns false on an export failure.
bool export_csv(const World& world, const fs::path& dir, std::string* error) {
  Scope span("io.csv_export");
  const std::string out = dir.string();
  return io::export_chain(world.chain, out, error) &&
         io::export_snapshots(world.snapshots, out + "/snapshots.csv", error) &&
         io::export_first_seen(world.first_seen, out + "/first_seen.csv", error);
}

// ---------------------------------------------------------------------
// Set-up, shared by both workloads: the first-use path. `cnaudit
// simulate --dataset C --out DIR`, then `cnaudit report --input DIR`,
// then `cnconvert --input DIR --output world.cnb` (derived columns,
// snapshots and first-seen embedded). The world is the first
// kWorldBlocks blocks of a data-set-C world derived from the workload
// seed.

const std::vector<std::string>& setup_counters() {
  static const std::vector<std::string> names = {
      "sim.engine.events", "node.mempool.accepted", "node.mempool.evicted",
      "node.mempool.replaced", "io.ingest.rows_read"};
  return names;
}

/// Runs the first-use path once, writing @p cnb. Returns false (with the
/// failure recorded) when any step failed.
bool first_use(std::uint64_t seed, const fs::path& work, const fs::path& cnb,
               const btc::CoinbaseTagRegistry& registry, Results& results,
               SetupRecord& record) {
  const fs::path csv = work / "csv";
  fs::remove_all(csv);
  const NumberMap before = counter_snapshot();
  std::string error;
  std::optional<io::LoadResult<io::DatasetHandle>> loaded;
  {
    const sim::SimResult sim = [&] {
      Scope span("sim.engine_run");
      return sim::Engine(sim::dataset_config(sim::DatasetKind::kC,
                                             world_seed(seed, 'C'), kScale))
          .run();
    }();
    record.values["sim.txs_issued"] = static_cast<double>(sim.issued_count);
    results.check(sim.chain.size() >= kWorldBlocks,
                  "set-up: the simulated world has only " +
                      std::to_string(sim.chain.size()) + " blocks");
    if (sim.chain.size() < kWorldBlocks) return false;
    const World world = world_prefix(sim, kWorldBlocks);
    const bool exported = export_csv(world, csv, &error);
    results.check(exported, "set-up: CSV export failed: " + error);
    if (!exported) return false;
    record.values["io.csv_bytes_written"] = static_cast<double>(dir_bytes(csv));
    {
      Scope span("io.open_dataset.csv");
      loaded.emplace(io::open_dataset(csv.string()));
    }
    results.check(static_cast<bool>(*loaded) && loaded->report.clean(),
                  "set-up: CSV load failed: " + loaded->report.summary());
    if (!*loaded) return false;
    const std::string text = audit_loaded(*loaded->value, registry).text;
    record.digests["report"] = hex64(fnv1a(text));
    // The CSV round trip must not change a byte of the report.
    results.check(text == audit_in_memory(world, registry),
                  "set-up: report from CSV differs from the in-memory audit");
  }
  record.counts = counter_delta(before, counter_snapshot(), setup_counters());

  io::DatasetHandle& data = *loaded->value;
  {
    Scope span("core.build_derived");
    const core::PoolAttribution attribution(data.chain, registry);
    util::ThreadPool workers(0);
    data.audit_dataset = core::AuditDataset::build(
        data.chain, attribution, workers,
        data.addresses.size() > 0 ? &data.addresses : nullptr);
    data.registry_fingerprint = registry.fingerprint();
  }
  bool written = false;
  {
    Scope span("io.write_cnb");
    written = io::write_cnb(data, cnb.string(), &error);
  }
  results.check(written, "set-up: write_cnb failed: " + error);
  fs::remove_all(csv);
  if (written) record.digests["cnb"] = hex64(fnv1a(read_file(cnb)));
  return written;
}

/// Repeats the set-up kSetupRepetitions times (all traced in a traced
/// run, under operation ids -1, -2, ...); @p then, when given, is the
/// workload's own last set-up step. Returns false on a failure.
bool set_up(std::uint64_t seed, bool trace, const fs::path& work, const fs::path& cnb,
            const btc::CoinbaseTagRegistry& registry, Results& results,
            const std::function<bool()>& then = {}) {
  results.params["scale"] = kScale;
  results.params["world_blocks"] = static_cast<double>(kWorldBlocks);
  for (int i = 0; i < kSetupRepetitions; ++i) {
    SetupRecord record;
    g_tracer.active = trace;
    g_tracer.op = -(i + 1);
    const std::int64_t t0 = now_ns();
    const bool ok = first_use(seed, work, cnb, registry, results, record) &&
                    (!then || then());
    record.seconds = ms_between(t0, now_ns()) / 1e3;
    g_tracer.active = false;
    if (!ok) return false;
    results.setups.push_back(std::move(record));
  }
  return true;
}

// ---------------------------------------------------------------------
// warm-audit: repeated `cnaudit report --input world.cnb`.
//
// cnaudit runs each report in a process of its own, so each operation
// runs in a forked child: every one starts from the heap the set-up
// left, not from what the operations before it left behind. The child
// times its own work and sends its record back through a pipe.

const std::vector<std::string>& warm_counters() {
  static const std::vector<std::string> names = {
      "io.cnb.bytes_read", "io.cnb.sections_verified",
      "util.thread_pool.tasks_submitted", "util.thread_pool.idle_ns"};
  return names;
}

/// One `cnaudit report --input @p cnb` in the calling process: load,
/// grade, audit, render, and free the data set.
OpRecord warm_report(const fs::path& cnb, const btc::CoinbaseTagRegistry& registry) {
  OpRecord op;
  const NumberMap before = counter_snapshot();
  std::string text;
  std::uint64_t blocks = 0;
  const std::int64_t t0 = now_ns();
  {
    Scope root("bench.warm_report");
    std::optional<io::LoadResult<io::DatasetHandle>> loaded;
    {
      Scope span("io.open_dataset.cnb");
      loaded.emplace(io::open_dataset(cnb.string()));
    }
    if (*loaded) {
      AuditRun run = audit_loaded(*loaded->value, registry);
      add_stage_values(run.report, op.values);
      text = std::move(run.text);
      blocks = loaded->value->chain.size();
    }
    // cnaudit frees the data set before it exits; that is part of the
    // operation too.
    Scope span("io.release_dataset");
    loaded.reset();
  }
  op.ms = ms_between(t0, now_ns());
  op.items = 1.0;
  op.counts = counter_delta(before, counter_snapshot(), warm_counters());
  op.guard["io.cnb.bytes_read"] = op.counts["io.cnb.bytes_read"];
  op.guard["blocks"] = static_cast<double>(blocks);
  op.digests["report"] = text.empty() ? "" : hex64(fnv1a(text));
  return op;
}

/// The record a child sends: one tab-separated field per line, the spans
/// it recorded from row @p first_span on, and a closing "end" line.
std::string encode(const OpRecord& op, std::size_t first_span) {
  std::string out =
      "ms\t" + json_number(op.ms) + "\nitems\t" + json_number(op.items) + "\n";
  const auto add = [&out](const char* kind, const NumberMap& map) {
    for (const auto& [name, v] : map) out += kind + ("\t" + name) + "\t" + json_number(v) + "\n";
  };
  add("value", op.values);
  add("count", op.counts);
  add("guard", op.guard);
  for (const auto& [name, digest] : op.digests) out += "digest\t" + name + "\t" + digest + "\n";
  const auto& rows = g_tracer.rows();
  for (std::size_t i = first_span; i < rows.size(); ++i) {
    const SpanRow& row = rows[i];
    out += "span\t" + std::to_string(row.parent) + "\t" + g_tracer.names()[row.name] + "\t" +
           std::to_string(row.start_ns) + "\t" + std::to_string(row.end_ns) + "\n";
  }
  return out + "end\n";
}

/// Parses encode()'s output into @p op, appending its spans to the
/// tracer. False when the record is incomplete.
bool decode(const std::string& text, OpRecord& op) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) return false;
    std::vector<std::string> f;
    for (std::size_t at = pos; at <= eol;) {
      const std::size_t tab = std::min(text.find('\t', at), eol);
      f.push_back(text.substr(at, tab - at));
      at = tab + 1;
    }
    pos = eol + 1;
    const std::string& kind = f[0];
    if (kind == "end") return pos == text.size();
    if ((kind == "ms" || kind == "items") && f.size() == 2) {
      (kind == "ms" ? op.ms : op.items) = std::strtod(f[1].c_str(), nullptr);
    } else if (kind == "digest" && f.size() == 3) {
      op.digests[f[1]] = f[2];
    } else if ((kind == "value" || kind == "count" || kind == "guard") && f.size() == 3) {
      NumberMap& map = kind == "value" ? op.values : kind == "count" ? op.counts : op.guard;
      map[f[1]] = std::strtod(f[2].c_str(), nullptr);
    } else if (kind == "span" && f.size() == 5) {
      g_tracer.append(static_cast<std::uint32_t>(std::stoul(f[1])), f[2],
                      std::stoll(f[3]), std::stoll(f[4]));
    } else {
      return false;
    }
  }
  return false;
}

/// Runs warm_report in a forked child; nullopt when the child failed.
std::optional<OpRecord> forked_report(const fs::path& cnb,
                                      const btc::CoinbaseTagRegistry& registry,
                                      bool traced) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const std::size_t first_span = g_tracer.rows().size();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    g_tracer.active = traced;
    const std::string message = encode(warm_report(cnb, registry), first_span);
    std::size_t sent = 0;
    while (sent < message.size()) {
      const ssize_t n = write(fds[1], message.data() + sent, message.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      sent += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return std::nullopt;
  }
  std::string message;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      message.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  OpRecord op;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !decode(message, op)) {
    return std::nullopt;
  }
  op.traced = traced;
  return op;
}

void run_warm(std::uint64_t seed, double seconds, bool trace, const fs::path& work,
              Results& results) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const fs::path cnb = work / "world.cnb";
  if (!set_up(seed, trace, work, cnb, registry, results)) return;
  // Every report from the .cnb must equal the CSV-path report of set-up.
  const std::string reference = results.setups.front().digests["report"];
  // Hand the set-up's freed pages back, so that a child faults in fresh
  // ones as a new cnaudit process does.
  malloc_trim(0);

  const std::int64_t start = now_ns();
  for (std::int64_t i = 0;
       i < kMinWarmOps || ms_between(start, now_ns()) < seconds * 1e3; ++i) {
    g_tracer.op = i + 1;
    std::optional<OpRecord> op = forked_report(cnb, registry, trace && i % 2 == 0);
    results.check(op.has_value(),
                  "warm-audit: report " + std::to_string(i) + " did not complete");
    if (!op) return;
    results.check(op->digests["report"] == reference,
                  "warm-audit: report " + std::to_string(i) +
                      " differs from the CSV-path report of set-up");
    results.ops.push_back(std::move(*op));
  }
}

// ---------------------------------------------------------------------
// daemon-replay: `cnauditd --input world.cnb --checkpoint PATH` catch-up.

/// Benchmark-owned feed: forwards to the replay source up to a fixed
/// last sequence number, and timestamps every hand-off. A pull means the
/// daemon finished the previous event, so the gap between a hand-off and
/// the next pull is that event's service time; the daemon's stats()
/// counters, read at each pull, tell whether the event also sealed or
/// checkpointed.
class TimedSource : public io::StreamSource {
 public:
  TimedSource(io::StreamSource& inner, std::uint64_t last_seq)
      : inner_(&inner), last_seq_(last_seq) {}

  void attach(const daemon::AuditDaemon* daemon) { daemon_ = daemon; }

  io::StreamStatus next(io::StreamEvent& out, int deadline_ms) override {
    finish_pending();
    if (next_seq_ > last_seq_) return io::StreamStatus::kEnd;
    io::StreamStatus status;
    {
      Scope span("io.replay_next");
      status = inner_->next(out, deadline_ms);
    }
    if (status == io::StreamStatus::kOk) {
      next_seq_ = out.seq + 1;
      pending_ = true;
      pending_block_ = out.kind == io::StreamEvent::Kind::kBlock;
      if (pending_block_) txs += out.block->tx_count();
      const daemon::DaemonStats s = daemon_->stats();
      seals_ = s.seals;
      checkpoints_ = s.checkpoints_written;
      if (g_tracer.active) g_tracer.open("daemon.apply_event");
      handoff_ns_ = now_ns();
    }
    return status;
  }

  bool seek(std::uint64_t seq) override {
    if (seq > last_seq_ || !inner_->seek(seq)) return false;
    next_seq_ = seq + 1;
    return true;
  }
  std::uint64_t size() const override { return last_seq_; }

  /// Closes the last event once the daemon returned from run_to_end.
  void finish() { finish_pending(); }

  std::vector<std::pair<std::string, double>> blocks;  ///< (kind, service ms)
  std::vector<double> snapshot_us;
  std::uint64_t txs = 0;  ///< transactions in the blocks handed out

 private:
  void finish_pending() {
    if (!pending_) return;
    const double ms = ms_between(handoff_ns_, now_ns());
    pending_ = false;
    const daemon::DaemonStats s = daemon_->stats();
    std::string kind = "snapshot";
    if (pending_block_) {
      kind = s.checkpoints_written > checkpoints_ ? "checkpoint"
             : s.seals > seals_                  ? "seal"
                                                 : "apply";
      blocks.emplace_back(kind, ms);
    } else {
      snapshot_us.push_back(ms * 1e3);
    }
    if (g_tracer.active) g_tracer.close("daemon." + kind + "_event");
  }

  io::StreamSource* inner_;
  std::uint64_t last_seq_;
  std::uint64_t next_seq_ = 1;
  const daemon::AuditDaemon* daemon_ = nullptr;
  bool pending_ = false;
  bool pending_block_ = false;
  std::uint64_t seals_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::int64_t handoff_ns_ = 0;
};

daemon::DaemonConfig daemon_config(const fs::path& checkpoint) {
  daemon::DaemonConfig config;  // cnauditd defaults: seal 16, checkpoint 32
  config.checkpoint_path = checkpoint.string();
  config.threads = 1;
  return config;
}

core::FirstSeenFn first_seen_fn(const io::DatasetHandle& data) {
  if (!data.first_seen.has_value()) return {};
  const io::FirstSeenMap* map = &*data.first_seen;
  return [map](const btc::Txid& id) -> std::optional<SimTime> {
    const auto it = map->find(id);
    if (it == map->end()) return std::nullopt;
    return it->second;
  };
}

daemon::HttpResponse get_report(daemon::AuditDaemon& daemon) {
  return daemon.handle(daemon::HttpRequest{"GET", "/report"});
}

void run_daemon(std::uint64_t seed, double seconds, bool trace, const fs::path& work,
                Results& results) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const fs::path cnb = work / "world.cnb";
  const fs::path checkpoint = work / "daemon.ckpt";
  results.params["seal_every_blocks"] = 16;
  results.params["checkpoint_every_blocks"] = 32;
  // cnauditd loads the data set before it starts the daemon.
  std::optional<io::DatasetHandle> data;
  const auto load = [&] {
    Scope span("io.open_dataset.cnb");
    auto loaded = io::open_dataset(cnb.string());
    results.check(static_cast<bool>(loaded), "daemon-replay: .cnb load failed");
    if (!loaded) return false;
    data.emplace(std::move(*loaded.value));
    return true;
  };
  if (!set_up(seed, trace, work, cnb, registry, results, load)) return;
  const core::FirstSeenFn first_seen = first_seen_fn(*data);
  std::uint64_t last_seq = 0;
  {
    io::ReplaySource scan(*data);
    io::StreamEvent event;
    std::uint64_t blocks = 0;
    while (blocks < kWorldBlocks && scan.next(event, 0) == io::StreamStatus::kOk) {
      last_seq = event.seq;
      if (event.kind == io::StreamEvent::Kind::kBlock) ++blocks;
    }
    results.check(blocks == kWorldBlocks,
                  "daemon-replay: the world has only " + std::to_string(blocks) +
                      " blocks");
  }

  std::string reference;
  std::size_t blocks_seen = 0;
  const std::int64_t start = now_ns();
  for (std::int64_t i = 0; blocks_seen < kMinDaemonBlocks ||
                            ms_between(start, now_ns()) < seconds * 1e3;
       ++i) {
    OpRecord op;
    op.traced = trace && i % 2 == 0;
    g_tracer.op = i + 1;
    fs::remove(checkpoint);
    std::string body;
    {
      io::ReplaySource replay(*data);
      TimedSource feed(replay, last_seq);
      daemon::AuditDaemon daemon(feed, registry, first_seen,
                                 daemon_config(checkpoint));
      feed.attach(&daemon);
      daemon.recover();
      g_tracer.active = op.traced;
      io::StreamStatus status;
      const std::int64_t t0 = now_ns();
      {
        Scope root("daemon.run_to_end");
        status = daemon.run_to_end();
        feed.finish();
      }
      const std::int64_t t1 = now_ns();
      g_tracer.active = false;
      const daemon::DaemonStats stats = daemon.stats();
      results.check(status == io::StreamStatus::kEnd && daemon.healthy(),
                    "daemon-replay: replay " + std::to_string(i) + " ended with " +
                        io::to_string(status));
      op.ms = ms_between(t0, t1);
      op.items = static_cast<double>(feed.txs);
      op.blocks = std::move(feed.blocks);
      op.values["daemon.apply_snapshot_us"] = median_of(feed.snapshot_us);
      op.values["daemon.seals"] = static_cast<double>(stats.seals);
      op.values["daemon.checkpoints_written"] =
          static_cast<double>(stats.checkpoints_written);
      op.values["daemon.seals_shed"] = static_cast<double>(stats.seals_shed);
      op.values["daemon.read_failures"] = static_cast<double>(stats.read_failures);
      op.values["daemon.checkpoint_bytes"] =
          static_cast<double>(fs::exists(checkpoint) ? fs::file_size(checkpoint) : 0);
      blocks_seen += op.blocks.size();

      // cnauditd seals once more when the feed drains, then serves it.
      daemon.seal_report_json();
      const daemon::HttpResponse resp = get_report(daemon);
      body = resp.body;
      results.check(resp.status == 200, "daemon-replay: GET /report returned " +
                                            std::to_string(resp.status));
      std::vector<double> query_us;
      for (int q = 0; q < kQueriesPerReplay; ++q) {
        const std::int64_t q0 = now_ns();
        const daemon::HttpResponse r = get_report(daemon);
        query_us.push_back(ms_between(q0, now_ns()) * 1e3);
        if (r.body != body) {
          results.check(false, "daemon-replay: /report body changed between queries");
          break;
        }
      }
      op.values["daemon.query_p50_us"] = median_of(query_us);
      op.values["daemon.report_bytes"] = static_cast<double>(body.size());
      op.guard["daemon.seals"] = static_cast<double>(stats.seals);
      op.guard["daemon.checkpoints_written"] =
          static_cast<double>(stats.checkpoints_written);
      op.guard["daemon.checkpoint_bytes"] = op.values["daemon.checkpoint_bytes"];
      op.guard["blocks"] = static_cast<double>(stats.blocks_applied);
      op.guard["txs"] = op.items;
    }

    // A restart from the last checkpoint must converge on the same body.
    {
      io::ReplaySource replay(*data);
      TimedSource feed(replay, last_seq);
      daemon::AuditDaemon daemon(feed, registry, first_seen,
                                 daemon_config(checkpoint));
      feed.attach(&daemon);
      const std::int64_t t0 = now_ns();
      std::string message;
      const bool recovered = daemon.recover(&message);
      op.values["daemon.recover_ms"] = ms_between(t0, now_ns());
      results.check(recovered && daemon.stats().recovered_seq > 0,
                    "daemon-replay: recover() did not resume: " + message);
      daemon.run_to_end();
      daemon.seal_report_json();
      results.check(get_report(daemon).body == body,
                    "daemon-replay: /report after recover() differs from the "
                    "uninterrupted replay");
    }
    op.digests["report"] = hex64(fnv1a(body));
    if (i == 0) {
      reference = body;
    } else {
      results.check(body == reference,
                    "daemon-replay: /report differs between replays");
    }
    results.ops.push_back(std::move(op));
  }
  fs::remove(checkpoint);
}

// ---------------------------------------------------------------------
// JSON output.

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

template <typename Map, typename Fn>
void json_map(std::ostream& out, const Map& map, Fn value) {
  out << '{';
  bool first = true;
  for (const auto& [k, v] : map) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(k) << "\":" << value(v);
  }
  out << '}';
}

void write_json(std::ostream& out, const std::string& workload, std::uint64_t seed,
                double seconds, bool trace, const Results& r) {
  const auto num = [](double v) { return json_number(v); };
  const auto str = [](const std::string& v) { return '"' + json_escape(v) + '"'; };
  // The larger of this process and its largest child (a warm-audit
  // operation).
  struct rusage usage {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &usage);
  getrusage(RUSAGE_CHILDREN, &children);
  usage.ru_maxrss = std::max(usage.ru_maxrss, children.ru_maxrss);
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"seconds\":" << json_number(seconds) << ",\"trace\":" << (trace ? 1 : 0)
      << ",\"build_type\":\"" << CNBENCH_BUILD_TYPE << "\""
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"peak_rss_mb\":" << json_number(static_cast<double>(usage.ru_maxrss) / 1024.0)
      << ",\"params\":";
  json_map(out, r.params, num);
  out << ",\"setups\":[";
  for (std::size_t i = 0; i < r.setups.size(); ++i) {
    const SetupRecord& setup = r.setups[i];
    out << (i ? ",\n" : "\n") << "{\"s\":" << json_number(setup.seconds)
        << ",\"values\":";
    json_map(out, setup.values, num);
    out << ",\"counts\":";
    json_map(out, setup.counts, num);
    out << ",\"digests\":";
    json_map(out, setup.digests, str);
    out << '}';
  }
  out << "],\n\"attempted\":" << r.attempted << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    out << (i ? "," : "") << str(r.failures[i]);
  }
  out << "],\"ops\":[";
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const OpRecord& op = r.ops[i];
    out << (i ? ",\n" : "\n") << "{\"ms\":" << json_number(op.ms)
        << ",\"items\":" << json_number(op.items)

        << ",\"traced\":" << (op.traced ? "true" : "false") << ",\"values\":";
    json_map(out, op.values, num);
    out << ",\"counts\":";
    json_map(out, op.counts, num);
    out << ",\"guard\":";
    json_map(out, op.guard, num);
    out << ",\"digests\":";
    json_map(out, op.digests, str);
    out << ",\"blocks\":[";
    for (std::size_t b = 0; b < op.blocks.size(); ++b) {
      out << (b ? "," : "") << "[\"" << op.blocks[b].first << "\","
          << json_number(op.blocks[b].second) << ']';
    }
    out << "]}";
  }
  out << "],\n\"span_names\":[";
  const auto& names = g_tracer.names();
  for (std::size_t i = 0; i < names.size(); ++i) out << (i ? "," : "") << str(names[i]);
  // Rows: [id, parent, op, name index, start ns, end ns].
  out << "],\n\"spans\":[";
  const auto& rows = g_tracer.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SpanRow& s = rows[i];
    out << (i ? ",\n" : "") << '[' << s.id << ',' << s.parent << ',' << s.op << ','
        << s.name << ',' << s.start_ns << ',' << s.end_ns << ']';
  }
  out << "]}\n";
}

int usage() {
  std::fprintf(stderr,
               "usage: cnbench --workload warm-audit|daemon-replay\n"
               "               --seed N --seconds S --trace 0|1\n"
               "               --work-dir DIR --out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return usage();
  for (const char* required : {"workload", "seed", "seconds", "trace", "work-dir", "out"}) {
    if (args.count(required) == 0) return usage();
  }
  const std::string workload = args["workload"];
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return usage();
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) return usage();
  if (args["trace"] != "0" && args["trace"] != "1") return usage();
  const bool trace = args["trace"] == "1";
  const fs::path work = args["work-dir"];
  fs::create_directories(work);

  Results results;
  if (workload == "warm-audit") {
    run_warm(seed, seconds, trace, work, results);
  } else if (workload == "daemon-replay") {
    run_daemon(seed, seconds, trace, work, results);
  } else {
    std::fprintf(stderr, "cnbench: unknown workload '%s'\n", workload.c_str());
    return usage();
  }

  std::ofstream out(args["out"], std::ios::binary);
  write_json(out, workload, seed, seconds, trace, results);
  out.close();
  if (!out) {
    std::fprintf(stderr, "cnbench: could not write %s\n", args["out"].c_str());
    return 1;
  }
  return 0;
}
