// cnconvert — convert data sets between the CSV export layout and the
// CNB1 binary columnar format (io/cnb.hpp).
//
//   cnconvert --input PATH --output PATH [--format csv|cnb]
//             [--policy strict|lenient] [--no-derived] [--threads N]
//
// The input format is sniffed (directory = CSV, magic/.cnb = CNB1); the
// output format defaults to cnb unless --output names a directory-style
// path, and --format overrides it. Converting CSV -> cnb embeds the
// derived core::AuditDataset columns (built under the paper registry
// and keyed by its fingerprint) so a later `cnaudit report` can skip
// the dataset build stage; --no-derived writes the relational sections
// only. Converting -> csv writes the standard export directory
// (blocks/txs/inputs/outputs + any snapshot/first-seen series the
// source carried). Both directions are atomic: bytes land in temporary
// files renamed into place only after every write succeeded.
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "btc/coinbase_tags.hpp"
#include "core/audit_dataset.hpp"
#include "core/wallet_inference.hpp"
#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "io/dataset_source.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cn;

int usage() {
  std::fprintf(stderr,
               "usage: cnconvert --input PATH --output PATH [--format csv|cnb]\n"
               "                 [--policy strict|lenient] [--no-derived]\n"
               "                 [--threads N]\n"
               "converts a CSV export directory to a CNB1 file or back;\n"
               "--no-derived skips embedding the derived audit columns\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool no_derived = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--no-derived") {
      no_derived = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    args[key.substr(2)] = argv[++i];
  }
  if (!args.count("input") || !args.count("output")) return usage();
  const std::string& in_path = args["input"];
  const std::string& out_path = args["output"];

  io::LoadPolicy policy = io::LoadPolicy::kStrict;
  if (args.count("policy")) {
    if (args["policy"] == "lenient") {
      policy = io::LoadPolicy::kLenient;
    } else if (args["policy"] != "strict") {
      std::fprintf(stderr, "cnconvert: unknown --policy '%s'\n",
                   args["policy"].c_str());
      return usage();
    }
  }

  // Output format: explicit flag first, else cnb unless the target looks
  // like (or already is) a directory.
  io::DatasetFormat out_format = io::DatasetFormat::kCnb;
  if (args.count("format")) {
    const auto parsed = io::parse_dataset_format(args["format"]);
    if (!parsed) {
      std::fprintf(stderr, "cnconvert: unknown --format '%s' (want csv|cnb)\n",
                   args["format"].c_str());
      return usage();
    }
    out_format = *parsed;
  } else if (const auto sniffed = io::sniff_dataset_format(out_path);
             sniffed == io::DatasetFormat::kCsv) {
    out_format = io::DatasetFormat::kCsv;
  }

  // Lanes for the derived-column build; 0 = hardware concurrency.
  std::uint64_t threads = 0;
  if (args.count("threads")) {
    const auto parsed = util::parse_u64(args["threads"], util::kMaxThreads);
    if (!parsed) {
      std::fprintf(stderr,
                   "cnconvert: --threads '%s' is not an unsigned integer <= %u\n",
                   args["threads"].c_str(), util::kMaxThreads);
      return 2;
    }
    threads = *parsed;
  }

  auto result = io::open_dataset(in_path, policy);
  if (!result.report.clean()) {
    std::fprintf(stderr, "cnconvert: %s: %s\n", in_path.c_str(),
                 result.report.summary().c_str());
  }
  if (!result) {
    std::fprintf(stderr, "cnconvert: failed to load a data set from %s\n",
                 in_path.c_str());
    return 1;
  }
  io::DatasetHandle& data = *result;
  std::printf("loaded %zu blocks, %llu transactions from %s (%s)\n",
              data.chain.size(),
              static_cast<unsigned long long>(data.chain.total_tx_count()),
              in_path.c_str(), io::to_string(data.format));

  std::string error;
  if (out_format == io::DatasetFormat::kCsv) {
    if (!io::export_chain(data.chain, out_path, &error)) {
      std::fprintf(stderr, "cnconvert: %s\n", error.c_str());
      return 1;
    }
    if (data.snapshots.has_value() &&
        !io::export_snapshots(*data.snapshots, out_path + "/snapshots.csv",
                              &error)) {
      std::fprintf(stderr, "cnconvert: %s\n", error.c_str());
      return 1;
    }
    if (data.first_seen.has_value() &&
        !io::export_first_seen(*data.first_seen, out_path + "/first_seen.csv",
                               &error)) {
      std::fprintf(stderr, "cnconvert: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote CSV export directory %s\n", out_path.c_str());
    return 0;
  }

  if (no_derived) {
    data.audit_dataset.reset();
    data.registry_fingerprint = 0;
  } else if (!data.audit_dataset.has_value()) {
    // Build the derived columns once at conversion time so every later
    // load skips the audit pipeline's dominant stage.
    const auto registry = btc::CoinbaseTagRegistry::paper_registry();
    const core::PoolAttribution attribution(data.chain, registry);
    util::ThreadPool workers(static_cast<unsigned>(threads));
    data.audit_dataset = core::AuditDataset::build(
        data.chain, attribution, workers,
        data.addresses.size() > 0 ? &data.addresses : nullptr);
    data.registry_fingerprint = registry.fingerprint();
  }

  if (!io::write_cnb(data, out_path, &error)) {
    std::fprintf(stderr, "cnconvert: %s\n", error.c_str());
    return 1;
  }
  const auto info = io::inspect_cnb(out_path, &error);
  if (!info) {
    std::fprintf(stderr, "cnconvert: wrote %s but cannot inspect it: %s\n",
                 out_path.c_str(), error.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu section(s), %llu bytes%s\n", out_path.c_str(),
              info->sections.size(),
              static_cast<unsigned long long>(info->file_size),
              (info->flags & io::kCnbFlagAuditDataset) != 0
                  ? " (derived audit columns embedded)"
                  : "");
  return 0;
}
