// cninject — deterministic fault injection for exported data sets.
//
//   cninject --input PATH --output PATH [--seed N] [--rate F]
//            [--kinds LIST] [--gaps N] [--gap-width T] [--truncate 0|1]
//            [--sections N]
//
// Copies the data set at --input to --output while injecting faults
// drawn from a seeded RNG (see src/testing/fault_injector.hpp), then
// prints the injection log: one line per fault with the output file and
// line it landed on. The same --seed always produces the same faults,
// so a logged failure is replayable with nothing but the original data
// set and the seed.
//
// When --input is a CSV export directory, row faults apply:
//   --kinds   comma-separated subset of corrupt,drop,dup,swap
//             (default: all four)
//   --rate    per-row fault probability (default 0.01)
//   --gaps    observer-outage windows to delete from snapshots.csv
//   --truncate 1 cuts each row file mid-record at a random point
//
// When --input is a CNB1 binary file (io/cnb.hpp), the section-
// corruption mode runs instead:
//   --sections N  flip a payload byte in N distinct sections (default 1;
//                 each logged with the directory index a strict
//                 io::read_cnb pinpoints)
//   --truncate 1  additionally cut the file mid-section
//
// --in/--out are historical aliases for --input/--output.
//
// Typical round trip:
//   cnaudit simulate --dataset C --out clean
//   cninject --input clean --output dirty --seed 7 --rate 0.02 --gaps 2
//   cnaudit report --input dirty --policy lenient  # loads, masks gaps
//   cnaudit report --input dirty --policy strict   # pinpoints a fault
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "io/dataset_source.hpp"
#include "testing/fault_injector.hpp"
#include "util/strings.hpp"

namespace {

using namespace cn;

int usage() {
  std::fprintf(stderr,
               "usage: cninject --input PATH --output PATH [--seed N] [--rate F]\n"
               "                [--kinds corrupt,drop,dup,swap] [--gaps N]\n"
               "                [--gap-width T] [--truncate 0|1] [--sections N]\n"
               "CSV directories get row faults; .cnb files get the\n"
               "section-corruption mode (--sections payload-byte flips)\n");
  return 2;
}

/// Reads numeric option @p key through @p parse into @p out, which is
/// left alone when the option is absent; false, after a message naming
/// the option, when its value does not parse whole.
template <typename T, typename Parse>
bool read_number(const std::map<std::string, std::string>& args,
                 const char* key, Parse parse, T& out) {
  const auto it = args.find(key);
  if (it == args.end()) return true;
  const auto v = parse(it->second);
  if (!v) {
    std::fprintf(stderr, "cninject: --%s '%s' is not a valid number\n", key,
                 it->second.c_str());
    return false;
  }
  out = static_cast<T>(*v);
  return true;
}

std::optional<std::vector<testing::FaultKind>> parse_kinds(const std::string& s) {
  std::vector<testing::FaultKind> kinds;
  std::string cur;
  const auto flush = [&]() -> bool {
    if (cur.empty()) return true;
    if (cur == "corrupt") kinds.push_back(testing::FaultKind::kCorruptField);
    else if (cur == "drop") kinds.push_back(testing::FaultKind::kDropRow);
    else if (cur == "dup") kinds.push_back(testing::FaultKind::kDuplicateRow);
    else if (cur == "swap") kinds.push_back(testing::FaultKind::kSwapRows);
    else return false;
    cur.clear();
    return true;
  };
  for (char c : s) {
    if (c == ',') {
      if (!flush()) return std::nullopt;
    } else {
      cur.push_back(c);
    }
  }
  if (!flush()) return std::nullopt;
  return kinds;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    args[key.substr(2)] = argv[++i];
  }
  if (args.count("input")) args["in"] = args["input"];
  if (args.count("output")) args["out"] = args["output"];
  if (!args.count("in") || !args.count("out")) return usage();

  const auto u64 = [](const std::string& s) { return util::parse_u64(s); };
  const auto real = [](const std::string& s) { return util::parse_double(s); };
  const auto sim_time = [](const std::string& s) {
    return util::parse_u64(s, std::numeric_limits<SimTime>::max());
  };
  std::uint64_t seed = 42;
  testing::FaultOptions options;
  if (!read_number(args, "seed", u64, seed) ||
      !read_number(args, "rate", real, options.row_corruption_rate) ||
      !read_number(args, "gaps", u64, options.snapshot_gaps) ||
      !read_number(args, "gap-width", sim_time, options.gap_width) ||
      !read_number(args, "sections", u64, options.cnb_sections)) {
    return 2;
  }
  if (args.count("kinds")) {
    const auto kinds = parse_kinds(args["kinds"]);
    if (!kinds) {
      std::fprintf(stderr, "cninject: bad --kinds '%s'\n", args["kinds"].c_str());
      return usage();
    }
    options.kinds = *kinds;
  }
  if (args.count("truncate")) options.truncate_tail = args["truncate"] == "1";

  testing::FaultInjector injector(seed);
  testing::InjectionLog log;
  if (io::sniff_dataset_format(args["in"]) == io::DatasetFormat::kCnb) {
    if (!injector.inject_cnb_file(args["in"], args["out"], options, log)) {
      std::fprintf(stderr, "cninject: could not read CNB1 file %s\n",
                   args["in"].c_str());
      return 1;
    }
  } else {
    log = injector.inject_dataset(args["in"], args["out"], options);
  }
  log.seed = seed;

  std::printf("injected %zu fault(s) with seed %llu (%zu strict-detectable)\n",
              log.faults.size(), static_cast<unsigned long long>(seed),
              log.detectable().size());
  for (const auto& f : log.faults) {
    if (f.kind == testing::FaultKind::kDeleteSnapshotWindow) {
      std::printf("  %-22s %s:%zu  %s (gap %lld..%lld)\n", to_string(f.kind),
                  f.file.c_str(), f.line, f.detail.c_str(),
                  static_cast<long long>(f.gap_from),
                  static_cast<long long>(f.gap_to));
    } else {
      std::printf("  %-22s %s:%zu  %s%s\n", to_string(f.kind), f.file.c_str(),
                  f.line, f.detail.c_str(), f.detectable ? "  [detectable]" : "");
    }
  }
  return 0;
}
