#!/usr/bin/env python3
"""Parent-vs-change comparison of benchmark results.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by run.py
(.bench_out/results/ of the parent's and of the change's checkout).
Untraced runs are paired by seed; run the two sides alternately, at
least ten seeds each, with the same --seconds. For every workload and
end-to-end metric it prints each side's median and quartiles and one
verdict:

  improved      the change wins >= 9/10 of the pairs and the medians
                differ by more than the parent's interquartile range;
  regressed     the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
  unresolved    the parent's own spread is wider than the bound, and not
                every change run beats every parent run;
  within-bound  none of the above.

Exits 1 when any metric regressed.
"""

import glob
import json
import os
import sys

import benchlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {seed: [end-to-end metric dicts in run order]}}."""
    runs = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            result = json.load(f)
        prov = result["provenance"]
        if prov["trace"] == 0 and result["end_to_end"]:
            runs.append((path, prov["workload"], prov["seed"], result["end_to_end"]))
    out = {}
    for _, workload, seed, metrics in sorted(runs):
        out.setdefault(workload, {}).setdefault(seed, []).append(metrics)
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(argv[1]), load(argv[2])
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not seeds:
            print("%s: no seed measured on both sides" % workload)
            continue
        print("%s: %d seed(s) on both sides" % (workload, len(seeds)))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals, c_vals = [], []
            for seed in seeds:
                for p, c in zip(parent[workload][seed], change[workload][seed]):
                    p_vals.append(p[name])
                    c_vals.append(c[name])
            r = benchlib.compare(p_vals, c_vals, metric["better"], metric["bound"])
            p_q1, p_q3 = benchlib.quartiles(p_vals)
            c_q1, c_q3 = benchlib.quartiles(c_vals)
            print("  %-16s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
                  "wins %d/%d  worse %+.1f%% (bound %.0f%%)  %s"
                  % (name, r["parent_median"], p_q1, p_q3, r["change_median"], c_q1,
                     c_q3, r["wins"], r["pairs"], 100 * r["worse_share"],
                     100 * metric["bound"], r["verdict"]))
            regressed |= r["verdict"] == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
