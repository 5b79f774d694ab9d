#!/usr/bin/env python3
"""End-to-end benchmark of the chain-neutrality pipeline (README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the cnbench harness from source, runs one
workload for S seconds, checks every output, and prints each metric by
name with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1). A result file
with provenance goes to .bench_out/results/; the exit code is non-zero
when any check failed.
"""

import argparse
import collections
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import benchlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("warm-audit", "daemon-replay")
# The fixed tail percentile of each workload's latency samples; every
# run holds enough samples for ten beyond it (cnbench's sample floors).
# One daemon block in 16 seals, and a seal's cost follows the world's
# size, so the daemon's tail is taken just below the seal blocks.
TAIL_PERCENTILE = {"warm-audit": 90, "daemon-replay": 90}

# Metric tables; test_benchlib.py checks they match BENCHMARK.json.
END_TO_END = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
STAGES = ("build", "quality-mask", "norm-stats", "pool-tests", "screens",
          "darkfee", "neutrality", "withholding")
# Per-layer metrics of the set-up (the first-use path), as medians over
# its repetitions. Timings are summed span durations.
SETUP_SPANS = {
    "sim.run_ms": "sim.engine_run",
    "io.csv_export_ms": "io.csv_export",
    "io.csv_open_ms": "io.open_dataset.csv",
    "core.build_derived_ms": "core.build_derived",
    "io.cnb_write_ms": "io.write_cnb",
}
SETUP_COUNTS = {
    "sim.events": "sim.engine.events",
    "node.mempool.accepted": "node.mempool.accepted",
    "node.mempool.evicted": "node.mempool.evicted",
    "node.mempool.replaced": "node.mempool.replaced",
    "io.ingest.rows_read": "io.ingest.rows_read",
}
SETUP_VALUES = {"sim.txs_issued": "count", "io.csv_bytes_written": "bytes"}

# Per-layer metrics of the timed operations, as medians over traced ones.
OP_SPANS = {
    "io.cnb_open_ms": "io.open_dataset.cnb",
    "io.release_ms": "io.release_dataset",
    "core.quality_ms": "core.assess_data_quality",
    "core.audit_ms": "core.run_full_audit",
    "core.render_ms": "core.print_audit_report",
}
# obs counter deltas: (counter, scale, unit).
OP_COUNTS = {
    "io.cnb.bytes_read": ("io.cnb.bytes_read", 1.0, "bytes"),
    "io.cnb.sections_verified": ("io.cnb.sections_verified", 1.0, "count"),
    "util.thread_pool.tasks_submitted": ("util.thread_pool.tasks_submitted", 1.0, "count"),
    "util.thread_pool.idle_ms": ("util.thread_pool.idle_ns", 1e-6, "ms"),
}
OP_VALUES = {
    **{"core.stage.%s_ms" % s: "ms" for s in STAGES},
    "daemon.apply_snapshot_us": "us",
    "daemon.checkpoint_bytes": "bytes",
    "daemon.report_bytes": "bytes",
    "daemon.seals": "count",
    "daemon.checkpoints_written": "count",
    "daemon.seals_shed": "count",
    "daemon.read_failures": "count",
    "daemon.recover_ms": "ms",
    "daemon.query_p50_us": "us",
}
# Median service time of daemon block events of each kind.
BLOCK_METRICS = {
    "daemon.apply_block_ms": "apply",
    "daemon.seal_block_ms": "seal",
    "daemon.checkpoint_block_ms": "checkpoint",
}
SELF_LAYERS = ("sim", "io", "core", "daemon")
PER_LAYER = {
    **{name: "ms" for name in SETUP_SPANS},
    **{name: "count" for name in SETUP_COUNTS},
    **SETUP_VALUES,
    "sim.issued_per_s": "1/s",
    **{name: "ms" for name in OP_SPANS},
    **{name: unit for name, (_, _, unit) in OP_COUNTS.items()},
    **OP_VALUES,
    **{name: "ms" for name in BLOCK_METRICS},
    **{"trace.setup_self.%s_ms" % layer: "ms" for layer in SELF_LAYERS},
    **{"trace.self.%s_ms" % layer: "ms" for layer in SELF_LAYERS},
    "trace.spans_per_op": "count",
    "trace.overhead_share": "share",
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds cnbench; returns its path. Exits non-zero,
    printing no result, when the sources are missing or do not build."""
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "perfbench-build.log")
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "--target", "cnbench", "-j", jobs]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in (configure, compile_):
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); full log in %s" % (" ".join(cmd[:2]), log_path))
    return os.path.join(build_dir, "cnbench")


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def span_ms(raw):
    """{operation id: {span name: summed duration ms}}. Operation i has
    id i + 1; set-up repetition i has id -(i + 1)."""
    names = raw["span_names"]
    out = {}
    for _, _, op, name, start, end in raw["spans"]:
        per_op = out.setdefault(op, {})
        per_op[names[name]] = per_op.get(names[name], 0.0) + (end - start) / 1e6
    return out


def end_to_end(raw, workload, failures):
    ops = [o for o in raw["ops"] if not o["traced"]]
    if workload == "daemon-replay":
        latencies = [ms for o in ops for _, ms in o["blocks"]]
    else:
        latencies = [o["ms"] for o in ops]
    p = TAIL_PERCENTILE[workload]
    tail = benchlib.tail(latencies, p)
    if tail is None:
        failures.append("only %d samples: p%d has fewer than %d beyond it"
                        % (len(latencies), p, benchlib.MIN_BEYOND))
        tail = benchlib.nearest_rank(latencies, p)
    metrics = {
        "op_p50_ms": benchlib.median(latencies),
        "op_tail_ms": tail,
        "throughput_per_s": sum(o["items"] for o in ops) / sum(o["ms"] / 1e3 for o in ops),
        "setup_s": benchlib.median([s["s"] for s in raw["setups"]]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    samples = {
        "op_p50_ms": len(latencies),
        "op_tail_ms": {"percentile": p, "samples": len(latencies),
                       "beyond": benchlib.samples_beyond(len(latencies), p)},
        "throughput_per_s": len(ops),
        "setup_s": len(raw["setups"]),
    }
    return metrics, samples


def per_layer(raw):
    med = lambda values: benchlib.median(values) if values else 0.0
    setups = raw["setups"]
    setup_ids = [-(i + 1) for i in range(len(setups))]
    ops = [o for o in raw["ops"] if o["traced"]]
    op_ids = [i + 1 for i, o in enumerate(raw["ops"]) if o["traced"]]
    spans = span_ms(raw)
    metrics = {}
    for metric, span in SETUP_SPANS.items():
        metrics[metric] = med([spans.get(i, {}).get(span, 0.0) for i in setup_ids])
    for metric, counter in SETUP_COUNTS.items():
        metrics[metric] = med([s["counts"].get(counter, 0.0) for s in setups])
    for metric in SETUP_VALUES:
        metrics[metric] = med([s["values"].get(metric, 0.0) for s in setups])
    run_s = metrics["sim.run_ms"] / 1e3
    metrics["sim.issued_per_s"] = metrics["sim.txs_issued"] / run_s if run_s else 0.0
    for metric, span in OP_SPANS.items():
        metrics[metric] = med([spans.get(i, {}).get(span, 0.0) for i in op_ids])
    for metric, (counter, scale, _) in OP_COUNTS.items():
        metrics[metric] = med([o["counts"].get(counter, 0.0) * scale for o in ops])
    for metric in OP_VALUES:
        metrics[metric] = med([o["values"].get(metric, 0.0) for o in ops])
    for metric, kind in BLOCK_METRICS.items():
        metrics[metric] = med([ms for o in ops for k, ms in o["blocks"] if k == kind])
    selfs = benchlib.layer_self_times(raw["spans"], raw["span_names"])
    for layer in SELF_LAYERS:
        metrics["trace.setup_self.%s_ms" % layer] = med(
            [selfs.get(i, {}).get(layer, 0) / 1e6 for i in setup_ids])
        metrics["trace.self.%s_ms" % layer] = med(
            [selfs.get(i, {}).get(layer, 0) / 1e6 for i in op_ids])
    spans_per_op = collections.Counter(s[2] for s in raw["spans"])
    metrics["trace.spans_per_op"] = med([spans_per_op[i] for i in op_ids])
    untraced = [o["ms"] for o in raw["ops"] if not o["traced"]]
    traced = [o["ms"] for o in ops]
    metrics["trace.overhead_share"] = (
        med(traced) / med(untraced) - 1.0 if traced and untraced else 0.0)
    return metrics


def determinism_guard(raw, workload, seed, digest, failures):
    """Counts and digests must repeat exactly: across the set-up
    repetitions and operations of this run, and across runs with the same
    seed and code. Returns the record compared."""
    if not raw["ops"]:
        failures.append("no operation completed")
        return None
    records = [("set-up %d" % i, {**s["counts"], **s["values"], **s["digests"]})
               for i, s in enumerate(raw["setups"])]
    ops = [("operation %d" % i, {**o["guard"], **o["digests"]})
           for i, o in enumerate(raw["ops"])]
    for group in (records, ops):
        for where, record in group[1:]:
            for name, value in group[0][1].items():
                if record.get(name) != value:
                    failures.append("determinism: %s changed in %s (%s -> %s)"
                                    % (name, where, value, record.get(name)))
    first = {"setup": records[0][1], "operation": ops[0][1]}
    path = os.path.join(OUT_DIR, "guard", "%s-seed%d-%s.json" % (workload, seed, digest[:16]))
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        for key in first:
            for name in sorted(set(previous[key]) | set(first[key])):
                if previous[key].get(name) != first[key].get(name):
                    failures.append("determinism: %s differs from an earlier run with "
                                    "seed %d (%s -> %s)" % (name, seed, previous[key].get(name),
                                                            first[key].get(name)))
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(first, f, indent=1, sort_keys=True)
    return first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    cnbench = build()
    digest = source_digest()
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    tag = "%s-seed%d-trace%d-%s-%d" % (args.workload, args.seed, args.trace, stamp,
                                        os.getpid())
    work_dir = os.path.join(OUT_DIR, "work", tag)
    raw_path = os.path.join(OUT_DIR, "work", tag + ".json")
    cmd = [cnbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--out", raw_path]
    try:
        try:
            proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("cnbench did not finish within %d s" % RUN_TIMEOUT_S)
        if proc.returncode != 0:
            fail("cnbench exited with %d" % proc.returncode)
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.exists(raw_path) and not args.trace:
            os.remove(raw_path)

    failures = list(raw["failures"])
    attempted = raw["attempted"]
    guard = determinism_guard(raw, args.workload, args.seed, digest, failures)
    attempted += 1
    e2e, samples, layers = {}, {}, {}
    if raw["ops"] and args.trace:
        layers = per_layer(raw)
    elif raw["ops"]:
        e2e, samples = end_to_end(raw, args.workload, failures)
        attempted += 1
    failed = len(failures)
    correct = failed == 0

    provenance = {
        "git_commit": git_commit(),
        "source_digest": digest,
        "build_type": raw["build_type"],
        "hardware_threads": raw["hardware_threads"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": {
            "operations": len(raw["ops"]),
            "traced_operations": sum(1 for o in raw["ops"] if o["traced"]),
            "setup": len(raw["setups"]),
        },
        "samples": samples,
        "params": raw["params"],
    }
    result = {"provenance": provenance, "end_to_end": e2e, "per_layer": layers,
              "failed_share": failed / attempted, "failures": failures, "guard": guard}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", tag + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    if args.trace:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        # Only the latest trace per workload is kept: one is tens of MB.
        os.replace(raw_path, os.path.join(OUT_DIR, "traces", args.workload + ".json"))

    for message in failures:
        print("FAILED: " + message)
    print("# %s seed %d, %d operations, %s build, %d hardware threads, commit %s"
          % (args.workload, args.seed, len(raw["ops"]), raw["build_type"],
             raw["hardware_threads"], provenance["git_commit"] or "unknown"))
    shown = dict(e2e)
    shown.update(layers)
    units = dict(END_TO_END, **PER_LAYER)
    for name in sorted(shown):
        print("%-36s %18.6f %s" % (name, shown[name], units[name]))
    print("%-36s %18.6f %s" % ("failed_share", failed / attempted, "share"))

    table = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
