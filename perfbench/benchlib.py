"""Helpers shared by run.py and compare.py: percentiles, span self time,
and the parent-vs-change comparison rule. Tested by test_benchlib.py."""

import math
import statistics

# A tail percentile is reported only with at least this many samples
# beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10
# A gain needs the change to win this share of parent/change pairs ...
WIN_SHARE = 0.9
# ... over at least this many pairs (choosing-metrics guide, section 8).
MIN_PAIRS = 10


def median(values):
    return statistics.median(values)


def nearest_rank(values, p):
    """The p-th percentile by the nearest-rank method: the smallest sample
    with at least p percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples ranked above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values, p):
    """The p-th percentile of values, or None when fewer than MIN_BEYOND
    samples lie beyond it: a tail is reported only with that support."""
    if samples_beyond(len(values), p) < MIN_BEYOND:
        return None
    return nearest_rank(values, p)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else math.inf


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover (overlapping children are counted once).

    spans: iterable of (id, parent, start, end). Returns {id: self time}.
    """
    children = {}
    bounds = {}
    for sid, parent, start, end in spans:
        bounds[sid] = (start, end)
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, [])):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def layer_self_times(spans, names):
    """Per-operation self time of each layer, the first component of a
    span's name.

    spans: rows [id, parent, op, name index, start, end]; names: the name
    table. Returns {op: {layer: self time}}.
    """
    selfs = self_times((s[0], s[1], s[4], s[5]) for s in spans)
    out = {}
    for s in spans:
        per_op = out.setdefault(s[2], {})
        layer = names[s[3]].split(".", 1)[0]
        per_op[layer] = per_op.get(layer, 0) + selfs[s[0]]
    return out


def compare(parent, change, better, bound):
    """Judge one workload/metric from per-run values of both sides.

    parent, change: lists of per-run values, paired by index. better:
    "lower" or "higher". bound: the share of the parent's median by which
    the change may be worse before it counts as a regression.

    Returns a dict with the verdict ("improved", "regressed", "unresolved"
    or "within-bound") and the figures behind it.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_med, c_med = median(parent), median(change)
    p_q1, p_q3 = quartiles(parent)
    p_iqr = p_q3 - p_q1
    worse_share = sign * (c_med - p_med) / abs(p_med) if p_med else math.inf
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    gain = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) < 0 and abs(c_med - p_med) > p_iqr)
    wide = spread(parent) > bound
    if gain and (not wide or all_better):
        verdict = "improved"
    elif wide and not all_better:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regressed"
    else:
        verdict = "within-bound"
    return {
        "verdict": verdict,
        "pairs": len(pairs),
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": p_iqr,
        "parent_spread": spread(parent),
        "worse_share": worse_share,
    }
