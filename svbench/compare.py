#!/usr/bin/env python3
"""Compare two sets of svbench runs, metric by metric, against the bounds in
BENCHMARK.json.

    compare.py --base A1.json A2.json ... --change B1.json B2.json ...
    compare.py --same --base A1.json ... --change B1.json ...

Each file is one svbench --json report (one or more workloads). Runs pair
up in the order given, base[i] with change[i]; take them alternately
(base, change, change, base, ...) so drift on the host hits both sides.
For every workload in both sets and every end_to_end metric of
BENCHMARK.json it prints each side's median and quartiles, the fraction of
pairs the change wins (ties count for neither side), and a verdict:

  regressed   the change's median is worse than the base's by more than the
              metric's bound, or a change run failed a correctness check
  improved    the change wins at least 9 in 10 pairs, and the medians differ
              by more than the base runs' interquartile range
  unresolved  the base runs' spread (interquartile range over median) is
              wider than the bound, and not every change run beats every
              base run
  unchanged   otherwise

--same checks that two sets of runs of one commit agree: every verdict must
be "unchanged", and the spread test uses the wider of the two sets.

Exit codes: 0 nothing regressed (with --same: everything unchanged); 1
otherwise; 2 bad input.
"""
import argparse
import json
import os
import statistics
import sys

BENCH_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(paths):
    """[{workload: row}] per file."""
    runs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs.append({row["name"]: row for row in doc["results"]})
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def verdict(metric, base, change, same):
    """Verdict and table fields for one (workload, metric)."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    b_q1, b_med, b_q3, b_spread = spread(base)
    c_q1, c_med, c_q3, c_spread = spread(change)
    worse = (b_med - c_med if higher else c_med - b_med) / b_med
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    win_frac = wins / min(len(base), len(change))
    all_better = (min(change) > max(base)) if higher else \
        (max(change) < min(base))
    wide = max(b_spread, c_spread) if same else b_spread
    if worse > bound:
        v = "regressed"
    elif win_frac >= 0.9 and abs(c_med - b_med) > b_q3 - b_q1 and worse < 0:
        v = "improved"
    elif wide > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, (b_med, b_q1, b_q3, c_med, c_q1, c_q3, -worse, win_frac, wide)


def main():
    ap = argparse.ArgumentParser(
        description="A/B comparison of svbench runs (see module docstring).")
    ap.add_argument("--base", nargs="+", required=True, metavar="JSON")
    ap.add_argument("--change", nargs="+", required=True, metavar="JSON")
    ap.add_argument("--same", action="store_true",
                    help="both sets come from one commit: require agreement")
    ap.add_argument("--bench", default=BENCH_JSON,
                    help="BENCHMARK.json with the metrics and bounds")
    args = ap.parse_args()
    try:
        with open(args.bench) as f:
            metrics = json.load(f)["end_to_end"]
        base, change = load_runs(args.base), load_runs(args.change)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    if min(len(base), len(change)) < 2:
        print("compare.py: need at least 2 runs per side", file=sys.stderr)
        return 2

    workloads = [w for w in base[0] if all(w in r for r in base + change)]
    a, b = ("A", "B") if args.same else ("base", "change")
    print(f"{len(base)} {a} runs, {len(change)} {b} runs; "
          "median [q1, q3]; delta is the change in the better direction")
    print(f"{'workload':<12} {'metric':<14} {a + ' median':>24} "
          f"{b + ' median':>24} {'delta':>8} {'wins':>5} {'spread':>7}  "
          "verdict")
    bad = 0
    for w in workloads:
        failed = sum(int(r[w]["metrics"]["failed"]) for r in change)
        if failed:
            print(f"{w:<12} {'failed':<14} {failed} correctness failures "
                  f"in {b} runs  regressed")
            bad += 1
        for m in metrics:
            name = m["name"]
            v, f = verdict(m, [r[w]["metrics"][name] for r in base],
                           [r[w]["metrics"][name] for r in change], args.same)
            print(f"{w:<12} {name:<14} "
                  f"{f[0]:>10.4g} [{f[1]:.4g}, {f[2]:.4g}] "
                  f"{f[3]:>10.4g} [{f[4]:.4g}, {f[5]:.4g}] "
                  f"{f[6]:>+7.1%} {f[7]:>5.0%} {f[8]:>6.1%}  {v}")
            bad += v != "unchanged" if args.same else v == "regressed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
