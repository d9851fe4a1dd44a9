#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

usage: ab_pairs.py --parent DIR --change DIR --workload W --pairs N
                   --seconds S --seed0 K [--raw FILE]
       ab_pairs.py --self-test

Each of DIR is the root of a checkout (for the parent, for example, one
unpacked with `git archive <commit> | tar -x -C DIR`). Pair i runs
`python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
in both checkouts with the same seed; even pairs run the parent first, odd
pairs the change. Every run's result line is printed as it arrives, and
with --raw every line every run printed is appended to FILE as JSON.

Then, for each end-to-end metric of the change's BENCHMARK.json, it prints
the parent's and the change's first quartile, median and third quartile,
the ratio of the medians, and the pairs the change won in the metric's
`better` direction, followed by two verdicts:

  claim  the change won at least 9 in 10 pairs and its median is better
         than the parent's by more than the parent's interquartile range;
  bound  the change's median is worse than the parent's by more than the
         metric's `bound` (a fraction of the parent's median).

It also prints each side's share of failed operations and any run that
was not correct. It reads BENCHMARK.json and perfbench/run.py and edits
neither. --self-test checks the statistics and both verdicts on canned
numbers and runs nothing.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# The claim rule: at least 9 wins in every 10 pairs.
CLAIM_WINS, CLAIM_OF = 9, 10


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(metric, a, b):
    """True when value a is strictly better than value b for this metric."""
    return a > b if metric["better"] == "higher" else a < b


def compare(metric, parent, change):
    """Summary of one metric over paired runs: parent[i] and change[i]
    share a seed."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    pairs = len(parent)
    iqr = p_q3 - p_q1
    gain = c_med - p_med if metric["better"] == "higher" else p_med - c_med
    worse_by = -gain / p_med if p_med else (math.inf if gain < 0 else 0.0)
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "ratio": c_med / p_med if p_med else math.inf,
        "wins": wins,
        "pairs": pairs,
        "claim": wins * CLAIM_OF >= CLAIM_WINS * pairs and gain > iqr,
        "worse_by": worse_by,
        "over_bound": worse_by > metric["bound"],
    }


def format_row(name, s):
    def trio(t):
        return "/".join(f"{v:.4g}" for v in t)
    return (f"{name:<20} {trio(s['parent']):>26} {trio(s['change']):>26} "
            f"{s['ratio']:>7.3f} {s['wins']:>3}/{s['pairs']:<3} "
            f"{'yes' if s['claim'] else 'no':>5} "
            f"{'WORSE' if s['over_bound'] else 'ok':>6}")


def report(metrics, parent_runs, change_runs):
    """Prints the summary table; returns the per-metric summaries."""
    print(f"{'metric':<20} {'parent q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'ratio':>7} {'won':>7} {'claim':>5} {'bound':>6}")
    summaries = {}
    for m in metrics:
        p = [r["metrics"][m["name"]]["value"] for r in parent_runs]
        c = [r["metrics"][m["name"]]["value"] for r in change_runs]
        summaries[m["name"]] = compare(m, p, c)
        print(format_row(m["name"], summaries[m["name"]]))
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        share = failed / attempted if attempted else 0.0
        print(f"{side}: failed share {share:.3g} "
              f"({failed} of {attempted}), incorrect runs {wrong}")
    return summaries


def run_side(root, workload, seed, seconds, raw):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"ab_pairs.py: {' '.join(cmd)} failed in {root}")
    lines = [json.loads(line) for line in out.stdout.splitlines() if line]
    if raw is not None:
        for line in lines:
            raw.write(json.dumps({"root": str(root), "seed": seed,
                                  "line": line}) + "\n")
        raw.flush()
    return lines[-1]


def self_test():
    thr = {"name": "throughput_ops_s", "better": "higher", "bound": 0.25}
    lat = {"name": "op_latency_p99_us", "better": "lower", "bound": 0.25}
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    # 10 pairs, the change higher in 9: median gap 0.9 > parent IQR 0.275.
    parent = [10.0, 10.2, 10.4, 10.1, 10.3, 10.5, 10.0, 10.6, 10.2, 10.1]
    change = [p + 0.9 for p in parent]
    change[3] = 9.9
    s = compare(thr, parent, change)
    assert s["wins"] == 9 and s["claim"] and not s["over_bound"], s

    # The same gap won in only 8 pairs is no claim.
    change[5] = 10.4
    s = compare(thr, parent, change)
    assert s["wins"] == 8 and not s["claim"], s

    # All pairs won, but by less than the parent's spread: no claim.
    s = compare(thr, parent, [p + 0.05 for p in parent])
    assert s["wins"] == 10 and not s["claim"], s

    # Lower is better: a change 30% slower at p99 is over a 0.25 bound,
    # one 20% slower is not, and one 20% faster in every pair is a claim.
    base = [7.0, 7.2, 6.9, 7.1, 7.0, 7.3, 6.8, 7.0, 7.1, 7.2]
    assert compare(lat, base, [v * 1.3 for v in base])["over_bound"]
    s = compare(lat, base, [v * 1.2 for v in base])
    assert not s["over_bound"] and s["wins"] == 0, s
    s = compare(lat, base, [v * 0.8 for v in base])
    assert s["claim"] and s["wins"] == 10 and abs(s["ratio"] - 0.8) < 1e-9

    # The table reads the same numbers out of result lines.
    def runs(values):
        return [{"correct": True, "attempted": 100, "failed": 0,
                 "metrics": {"op_latency_p99_us": {"value": v}}}
                for v in values]
    out = report([lat], runs(base), runs([v * 0.8 for v in base]))
    assert out["op_latency_p99_us"]["claim"]
    print("ab_pairs.py self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--raw", type=Path,
                        help="append every run's output lines to this file")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    for name in ("parent", "change", "workload", "seconds"):
        if getattr(args, name) is None:
            parser.error(f"--{name} is required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    raw = open(args.raw, "a") if args.raw else None
    parent_runs, change_runs = [], []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for side, root in order:
            result = run_side(root, args.workload, seed, args.seconds, raw)
            (parent_runs if side == "parent" else change_runs).append(result)
            print(json.dumps({"pair": i, "side": side, "seed": seed,
                              "result": result}), flush=True)
    if raw is not None:
        raw.close()
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed0}-{args.seed0 + args.pairs - 1}")
    report(spec["end_to_end"], parent_runs, change_runs)


if __name__ == "__main__":
    main()
