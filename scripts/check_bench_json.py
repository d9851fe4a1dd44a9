#!/usr/bin/env python3
"""Schema check for the checked-in bench baselines (BENCH_*.json).

The baselines are written by hand-rolled JSON emitters in bench/*.cpp, so a
formatting bug (or a half-finished re-baseline) would otherwise sit unnoticed
until someone tries to plot a trajectory. Run as a ctest step (label
`bench-json`), this validates every BENCH_*.json at the repo root:

  * parses as JSON, with a "bench" name and a non-empty "results" list;
  * every results entry carries an integer "threads" >= 1;
  * at least one top-level ratio section (a key containing "speedup",
    "ratio" or "_vs_") holds a non-empty list, so each baseline keeps
    publishing the A/B comparison it exists for;
  * every baseline in REQUIRED_BASELINES exists — a deleted or never-
    regenerated file fails the gate instead of silently shrinking the
    trajectory.

Usage: check_bench_json.py [repo_root]
Exits non-zero with one line per problem.
"""

import glob
import json
import os
import sys

# Baselines every checkout must carry. Add the file here in the same PR
# that introduces its bench binary.
REQUIRED_BASELINES = [
    "BENCH_admission.json",
    "BENCH_clock.json",
    "BENCH_cm.json",
    "BENCH_escalation.json",
    "BENCH_granularity.json",
    "BENCH_reclaim.json",
    "BENCH_robustness.json",
]


def check_file(path):
    problems = []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        return ["{}: unreadable or invalid JSON ({})".format(path, err)]

    if not isinstance(doc, dict):
        return ["{}: top level is not an object".format(path)]
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        problems.append("{}: missing \"bench\" name".format(path))

    results = doc.get("results")
    if not isinstance(results, list) or not results:
        problems.append("{}: \"results\" missing or empty".format(path))
        results = []
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            problems.append("{}: results[{}] is not an object".format(path, i))
            continue
        threads = row.get("threads")
        if not isinstance(threads, int) or isinstance(threads, bool) \
                or threads < 1:
            problems.append(
                "{}: results[{}] has no integer \"threads\" >= 1 "
                "(got {!r})".format(path, i, threads))

    ratio_keys = [
        k for k in doc
        if "speedup" in k or "ratio" in k or "_vs_" in k
    ]
    if not any(isinstance(doc[k], list) and doc[k] for k in ratio_keys):
        problems.append(
            "{}: no non-empty ratio section (key containing \"speedup\", "
            "\"ratio\" or \"_vs_\")".format(path))
    return problems


def main(argv):
    root = argv[1] if len(argv) > 1 else os.getcwd()
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print("check_bench_json: no BENCH_*.json under {}".format(root))
        return 1
    problems = []
    present = {os.path.basename(p) for p in paths}
    for name in REQUIRED_BASELINES:
        if name not in present:
            problems.append("{}: required baseline missing".format(
                os.path.join(root, name)))
    for path in paths:
        problems.extend(check_file(path))
    for p in problems:
        print(p)
    print("check_bench_json: {} file(s), {} problem(s)".format(
        len(paths), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
