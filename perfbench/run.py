#!/usr/bin/env python3
"""Build and run the VOTM end-to-end benchmark (see perfbench/README.md).

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds perfbench/ (which
compiles the library from src/) into .bench_build/perfbench; later runs
only bring that build up to date. Each run then starts two processes of
the built program: the host probe, and the workload on its own, so that
peak_rss_mb is the workload's alone. Output is JSON lines: the host
diagnostics, build and run metadata, the program's own metadata and view
counters and, as the last line, the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes the sampled spans
to .bench_build/spans/). Units come from BENCHMARK.json. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result lines.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for p in sorted(files):
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def run_program(args):
    try:
        out = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} ran past {RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        fail(f"perfbench {' '.join(args)} exited with {out.returncode}")
    lines = [json.loads(line) for line in out.stdout.splitlines() if line]
    if not lines:
        fail(f"perfbench {' '.join(args)} printed nothing")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    host = run_program(["--probe"])[-1]

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        SPANS.mkdir(parents=True, exist_ok=True)
        spans = SPANS / f"{args.workload}-seed{args.seed}.jsonl"
    lines = run_program(run_args + (["--spans", str(spans)] if spans else []))
    result = lines[-1]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the program's last line is not a result")

    measured = result["metrics"]
    known = {m["name"] for m in wanted}
    extra = sorted(set(measured) - known)
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {extra}")
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif args.trace:
            # A per-layer metric of an op type this workload does not run
            # (e.g. stm.read_ns.hot under intruder): no calls, so 0.
            value = 0.0
        else:
            fail(f"end-to-end metric {m['name']} was not measured")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} is not a finite number: {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps(host))
    print(json.dumps({"run": {
        "command": ["python3", "perfbench/run.py"] + run_args,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "spans_file": str(spans.relative_to(ROOT)) if spans else None,
    }}))
    for line in lines[:-1]:
        print(json.dumps(line))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
