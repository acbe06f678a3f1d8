#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare them.

    python3 bench/compare.py collect DIR [--workloads W ...] [--seeds 1-10]
                             [--seconds S] [--trace 0|1]
        runs bench/run.py once per (workload, seed) and keeps each result
        line as DIR/<workload>/seed<n>.json

    python3 bench/compare.py DIR
        per (workload, metric): median, quartiles and spread (quartile
        distance over median) against the metric's bound

    python3 bench/compare.py DIR_A DIR_B
        per (workload, metric): both sides' medians and quartiles, the
        change of B against A (positive = worse) and whether it stays
        within the bound; attempted and failed counts of each side

Bounds, better directions and the default run length come from
BENCHMARK.json.  Exits 1 if a spread or a change exceeds its bound, if a
run was incorrect, or if the sides' failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    out = Path(args.dir)
    seconds = args.seconds or SPEC["run_seconds"]
    workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        (out / w).mkdir(parents=True, exist_ok=True)
        for seed in _seeds(args.seeds):
            cmd = SPEC["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not line.startswith("{"):
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}")
            (out / w / f"seed{seed}.json").write_text(line + "\n")
            print(f"{w} seed {seed}: {line[:160]}", flush=True)
    return 0


def load(directory):
    """{workload: [result, ...]} from a collected directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*/seed*.json")):
        runs.setdefault(path.parent.name, []).append(json.loads(path.read_text()))
    return runs


def stats(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3


def _fmt(v):
    return f"{v:.4g}"


def _metrics():
    return {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def summarize(runs):
    bad = False
    meta = _metrics()
    for w, results in runs.items():
        att = sum(r["attempted"] for r in results)
        fail = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        bad |= not correct
        print(f"\n{w}: {len(results)} runs, attempted {att}, failed {fail}, "
              f"correct {'yes' if correct else 'NO'}")
        for name in results[0]["metrics"]:
            med, q1, q3 = stats(r["metrics"][name]["value"] for r in results)
            m = meta.get(name, {})
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread <= bound else "SPREAD ABOVE BOUND"
                bad |= spread > bound
            print(f"  {name:40s} median {_fmt(med):>10s} [{_fmt(q1)}, {_fmt(q3)}] "
                  f"spread {spread:6.3f}" + (f" bound {bound} {flag}" if bound else ""))
    return 1 if bad else 0


def compare(runs_a, runs_b):
    bad = False
    meta = _metrics()
    for w in sorted(set(runs_a) | set(runs_b)):
        a, b = runs_a.get(w, []), runs_b.get(w, [])
        if not a or not b:
            print(f"\n{w}: only on one side")
            bad = True
            continue
        share = []
        for tag, results in (("A", a), ("B", b)):
            att = sum(r["attempted"] for r in results)
            fail = sum(r["failed"] for r in results)
            share.append(fail / att)
            bad |= not all(r["correct"] for r in results)
            print(f"\n{w} side {tag}: {len(results)} runs, attempted {att}, failed {fail}, "
                  f"correct {'yes' if all(r['correct'] for r in results) else 'NO'}")
        if share[0] != share[1]:
            print(f"  failed share differs: {share[0]:.6f} vs {share[1]:.6f}")
            bad = True
        for name in a[0]["metrics"]:
            if name not in b[0]["metrics"]:
                continue
            ma, qa1, qa3 = stats(r["metrics"][name]["value"] for r in a)
            mb, qb1, qb3 = stats(r["metrics"][name]["value"] for r in b)
            m = meta.get(name, {})
            sign = 1.0 if m.get("better", "lower") == "lower" else -1.0
            change = sign * (mb - ma) / ma if ma else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "within bound" if change <= bound else "WORSE THAN BOUND"
                bad |= change > bound
            print(f"  {name:40s} A {_fmt(ma):>10s} [{_fmt(qa1)}, {_fmt(qa3)}]  "
                  f"B {_fmt(mb):>10s} [{_fmt(qb1)}, {_fmt(qb3)}]  change {change:+.3f}"
                  + (f" (bound {bound}) {verdict}" if bound is not None else ""))
    return 1 if bad else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["collect"]:
        p = argparse.ArgumentParser(prog="compare.py collect")
        p.add_argument("dir")
        p.add_argument("--workloads", nargs="*")
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=float)
        p.add_argument("--trace", type=int, default=0, choices=(0, 1))
        return collect(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="compare.py")
    p.add_argument("dirs", nargs="+")
    args = p.parse_args(argv)
    if len(args.dirs) == 1:
        return summarize(load(args.dirs[0]))
    return compare(load(args.dirs[0]), load(args.dirs[1]))


if __name__ == "__main__":
    sys.exit(main())
