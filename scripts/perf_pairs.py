#!/usr/bin/env python3
"""Interleaved parent/change pairs of two `perfbench` binaries.

Runs N pairs per workload. Pair i uses seed `--seed-base + i` on both
sides, and the side that goes first alternates from pair to pair, so
slow stretches of a shared host fall on both sides alike. For every
end-to-end metric in BENCHMARK.json it prints, one markdown table per
workload: each side's median and quartiles, the change of the median,
the pairs the change won, and the metric's bound, with a verdict:

  better / worse      the medians differ by more than the parent's
                      interquartile range
  within spread       they differ by less
  beyond bound        the change is worse by more than the bound
  unresolved          the parent's interquartile range exceeds the bound,
                      so these runs cannot tell

Usage:
  scripts/perf_pairs.py PARENT_PERFBENCH CHANGE_PERFBENCH
      [--pairs 10] [--seconds 20] [--seed-base 1] [--workload NAME ...]
      [--benchmark BENCHMARK.json]

Build each side's binary into its own target directory, e.g.
  CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline \\
      --manifest-path <parent checkout>/perfbench/Cargo.toml

Exits 1 when a run fails its output checks or the two sides print
different fingerprints for a workload, and 0 otherwise: the timing
comparison is advisory.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

WORKLOADS = ["shootout", "impaired", "multihop", "figures"]


def run(binary, workload, seed, seconds):
    """One perfbench run: its end-to-end metrics, fingerprints, and
    whether every output passed its check."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"{' '.join(cmd)}: no JSON report (exit {proc.returncode})\n")
        return None, set(), False
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    prints = set(re.findall(r"fingerprint ([0-9a-f]+)", proc.stderr))
    ok = proc.returncode == 0 and report.get("correct") and report.get("failed") == 0
    return metrics, prints, ok


def quartiles(values):
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(v):
    return f"{v:.4g}"


def verdict(base, change, better, bound):
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    rel = (cm - bm) / bm if bm else 0.0
    worse = rel > 0 if better == "lower" else rel < 0
    if bm and (b3 - b1) / bm > bound:
        return rel, "unresolved"
    if worse and abs(rel) > bound:
        return rel, "beyond bound"
    if abs(cm - bm) > b3 - b1:
        return rel, "worse" if worse else "better"
    return rel, "within spread"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(args.benchmark) as f:
        end_to_end = json.load(f)["end_to_end"]

    print(f"{os.cpu_count()} cores; {args.pairs} pairs per workload at --seconds "
          f"{args.seconds}, seeds {args.seed_base}-{args.seed_base + args.pairs - 1}, "
          f"order alternating")
    status = 0
    for workload in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        prints = {"parent": set(), "change": set()}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                binary = args.parent if side == "parent" else args.change
                metrics, fp, ok = run(binary, workload, seed, args.seconds)
                if not ok:
                    sys.stderr.write(f"{workload} seed {seed}: the {side} run failed\n")
                    status = 1
                if metrics is not None:
                    runs[side].append((seed, metrics))
                prints[side] |= {(seed, p) for p in fp}
            sys.stderr.write(f"{workload}: pair {i + 1}/{args.pairs} done\n")
        if prints["parent"] != prints["change"]:
            sys.stderr.write(f"{workload}: the two sides printed different fingerprints\n")
            status = 1
        paired = [
            (p, c)
            for (sp, p) in runs["parent"]
            for (sc, c) in runs["change"]
            if sp == sc
        ]
        if not paired:
            continue
        print()
        print(f"### {workload} ({len(paired)} pairs)")
        print()
        print("| metric | parent median (quartiles) | change median (quartiles) "
              "| change | pairs won | bound | verdict |")
        print("|---|---|---|---|---|---|---|")
        for m in end_to_end:
            name, better, bound = m["name"], m["better"], m["bound"]
            base = [p[name] for p, _ in paired]
            change = [c[name] for _, c in paired]
            won = sum(
                (c < p) if better == "lower" else (c > p) for p, c in zip(base, change)
            )
            b1, bm, b3 = quartiles(base)
            c1, cm, c3 = quartiles(change)
            rel, word = verdict(base, change, better, bound)
            print(f"| `{name}` | {fmt(bm)} ({fmt(b1)}–{fmt(b3)}) {m['unit']} "
                  f"| {fmt(cm)} ({fmt(c1)}–{fmt(c3)}) | {rel * 100:+.1f} % "
                  f"| {won}/{len(paired)} | {bound * 100:.0f} % | {word} |")
    sys.exit(status)


if __name__ == "__main__":
    main()
