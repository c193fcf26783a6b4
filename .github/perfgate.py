#!/usr/bin/env python3
"""Perf regression gate: compare benchmark outputs from two commits.

Usage:

  perfgate.py BASE.txt HEAD.txt [--threshold 0.10]

Compares two `go test -bench -benchmem` outputs. Parses the raw
benchmark lines of both files, takes the median over repeated runs
(-count=N) per benchmark, and fails (exit 1) when any benchmark present
on both sides regressed by more than the threshold in ns/op or
allocs/op. Benchmarks that exist on only one side (added or removed by
the change) are reported but never gate.

The CI job also renders a benchstat report next to this gate for the
human-readable statistics; this script is the pass/fail decision so the
gate does not depend on benchstat's output format.
"""

import re
import sys
from statistics import median

LINE = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op"
    r"(?:\s+[\d.]+ B/op\s+([\d.]+) allocs/op)?"
)


def parse(path):
    runs = {}
    with open(path) as f:
        for line in f:
            m = LINE.match(line.strip())
            if not m:
                continue
            name, ns, allocs = m.group(1), float(m.group(2)), m.group(3)
            entry = runs.setdefault(name, {"ns": [], "allocs": []})
            entry["ns"].append(ns)
            if allocs is not None:
                entry["allocs"].append(float(allocs))
    return {
        name: {
            "ns": median(e["ns"]),
            "allocs": median(e["allocs"]) if e["allocs"] else None,
        }
        for name, e in runs.items()
    }


def gate_bench(base_path, head_path, threshold):
    base, head = parse(base_path), parse(head_path)

    failed = []
    for name in sorted(set(base) | set(head)):
        if name not in base:
            print(f"  new       {name}: {head[name]['ns']:.0f} ns/op (no base, not gated)")
            continue
        if name not in head:
            print(f"  removed   {name}")
            continue
        b, h = base[name], head[name]
        ns_ratio = h["ns"] / b["ns"] if b["ns"] else 1.0
        verdict = "ok"
        if ns_ratio > 1 + threshold:
            verdict = "REGRESSION"
            failed.append(f"{name}: ns/op {b['ns']:.0f} -> {h['ns']:.0f} (x{ns_ratio:.2f})")
        alloc_note = ""
        if b["allocs"] is not None and h["allocs"] is not None:
            base_allocs, head_allocs = b["allocs"], h["allocs"]
            alloc_note = f"  allocs/op {base_allocs:.1f} -> {head_allocs:.1f}"
            # Gate allocs with an absolute grace of 1 alloc/op so a 0->1
            # change on a tiny benchmark is caught by review, not noise.
            if head_allocs > base_allocs * (1 + threshold) and head_allocs > base_allocs + 1:
                verdict = "REGRESSION"
                failed.append(
                    f"{name}: allocs/op {base_allocs:.1f} -> {head_allocs:.1f}")
        print(f"  {verdict:10} {name}: ns/op {b['ns']:.0f} -> {h['ns']:.0f} (x{ns_ratio:.2f}){alloc_note}")

    return failed


def main():
    argv = sys.argv[1:]
    args, threshold = [], 0.10
    i = 0
    while i < len(argv):
        a = argv[i]
        if a.startswith("--threshold"):
            if "=" in a:
                threshold = float(a.split("=", 1)[1])
            else:
                i += 1
                threshold = float(argv[i])
        else:
            args.append(a)
        i += 1
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    failed = gate_bench(args[0], args[1], threshold)
    if failed:
        print(f"\nperf gate FAILED (> {threshold:.0%} regression):", file=sys.stderr)
        for f in failed:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nperf gate passed (threshold {threshold:.0%})")


if __name__ == "__main__":
    main()
