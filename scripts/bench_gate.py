#!/usr/bin/env python3
"""Gate one checkout's benchmark figures against another's.

Usage:

    python3 scripts/bench_gate.py BASE_DIR HEAD_DIR >> BENCH_LEDGER.jsonl

BASE_DIR and HEAD_DIR are two full checkouts, typically the merge base
and the change. The benchmark is whatever HEAD_DIR/BENCHMARK.json
declares: its command, workloads, run length and the bound by which each
end-to-end metric may worsen. For every workload the script runs PAIRS
pairs, one run in each checkout, with seed i for pair i and the side
that runs first alternating. Each run is that checkout's own benchmark
command with --trace 0, run from inside the checkout, so each side
builds into its own .bench_build.

Stdout carries every run's three lines (env, details, result) verbatim,
which is the ledger's format. Stderr carries one row per workload and
metric: each side's median, its IQR / median, and head / base.

The exit code is nonzero when, on any workload, HEAD's median of an
end-to-end metric is worse than the base median by more than its bound,
when any run reports correct: false, or when HEAD fails a larger share
of the operations it attempted than the base did.
"""

import json
import os
import statistics
import subprocess
import sys

# Pairs per workload. Raise it, never a bound, when an unchanged tree
# fails the gate.
PAIRS = 10
SIDES = ("base", "head")


def run_once(tree, bench, workload, seed):
    """One benchmark run in `tree`; returns its three stdout lines."""
    argv = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    # Each checkout builds into its own default target directory.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    run = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) != 3:
        sys.exit(f"bench gate: {workload} seed {seed} failed in {tree} (exit {run.returncode})")
    return lines


def parse_record(lines):
    """What the verdict reads of one run's env, details and result lines."""
    env = json.loads(lines[0])["env"]
    return {"workload": env["workload"], "seed": env["seed"], "result": json.loads(lines[-1])}


def summarize(records, workload, metric):
    """Median and IQR / median of one metric over one side's runs."""
    values = [
        r["result"]["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and metric in r["result"]["metrics"]
    ]
    if not values:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, (q3 - q1) / median


def failed_share(records, workload):
    results = [r["result"] for r in records if r["workload"] == workload]
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def verdict(bench, runs):
    """Compare the two sides' records; returns (table rows, failures).

    `runs` maps "base" and "head" to lists of parsed records. A pure
    function of its arguments, so that the rule can be tested alone.
    """
    rows, failures = [], []
    for side in SIDES:
        for r in runs[side]:
            if not r["result"]["correct"]:
                failures.append(f"{side} {r['workload']} seed {r['seed']}: correct: false")
    for workload in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            name = f"{workload}/{m['name']}"
            base = summarize(runs["base"], workload, m["name"])
            head = summarize(runs["head"], workload, m["name"])
            if base is None or head is None:
                failures.append(f"{name}: no values on the {'base' if base is None else 'head'} side")
                continue
            ratio = head[0] / base[0]
            if m["better"] == "lower":
                worse = head[0] > base[0] * (1 + m["bound"])
            else:
                worse = head[0] < base[0] * (1 - m["bound"])
            if worse:
                failures.append(f"{name}: head median {head[0]:.4g} against base {base[0]:.4g} "
                                f"({m['better']} is better, bound {m['bound']})")
            rows.append((name, base, head, ratio, "FAIL" if worse else "ok"))
        base_share = failed_share(runs["base"], workload)
        head_share = failed_share(runs["head"], workload)
        if head_share > base_share:
            failures.append(f"{workload}: head failed {head_share:.4%} of operations, base {base_share:.4%}")
    return rows, failures


def render(rows):
    out = [f"{'metric':<24} {'base median':>12} {'IQR/med':>8} {'head median':>12} {'IQR/med':>8} "
           f"{'head/base':>9}"]
    for name, (bm, bs), (hm, hs), ratio, status in rows:
        out.append(f"{name:<24} {bm:>12.4g} {bs:>8.3f} {hm:>12.4g} {hs:>8.3f} {ratio:>9.3f}  {status}")
    return "\n".join(out)


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: bench_gate.py BASE_DIR HEAD_DIR")
    trees = dict(zip(SIDES, sys.argv[1:]))
    with open(os.path.join(trees["head"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = {side: [] for side in SIDES}
    for i in range(1, PAIRS + 1):
        for workload in (w["name"] for w in bench["workloads"]):
            order = SIDES if i % 2 else SIDES[::-1]
            for side in order:
                lines = run_once(trees[side], bench, workload, seed=i)
                print("\n".join(lines), flush=True)
                runs[side].append(parse_record(lines))
    rows, failures = verdict(bench, runs)
    print(render(rows), file=sys.stderr)
    for f in failures:
        print(f"bench gate: FAIL {f}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
