#!/usr/bin/env python3
"""Build and run the droplens benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reproduce|serve_clean \
        --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml, release profile,
offline) into $CARGO_TARGET_DIR (default .bench_build), pins the
environment (DROPLENS_THREADS = nproc), runs one measurement, and relays
its output. Stdout carries an "env" line, a "details" line and, last,
the JSON result. On any failure nothing is printed on stdout and the
exit code is nonzero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ("reproduce", "serve_clean")
REFERENCE = "REPRODUCTION_OUTPUT.txt"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the first run in a checkout also builds
# and may take 900 s. Leave room for start-up and reporting.
RUN_BUDGET_S = 170
FIRST_RUN_BUDGET_S = 880
# What the source digest covers: everything the binary is built from.
DIGEST_PATHS = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")
DIGEST_SKIP = {"target", ".bench_build", "__pycache__"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def command_output(argv, **kwargs):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the relative paths and bytes of every source file."""
    h = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in DIGEST_SKIP)
                files.extend(os.path.join(dirpath, f) for f in filenames)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def commit():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return command_output(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env) or "unknown"


def build(target_dir):
    """Build the benchmark binary; returns its path."""
    cmd = ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, CARGO_NET_OFFLINE="true")
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=FIRST_RUN_BUDGET_S)
    except OSError as e:
        die(f"cannot run cargo: {e}")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if built.returncode != 0:
        die(f"build failed (exit {built.returncode})")
    return os.path.join(target_dir, "release", "perfbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == RESULT_KEYS
        and isinstance(result["correct"], bool)
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
        and isinstance(result["failed"], int)
        and isinstance(result["metrics"], dict)
        and all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    )


def main():
    args = parse_args()
    started = time.monotonic()
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        die("no crates/ next to perfbench/: run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    first_run = not os.path.exists(os.path.join(target_dir, "release", "perfbench"))
    binary = build(target_dir)

    threads = nproc()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "nproc": threads,
        "droplens_threads": threads,
        "commit": commit(),
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "profile": "release",
    }

    argv = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    reference = os.path.join(ROOT, REFERENCE)
    if os.path.isfile(reference):
        argv += ["--reference", reference]
    budget = (FIRST_RUN_BUDGET_S if first_run else RUN_BUDGET_S) - (time.monotonic() - started)
    try:
        run = subprocess.run(
            argv,
            cwd=ROOT,
            env=dict(os.environ, DROPLENS_THREADS=str(threads)),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(budget, 1),
        )
    except subprocess.TimeoutExpired:
        die("run timed out")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        die(f"run failed (exit {run.returncode})")
    print(json.dumps({"env": env}))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
