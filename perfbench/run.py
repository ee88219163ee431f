#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all of them).

Run from the repository root:

    python3 perfbench/run.py --workload truss-ba --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

The last line of standard output is the result as one JSON object with
the keys correct, attempted, failed and metrics. `--trace 1` reports the
per-layer metrics instead of the end-to-end ones. Build output goes to
standard error; the build lands in $CARGO_TARGET_DIR (default
.bench_build) and scratch files in .bench_build/perfbench-work.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["truss-ba", "nucleus34-rmat"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: building the benchmark: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return None
    return os.path.join(target, "release", "nucleus-perfbench")


def provenance():
    """The commit when this is a git checkout, else a hash of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "src", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".py")))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def run_one(binary, workload, args, extra=()):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(".bench_build", "perfbench-work"), *extra]
    env = dict(os.environ, PERFBENCH_COMMIT=provenance())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test(binary, args):
    """A run fed one corrupted answer must count it as failed."""
    args.trace = 0
    code, out = run_one(binary, WORKLOADS[-1], args, ["--corrupt"])
    res = result_of(out)
    caught = res is not None and not res["correct"] and res["failed"] >= 1
    print(f"self-test: corrupted answer {'caught' if caught else 'MISSED'} "
          f"(exit {code}, failed={res and res['failed']})")
    return 0 if caught and code != 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and not args.workload:
        p.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary, args)
    if args.workload != "all":
        code, out = run_one(binary, args.workload, args)
        sys.stdout.write(out)
        return code

    # Every workload in its own process, so each peak RSS is its own.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(binary, w, args)
        worst = max(worst, code)
        print(f"== {w}")
        sys.stdout.write("".join(out.splitlines(True)[:-1]))
        res = result_of(out)
        if res is None:
            merged["correct"] = False
            continue
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{w}/{name}"] = m
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())
