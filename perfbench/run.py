#!/usr/bin/env python3
"""Builds and runs the end-to-end placement benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the benchmark package in
`perfbench/` from source, twice: once with default features for untraced
runs and once with `--features trace` (the placer crates' telemetry
counters compiled in) for traced runs. Build output goes to standard error;
standard output is the benchmark's own, ending with one JSON result line.
`CARGO_TARGET_DIR` picks the build directory (default `.bench_build`).

Workloads: table3_analytical, table3_sa, serve_eco, or `all` for the three
in turn. Results, spans and per-circuit records are also written under
`perfbench/out/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["table3_analytical", "table3_sa", "serve_eco", "all"]
# The benchmark bounds its own run time; this only stops a hung run.
RUN_TIMEOUT_S = 175


def build(target_dir, features):
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--target-dir", str(target_dir),
    ] + features
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def source_hash():
    """Hash of the sources the benchmark builds from (the checkout is not
    necessarily a git repository, so this stands in for a revision)."""
    digest = hashlib.sha256()
    for base in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        path = ROOT / base
        if path.is_file():
            files = [path]
        else:
            files = sorted(
                f for f in path.rglob("*")
                if f.is_file() and f.suffix in (".rs", ".toml", ".lock", ".py")
                and "out" not in f.relative_to(ROOT).parts
            )
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()
    plain, traced = target / "perfbench", target / "perfbench-trace"
    # Both variants every time: the first run of a checkout pays both
    # builds, later runs only cargo's up-to-date check.
    if not build(plain, []) or not build(traced, ["--features", "trace"]):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = (traced if args.trace == "1" else plain) / "release" / "perfbench"
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev(), PERFBENCH_SOURCE_HASH=source_hash())
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", str(HERE / "out"),
    ]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
