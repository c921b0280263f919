#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/collect.py --workloads table3_analytical,serve_eco \
        --seeds 1-10 --seconds 30 [--trace 0] [--write perfbench/results/set.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json. With `--write` it also saves the
medians, quartiles and spreads, the host fingerprint and the per-circuit
records of the first seed as a result set.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, type=seeds_arg)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = args.workloads.split(",")

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failures = {w: [0, 0] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            result = run_once(w, seed, seconds, args.trace)
            failures[w][0] += result["attempted"]
            failures[w][1] += result["failed"]
            for name in values[w]:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for w in workloads:
        print(f"\n{w} ({len(args.seeds)} runs, failed {failures[w][1]} of {failures[w][0]})")
        summary[w] = {}
        for name, vals in values[w].items():
            med, q1, q3, sp = spread(vals)
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            print(f"  {name:<26} median {med:>14.6g}  spread {sp:8.4f}  bound {bound}  {flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "values": vals}

    if args.write:
        first = args.seeds[0]
        record = {
            "seeds": args.seeds,
            "seconds": seconds,
            "trace": args.trace,
            "workloads": summary,
            "failed": {w: {"failed": f, "attempted": a} for w, (a, f) in failures.items()},
        }
        for w in workloads:
            path = HERE / "out" / f"result-{w}-seed{first}-trace{args.trace}.json"
            if path.exists():
                result = json.loads(path.read_text())
                record.setdefault("fingerprint", result["fingerprint"])
                summary[w]["detail_seed_" + str(first)] = result["detail"]
                summary[w]["records_seed_" + str(first)] = result["records"]
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nwrote {args.write}")


if __name__ == "__main__":
    main()
