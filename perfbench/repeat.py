"""Run the benchmark several times and report each metric's steadiness.

    python3 perfbench/repeat.py --workload serve_ingest --seeds 1-10 --seconds 10

For every metric: the median over the runs and the inter-quartile distance
as a share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json.  A run that exits non-zero or reports
``correct: false`` stops the repeat with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from bench_stats import median, relative_iqr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/repeat.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jsonl", default=None, help="append every result line here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit status {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(last)
        if args.jsonl:
            with open(args.jsonl, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<44} {'median':>14} {'IQR/median':>11} {'bound':>7}")
    for name, vals in values.items():
        spread = relative_iqr(vals) if len(vals) >= 2 and median(vals) else float("nan")
        bound = bounds.get(name)
        print(f"{name:<44} {median(vals):>14.6g} {spread:>11.4f} "
              f"{'' if bound is None else bound:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
