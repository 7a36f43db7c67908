"""The repository benchmark: fleet training and tenant serving, end to end and
layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_native --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the workload end to end; ``--trace 1`` measures the
per-layer ledger of every stack instead (see README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit status is 1 when an output or teardown
check failed and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout; the native kernel caches its shared
#: object under ``$TMPDIR``.
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-tmp")
BASELINE = os.path.join(HERE, "baseline.json")

FLEET_WORKLOADS = {"fleet_native": "native", "fleet_sharded": "sharded"}
SERVE_WORKLOADS = {"serve_interactive": "interactive", "serve_ingest": "ingest"}
WORKLOADS = (*FLEET_WORKLOADS, *SERVE_WORKLOADS)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint(seed: int, kernel_tier: str) -> dict:
    import numpy

    from repro.backends.native import _find_compiler

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "compiler": _find_compiler(),
        "kernel_tier": kernel_tier,
        "seed": seed,
    }


def tier_flag(kernel_tier: str) -> str | None:
    """A warning when the kernel tier differs from the recorded baseline's."""
    try:
        with open(BASELINE) as fh:
            recorded = json.load(fh)["fingerprint"]["kernel_tier"]
    except (OSError, KeyError, ValueError):
        return None
    if recorded != kernel_tier:
        return (f"FLAG: native kernel tier {kernel_tier!r} differs from the baseline's "
                f"{recorded!r}; these figures are not comparable with it")
    return None


def run_one(name: str, seed: int, seconds: float, trace: bool):
    import bench_fleet
    import bench_serve
    from bench_procs import child_pids, shm_segments, teardown_problems
    from bench_stats import Outcome

    children, shm = child_pids(), shm_segments()
    if trace:
        # Every traced run reports the whole ledger: each stack gets an
        # equal share of the time.
        out = Outcome()
        share = seconds / 5
        out.merge(bench_fleet.trace(seed, share))
        out.merge(bench_serve.trace(SRC, seed, share))
    elif name in FLEET_WORKLOADS:
        out = bench_fleet.run_workload(FLEET_WORKLOADS[name], seed, seconds)
    else:
        out = bench_serve.run_workload(SERVE_WORKLOADS[name], SRC, seed, seconds)
    out.problems.extend(teardown_problems(children, shm))
    return out


def print_outcome(name: str, out, trace: bool) -> None:
    title = "per-layer ledger" if trace else "end to end"
    print(f"== {name} ({title}) ==")
    for metric, value, unit, note in out.report:
        print(f"  {metric:<44} {value:>16.6g} {unit:<6} {note}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")


def result_line(out) -> dict:
    return {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repository sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    os.environ["TMPDIR"] = SCRATCH
    tempfile.tempdir = None
    sys.path.insert(0, SRC)

    import bench_fleet
    from bench_procs import stop_resource_tracker

    kernel_tier = bench_fleet.warm_native_kernel()
    print("fingerprint:", json.dumps(fingerprint(args.seed, kernel_tier)))
    flag = tier_flag(kernel_tier)
    if flag:
        print(flag)

    # The ledger covers every stack, so a traced "all" runs it once.
    names = WORKLOADS if args.workload == "all" and not args.trace else (args.workload,)
    ok = True
    try:
        for name in names:
            t0 = time.perf_counter()
            try:
                out = run_one(name, args.seed, args.seconds, bool(args.trace))
            except Exception as exc:  # noqa: BLE001 - a crash is a failed run, reported as one
                traceback.print_exc()
                from bench_stats import Outcome

                out = Outcome(attempted=1, failed=1, problems=[f"{type(exc).__name__}: {exc}"])
            if name == names[-1]:
                out.problems.extend(exit_problems())
            print_outcome(name, out, bool(args.trace))
            print(f"  ({time.perf_counter() - t0:.1f} s wall)")
            line = result_line(out)
            ok = ok and line["correct"]
            print(json.dumps(line))
    finally:
        stop_resource_tracker()
    return 0 if ok else 1


def exit_problems() -> list[str]:
    """Stops the resource tracker, the one child allowed to outlive a
    workload, then names every child process still alive."""
    from bench_procs import child_pids, stop_resource_tracker

    stop_resource_tracker()
    left = child_pids()
    return [f"child processes alive at exit: {sorted(left)}"] if left else []

if __name__ == "__main__":
    sys.exit(main())
