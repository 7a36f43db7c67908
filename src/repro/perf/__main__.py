"""CLI for the performance observatory.

Usage::

    python -m repro.perf run                      # next BENCH_<n>.json here
    python -m repro.perf run --output out.json --repeats 9
    python -m repro.perf run --fleet              # + fleet throughput sweep
    python -m repro.perf run --fleet --workers 1,2  # + sharded worker sweep
    python -m repro.perf run --fleet --native     # + native fused-kernel sweep
    python -m repro.perf run --rules              # + update-rule overhead sweep
    python -m repro.perf fleet --smoke --min-speedup 5
    python -m repro.perf fleet --smoke --rules all --max-rule-overhead 3
    python -m repro.perf fleet --backend native --min-speedup 3
    python -m repro.perf fleet --workers 2 --lanes 256 --min-speedup 2 --vs scalar
    python -m repro.perf serve --quick          # gateway saturation bench
    python -m repro.perf serve --quick --chaos  # + degraded (mid-recovery) bench
    python -m repro.perf compare BENCH_0.json BENCH_1.json
    python -m repro.perf report BENCH_1.json

``compare`` exits 0 when the sentinel passes, 1 on a regression, 2 on
usage errors — the contract the ``perf-regression`` CI job gates on.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BENCH_CASES, measure_stage_attribution, overhead_ratios, run_bench
from .compare import DEFAULT_K, DEFAULT_REL_TOL, compare_snapshots, render_comparison
from .fleet import (
    LANE_COUNTS,
    RULE_NAMES,
    SMOKE_LANE_COUNTS,
    SWEEPS,
    WORKER_COUNTS,
    check_sweep,
    render_sweep,
    run_sweep,
)
from .serve import render_serve_throughput, run_serve_throughput
from .snapshot import build_snapshot, load_snapshot, next_bench_path, write_snapshot


def _cmd_run(args) -> int:
    cases = args.cases.split(",") if args.cases else None
    results = run_bench(
        cases=cases, repeats=args.repeats, warmup=args.warmup, quick=args.quick
    )
    stage = None
    if not args.no_stages:
        stage = measure_stage_attribution(
            samples=400 if args.quick else 4_000, sample_every=args.stage_every
        )
    lanes = SMOKE_LANE_COUNTS if args.quick else LANE_COUNTS
    sweeps = {}
    if args.fleet:
        sweeps["fleet"] = run_sweep("fleet", lanes, quick=args.quick)
    if args.workers:
        sweeps["sharded"] = run_sweep(
            "sharded",
            _parse_workers(args.workers),
            n_lanes=256 if args.quick else 4096,
            quick=args.quick,
        )
    if args.rules:
        sweeps["rule"] = run_sweep("rule", quick=args.quick)
    if args.native:
        sweeps["native"] = run_sweep("native", lanes, quick=args.quick)
    serve = None
    if args.serve:
        serve = run_serve_throughput(quick=args.quick)
    snapshot = build_snapshot(
        results,
        config={"repeats": args.repeats, "warmup": args.warmup, "quick": args.quick},
        overheads=overhead_ratios(results),
        stage_attribution=stage,
        serve_throughput=serve,
        **{SWEEPS[name].key: record for name, record in sweeps.items()},
    )
    path = args.output if args.output else next_bench_path(".")
    write_snapshot(snapshot, path)
    print(render_snapshot(snapshot))
    print(f"\nsnapshot written to {path}")
    return 0


def _parse_workers(spec: str) -> list[int]:
    try:
        counts = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise KeyError(f"--workers: expected comma-separated ints, got {spec!r}")
    if not counts:
        raise KeyError(f"--workers: expected comma-separated ints, got {spec!r}")
    return counts


def _cmd_fleet(args) -> int:
    variants = [
        (flag, name)
        for flag, name, on in (
            ("--backend native", "native", args.backend == "native"),
            ("--rules", "rule", args.rules),
            ("--workers", "sharded", args.workers),
        )
        if on
    ]
    if len(variants) > 1:
        flags = " and ".join(flag for flag, _ in variants)
        raise KeyError(f"{flags} each pick a sweep; pass one")
    name = variants[0][1] if variants else "fleet"
    if args.max_rule_overhead is not None and name != "rule":
        raise KeyError("--max-rule-overhead gates the rule sweep; it needs --rules")
    if args.min_speedup is not None and name == "rule":
        raise KeyError("--min-speedup does not gate the rule sweep; use --max-rule-overhead")
    if args.vs is not None and name != "sharded":
        raise KeyError("--vs picks the sharded sweep's baseline; it needs --workers")

    if name == "rule":
        ladder = RULE_NAMES if args.rules == "all" else args.rules.split(",")
        n_lanes = min(args.lanes, 256)
    elif name == "sharded":
        ladder, n_lanes = _parse_workers(args.workers), args.lanes
    else:
        ladder, n_lanes = (SMOKE_LANE_COUNTS if args.smoke else LANE_COUNTS), None
    record = run_sweep(
        name, ladder, n_lanes=n_lanes, repeats=args.repeats, quick=args.smoke
    )
    print(render_sweep(name, record))
    if args.output:
        import json

        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nsweep written to {args.output}")
    bound = args.max_rule_overhead if name == "rule" else args.min_speedup
    if bound is None:
        return 0
    ratio = f"speedup_vs_{args.vs or 'scalar'}" if name == "sharded" else None
    ok, message = check_sweep(name, record, bound, ratio=ratio)
    print(message)
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    record = run_serve_throughput(
        engine=args.engine,
        lanes=args.lanes,
        concurrency=args.concurrency,
        sessions=args.sessions,
        transitions_per_session=args.transitions,
        num_workers=args.workers,
        quick=args.quick,
    )
    print(render_serve_throughput(record))
    if record.get("errors"):
        return 1
    degraded = None
    if args.chaos or args.trace:
        # Only the chaos run is traced: the healthy serve_throughput
        # record must stay comparable against untraced baselines, and
        # tracing cost has its own dedicated measurement below.
        degraded = run_serve_throughput(
            engine="sharded",
            lanes=args.lanes,
            concurrency=args.concurrency,
            sessions=args.sessions,
            transitions_per_session=args.transitions,
            num_workers=args.workers,
            quick=args.quick,
            chaos=True,
            trace_path=args.trace,
            recorder_dir=args.recorder_dir,
        )
        print()
        print(render_serve_throughput(degraded))
        if degraded.get("errors"):
            return 1
    overheads = None
    if not args.no_overhead:
        from ..telemetry.overhead import measure_serve_tracing_overhead

        entry = measure_serve_tracing_overhead(quick=args.quick)
        overheads = {"serve_tracing": entry}
        ratio, budget = entry.get("ratio"), entry.get("budget")
        print(
            f"\ntracing overhead: ratio {ratio:.4f} vs serve_untraced "
            f"(budget {budget}, 1-in-{entry.get('sample_stride')} sampling)"
        )
    snapshot = build_snapshot(
        {},
        source="serve-bench",
        config={"quick": args.quick},
        serve_throughput=record,
        degraded_throughput=degraded,
        overheads=overheads,
    )
    path = args.output if args.output else next_bench_path(".")
    write_snapshot(snapshot, path)
    print(f"\nsnapshot written to {path}")
    return 0


def _cmd_compare(args) -> int:
    try:
        base = load_snapshot(args.base)
        new = load_snapshot(args.new)
    except (OSError, ValueError) as exc:
        print(f"cannot load snapshot: {exc}", file=sys.stderr)
        return 2
    result = compare_snapshots(
        base, new, rel_tol=args.rel_tol, k=args.k, force_absolute=args.absolute
    )
    print(render_comparison(result))
    return 0 if result.ok else 1


def _cmd_report(args) -> int:
    try:
        snapshot = load_snapshot(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load snapshot: {exc}", file=sys.stderr)
        return 2
    print(render_snapshot(snapshot))
    return 0


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def render_snapshot(snapshot: dict) -> str:
    """Human-readable rendering of one snapshot."""
    out = ["== bench snapshot =="]
    out.append(f"schema: {snapshot.get('schema')}   source: {snapshot.get('source')}")
    machine = snapshot.get("machine") or {}
    out.append(
        "machine: "
        + " ".join(
            f"{k}={machine.get(k)}"
            for k in ("machine", "python", "numpy", "cpu_count")
        )
    )
    header = f"{'case':26s} {'median_s':>10s} {'mad_s':>10s} {'samp/s':>12s} {'cyc/samp':>9s} {'MS/s@189':>9s}"
    out.append(header)
    out.append("-" * len(header))
    for name, case in sorted((snapshot.get("cases") or {}).items()):
        sec = case.get("seconds") or {}
        out.append(
            f"{name:26s} {_fmt(sec.get('median')):>10s} {_fmt(sec.get('mad')):>10s} "
            f"{_fmt(case.get('samples_per_sec')):>12s} "
            f"{_fmt(case.get('cycles_per_sample')):>9s} "
            f"{_fmt(case.get('modelled_msps_at_189mhz')):>9s}"
        )
    overheads = snapshot.get("overheads") or {}
    if overheads:
        out.append("\noverheads (variant / baseline, per-sample):")
        for name, entry in sorted(overheads.items()):
            budget = entry.get("budget")
            tail = f" (budget {_fmt(budget)})" if budget is not None else " (informational)"
            out.append(
                f"  {name}: {_fmt(entry.get('ratio'))} vs {entry.get('baseline')}{tail}"
            )
    for name, spec in SWEEPS.items():
        if snapshot.get(spec.key):
            out.append("")
            out.append(render_sweep(name, snapshot[spec.key]))
    serve = snapshot.get("serve_throughput")
    if serve:
        out.append("")
        out.append(render_serve_throughput(serve))
    degraded = snapshot.get("degraded_throughput")
    if degraded:
        out.append("")
        out.append(render_serve_throughput(degraded))
    stage = snapshot.get("stage_attribution")
    if stage:
        fr = stage.get("fractions") or {}
        out.append(
            f"\nstage wall-time attribution (every {stage.get('sample_every')} cycles, "
            f"{stage.get('sampled_cycles')} sampled): "
            + "  ".join(f"{s}={_fmt(fr.get(s))}" for s in ("S1", "S2", "S3", "S4"))
        )
    device = snapshot.get("device")
    if device:
        out.append("\ndevice model: " + "  ".join(f"{k}={_fmt(v)}" for k, v in sorted(device.items())))
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="QTAccel performance observatory: bench, compare, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the bench harness and write a snapshot")
    p_run.add_argument(
        "--output", metavar="PATH", help="snapshot path (default: next BENCH_<n>.json in .)"
    )
    p_run.add_argument("--repeats", type=int, default=7, help="timed repeats per case")
    p_run.add_argument("--warmup", type=int, default=2, help="untimed warmup runs per case")
    p_run.add_argument(
        "--quick", action="store_true", help="tiny workloads (CI smoke / tests)"
    )
    p_run.add_argument(
        "--cases",
        metavar="A,B,...",
        help=f"comma-separated subset of: {','.join(sorted(BENCH_CASES))}",
    )
    p_run.add_argument(
        "--stage-every",
        type=int,
        default=16,
        metavar="N",
        help="stage-attribution sampling period in cycles",
    )
    p_run.add_argument(
        "--no-stages", action="store_true", help="skip the stage-attribution pass"
    )
    p_run.add_argument(
        "--fleet",
        action="store_true",
        help="also run the scalar-vs-vectorized fleet throughput sweep "
        "(recorded under the snapshot's fleet_throughput key)",
    )
    p_run.add_argument(
        "--workers",
        metavar="A,B,...",
        help="also run the sharded worker-count sweep at these worker counts "
        "(recorded under the snapshot's sharded_throughput key)",
    )
    p_run.add_argument(
        "--rules",
        action="store_true",
        help="also run the per-update-rule vectorized throughput sweep "
        "(recorded under the snapshot's rule_throughput key)",
    )
    p_run.add_argument(
        "--native",
        action="store_true",
        help="also run the native fused-kernel sweep "
        "(recorded under the snapshot's native_throughput key)",
    )
    p_run.add_argument(
        "--serve",
        action="store_true",
        help="also run the session-gateway saturation bench "
        "(recorded under the snapshot's serve_throughput key)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve", help="session-gateway saturation bench (sessions/sec, act p99)"
    )
    p_serve.add_argument(
        "--engine", default="vectorized", choices=("vectorized", "scalar", "sharded")
    )
    p_serve.add_argument("--lanes", type=int, default=32)
    p_serve.add_argument("--concurrency", type=int, default=8, help="client threads")
    p_serve.add_argument("--sessions", type=int, default=48, help="session workloads")
    p_serve.add_argument(
        "--transitions", type=int, default=256, help="learns per session"
    )
    p_serve.add_argument("--workers", type=int, default=2, help="sharded workers")
    p_serve.add_argument(
        "--quick", action="store_true", help="tiny load (CI smoke / tests)"
    )
    p_serve.add_argument(
        "--chaos",
        action="store_true",
        help="also run the degraded bench: the same load on a sharded "
        "backend with worker 0 SIGSTOP'd, timed through the watchdog's "
        "kill/restart/replay recovery (recorded under degraded_throughput)",
    )
    p_serve.add_argument(
        "--trace",
        metavar="PATH",
        help="run the chaos bench fully traced (sample 1.0) and write the "
        "merged client/gateway/session/shard timeline as a Chrome "
        "trace_event file at PATH (implies --chaos)",
    )
    p_serve.add_argument(
        "--recorder-dir",
        metavar="DIR",
        help="attach a flight recorder to the traced chaos bench and dump "
        "it (events + spans) under DIR",
    )
    p_serve.add_argument(
        "--no-overhead",
        action="store_true",
        help="skip the tracing-overhead measurement (overheads.serve_tracing)",
    )
    p_serve.add_argument(
        "--output", metavar="PATH", help="snapshot path (default: next BENCH_<n>.json in .)"
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="paired fleet throughput sweep: vectorized vs scalar by default; "
        "--rules, --workers or --backend native pick the other variants",
    )
    p_fleet.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI smoke: tiny workloads, lane counts {SMOKE_LANE_COUNTS}",
    )
    p_fleet.add_argument(
        "--repeats", type=int, default=3, help="timed repeats per lane count"
    )
    p_fleet.add_argument(
        "--min-speedup",
        type=float,
        metavar="X",
        help="exit 1 unless the largest lane count (or worker count, with "
        "--workers) reaches X x speedup (not with --rules)",
    )
    p_fleet.add_argument(
        "--backend",
        choices=("auto", "native"),
        default="auto",
        help="'native' runs the fused-kernel sweep (native vs vectorized) "
        "instead of the scalar-vs-vectorized sweep",
    )
    p_fleet.add_argument(
        "--workers",
        metavar="A,B,...",
        help="run the sharded worker-count sweep instead (e.g. 1,2,4; "
        f"full-run default ladder is {WORKER_COUNTS})",
    )
    p_fleet.add_argument(
        "--lanes",
        type=int,
        default=4096,
        metavar="N",
        help="lane count for the sharded sweep (default 4096) and the rule "
        "sweep (capped at 256)",
    )
    p_fleet.add_argument(
        "--vs",
        choices=("scalar", "vectorized"),
        help="with --workers: which baseline the --min-speedup gate compares "
        "against (default scalar, which is machine-portable; vectorized "
        "needs a multi-core host)",
    )
    p_fleet.add_argument(
        "--rules",
        metavar="A,B,...|all",
        help="run the per-update-rule vectorized throughput sweep instead "
        f"(registered rules: {','.join(RULE_NAMES)})",
    )
    p_fleet.add_argument(
        "--max-rule-overhead",
        type=float,
        metavar="X",
        help="with --rules: exit 1 if any rule's per-update overhead vs "
        "plain Q-Learning exceeds X",
    )
    p_fleet.add_argument("--output", metavar="PATH", help="write the sweep json here")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_cmp = sub.add_parser("compare", help="regression sentinel over two snapshots")
    p_cmp.add_argument("base", help="baseline snapshot (e.g. BENCH_0.json)")
    p_cmp.add_argument("new", help="candidate snapshot")
    p_cmp.add_argument(
        "--rel-tol",
        type=float,
        default=DEFAULT_REL_TOL,
        help="relative slowdown tolerated before failing",
    )
    p_cmp.add_argument(
        "--k", type=float, default=DEFAULT_K, help="MAD multiplier in the threshold"
    )
    p_cmp.add_argument(
        "--absolute",
        action="store_true",
        help="gate wall-clock even across differing machine fingerprints",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_rep = sub.add_parser("report", help="render one snapshot as text")
    p_rep.add_argument("path", help="snapshot .json")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except BrokenPipeError:  # |head and friends — not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
