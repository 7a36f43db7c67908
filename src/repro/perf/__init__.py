"""Performance observatory: bench harness, snapshots, sentinel, export.

The perf subsystem turns the repo's throughput story into defended,
machine-readable artifacts, layered on :mod:`repro.telemetry`:

* :mod:`repro.perf.stats` — noise-aware summaries (median, MAD,
  bootstrap confidence intervals) for small wall-clock sample sets.
* :mod:`repro.perf.bench` — the harness: warmup + globally interleaved
  pinned repeats over the hot loops of every engine (functional,
  cycle-accurate pipeline, batch fleet, multi-pipeline) plus the
  telemetry-attached and ``ecc_tables=True`` variants, so
  instrumentation and ECC overhead are measured quantities.
* :mod:`repro.perf.snapshot` — schema-versioned ``BENCH_<n>.json``
  snapshots (per-engine samples/sec, cycles/sample, modelled MS/s at
  the paper's 189 MHz, overhead ratios, machine fingerprint).
* :mod:`repro.perf.fleet` — the fleet throughput sweeps: one paired
  candidate-vs-baseline timing loop with four variants (vectorized vs
  scalar, update rules, sharded workers, native kernel), each recorded
  under its own snapshot key (``fleet_throughput``, ``rule_throughput``,
  ``sharded_throughput``, ``native_throughput``).
* :mod:`repro.perf.serve` — the session-gateway saturation bench
  (sessions/sec, transitions/sec, p50/p99 action latency over live
  NDJSON TCP), recorded under a snapshot's ``serve_throughput`` key.
* :mod:`repro.perf.compare` — the regression sentinel: diffs two
  snapshots with ``max(rel_tol, k*MAD)`` thresholds and exits non-zero
  for CI gating.
* :mod:`repro.perf.metrics_export` — live export: an
  OpenMetrics/Prometheus text renderer over a
  :class:`~repro.telemetry.counters.CounterRegistry` and periodic
  emitters (JSON-lines append, OpenMetrics textfile) that a
  :class:`~repro.telemetry.session.TelemetrySession` pulses mid-run.
* :mod:`repro.perf.stagetime` — sampled per-stage wall-time
  attribution for :class:`~repro.core.pipeline.QTAccelPipeline`
  (timestamp every Nth cycle; off by default, pointer-test cost only).

CLI: ``python -m repro.perf {run,fleet,serve,compare,report}``.
"""

from .bench import BENCH_CASES, BenchResult, run_bench
from .compare import CompareResult, compare_snapshots, render_comparison
from .fleet import (
    LANE_COUNTS,
    SMOKE_LANE_COUNTS,
    SWEEPS,
    check_sweep,
    render_sweep,
    run_sweep,
)
from .metrics_export import (
    JsonlEmitter,
    OpenMetricsTextfileEmitter,
    escape_label_value,
    render_openmetrics,
    sanitize_metric_name,
    validate_openmetrics,
)
from .serve import render_serve_throughput, run_serve_throughput
from .snapshot import (
    SCHEMA,
    build_snapshot,
    load_snapshot,
    machine_fingerprint,
    next_bench_path,
    snapshot_from_profile,
    write_snapshot,
)
from .stagetime import StageTimer
from .stats import bootstrap_ci, mad, median, summarize

__all__ = [
    "BENCH_CASES",
    "BenchResult",
    "run_bench",
    "CompareResult",
    "compare_snapshots",
    "render_comparison",
    "LANE_COUNTS",
    "SMOKE_LANE_COUNTS",
    "SWEEPS",
    "check_sweep",
    "render_sweep",
    "run_sweep",
    "render_serve_throughput",
    "run_serve_throughput",
    "JsonlEmitter",
    "OpenMetricsTextfileEmitter",
    "escape_label_value",
    "render_openmetrics",
    "sanitize_metric_name",
    "validate_openmetrics",
    "SCHEMA",
    "build_snapshot",
    "load_snapshot",
    "machine_fingerprint",
    "next_bench_path",
    "snapshot_from_profile",
    "write_snapshot",
    "StageTimer",
    "bootstrap_ci",
    "mad",
    "median",
    "summarize",
]
