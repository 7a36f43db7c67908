"""Observability for the QTAccel reproduction: one package, one CLI.

The paper's headline claims — one retirement per cycle after fill, zero
stalls under full forwarding — are measured per run here, and the
serving stack built on the accelerator is traced across processes:

* :mod:`~repro.telemetry.counters` — :class:`CounterRegistry` (counters,
  gauges, histograms; near-zero cost when detached) and its OpenMetrics
  codec;
* :mod:`~repro.telemetry.tracing` — one bounded :class:`TraceRing` for
  per-cycle pipeline :class:`TraceEvent` records and the serve stack's
  :class:`Span` trees (:class:`Tracer`, wire propagation);
* :mod:`~repro.telemetry.export` — one Chrome ``trace_event`` renderer,
  validator and writer for both record kinds, plus profile JSON/CSV;
* :mod:`~repro.telemetry.session` — :class:`TelemetrySession`, which
  attaches to the engines, and the live emitters it pulses mid-run;
* :mod:`~repro.telemetry.invariants` — :func:`verify_paper_invariants`;
* :mod:`~repro.telemetry.slo`, :mod:`~repro.telemetry.recorder`,
  :mod:`~repro.telemetry.overhead` — per-tenant SLO budgets, the
  crash-safe on-disk :class:`FlightRecorder`, the ≤5% tracing budget;
* ``python -m repro.telemetry {profile,slo,trace}`` — the CLI.

Quick use::

    from repro.telemetry import TelemetrySession

    with TelemetrySession() as tel:
        pipe = QTAccelPipeline(mdp, config)   # auto-attached
        pipe.run(100_000)
    tel.export_chrome_trace("run.trace.json")
    tel.export_profile("run.profile.json")
"""

from .counters import (
    NULL_REGISTRY,
    Counter,
    CounterRegistry,
    Gauge,
    Histogram,
    counters_from_openmetrics,
    escape_label_value,
    render_openmetrics,
    sanitize_metric_name,
    validate_openmetrics,
)
from .export import (
    chrome_trace,
    flatten_profile,
    validate_chrome_trace,
    write_chrome_trace,
    write_profile_csv,
    write_profile_json,
)
from .invariants import InvariantReport, verify_paper_invariants
from .recorder import FlightRecorder, open_recorder
from .session import (
    JsonlEmitter,
    OpenMetricsTextfileEmitter,
    TelemetrySession,
    current_session,
)
from .slo import DEFAULT_TENANT, SloTracker, check_slo, sanitize_tenant, slo_report
from .tracing import (
    Span,
    TraceContext,
    TraceEvent,
    TraceRing,
    Tracer,
    ctx_from_wire,
    ctx_to_wire,
    merge_spans,
    validate_span_tree,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "CounterRegistry",
    "NULL_REGISTRY",
    "render_openmetrics",
    "counters_from_openmetrics",
    "validate_openmetrics",
    "sanitize_metric_name",
    "escape_label_value",
    "TraceEvent",
    "TraceRing",
    "Span",
    "TraceContext",
    "Tracer",
    "ctx_to_wire",
    "ctx_from_wire",
    "merge_spans",
    "validate_span_tree",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_profile_json",
    "write_profile_csv",
    "flatten_profile",
    "TelemetrySession",
    "current_session",
    "JsonlEmitter",
    "OpenMetricsTextfileEmitter",
    "InvariantReport",
    "verify_paper_invariants",
    "SloTracker",
    "DEFAULT_TENANT",
    "sanitize_tenant",
    "slo_report",
    "check_slo",
    "FlightRecorder",
    "open_recorder",
]
