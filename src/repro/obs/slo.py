"""Per-tenant SLO accounting over the telemetry counter registry.

The gateway feeds two instrument families into the registry it already
exposes on ``/metrics``:

* ``serve.slo.<tenant>.<op>.latency_ms`` — a latency histogram per
  tenant per op, with millisecond-scale bounds (the registry default
  bounds are integer-bucket counts, useless for latency);
* ``serve.slo.<tenant>.errors.<code>`` — error-budget counters
  (``deadline_exceeded``, ``throttled``, ``at_capacity``, retries, …).

:func:`slo_report` turns a flat counter dump — a registry ``as_dict()``,
a telemetry profile JSON, or OpenMetrics exposition text parsed by
:func:`repro.perf.metrics_export.counters_from_openmetrics` — into per-tenant p50/p95/p99 and
error totals, and scores them against a threshold file for the
``python -m repro.obs report --slo`` gate.

Threshold file shape (JSON)::

    {
        "default": {"p50_ms": 5, "p95_ms": 25, "p99_ms": 100,
                     "max_errors": {"deadline_exceeded": 0}},
        "tenants": {"tenant_a": {"p99_ms": 10}}
    }

Per-tenant entries override ``default`` key-by-key.  ``max_errors``
caps the *total* count of one error code for that tenant.
"""

from __future__ import annotations

import math
import re
from typing import Optional

#: Millisecond histogram bounds for serve-path latencies: 50us..5s.
SLO_LATENCY_BOUNDS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: Namespace prefix for every SLO instrument.
SLO_PREFIX = "serve.slo"

#: Tenant label applied when a request carries no tenant identity.
DEFAULT_TENANT = "anon"

_TENANT_SAFE = re.compile(r"[^A-Za-z0-9_-]")


def sanitize_tenant(tenant: Optional[str]) -> str:
    """A registry-safe tenant label (dots would split the counter tree)."""
    if not tenant or not isinstance(tenant, str):
        return DEFAULT_TENANT
    safe = _TENANT_SAFE.sub("_", tenant.strip())[:48]
    return safe or DEFAULT_TENANT


class SloTracker:
    """Writes per-tenant latency histograms + error budgets to a registry."""

    def __init__(self, registry, *, prefix: str = SLO_PREFIX):
        self.registry = registry
        self.prefix = prefix
        self._latency = {}
        self._errors = {}

    def observe(self, tenant: Optional[str], op: str, latency_ms: float) -> None:
        key = (tenant, op)
        hist = self._latency.get(key)
        if hist is None:
            safe = sanitize_tenant(tenant)
            hist = self.registry.histogram(
                f"{self.prefix}.{safe}.{op}.latency_ms",
                bounds=SLO_LATENCY_BOUNDS_MS,
            )
            self._latency[key] = hist
        hist.observe(latency_ms)

    def error(self, tenant: Optional[str], code: str, n: int = 1) -> None:
        key = (tenant, code)
        counter = self._errors.get(key)
        if counter is None:
            safe = sanitize_tenant(tenant)
            counter = self.registry.counter(
                f"{self.prefix}.{safe}.errors.{code}"
            )
            self._errors[key] = counter
        counter.inc(n)


def histogram_percentile(summary: dict, q: float) -> Optional[float]:
    """Linear-interpolated percentile from a histogram summary dict.

    ``summary`` is the registry's histogram ``summary()`` shape:
    ``{"count", "min", "max", "buckets": {"le_<bound>": n, ...,
    "overflow": n}}``.  Returns ``None`` for an empty histogram.
    """
    count = summary.get("count") or 0
    if count <= 0:
        return None
    buckets = summary.get("buckets") or {}
    pairs: list[tuple[float, int]] = []
    overflow = 0
    for key, n in buckets.items():
        if key == "overflow":
            overflow = int(n)
        elif key.startswith("le_"):
            pairs.append((float(key[3:]), int(n)))
    pairs.sort()
    target = q * count
    lo = summary.get("min") or 0.0
    cum = 0
    prev_bound = lo
    for bound, n in pairs:
        if n and cum + n >= target:
            frac = (target - cum) / n
            return prev_bound + (bound - prev_bound) * max(0.0, min(1.0, frac))
        cum += n
        if n:
            prev_bound = bound
    # Percentile falls in the overflow bucket: clamp to the observed max.
    # An OpenMetrics scrape carries no max, so there the percentile is
    # unbounded — it must exceed every finite budget, not vanish.
    if overflow:
        top = summary.get("max")
        return math.inf if top is None else top
    return pairs[-1][0] if pairs else summary.get("max")


def _split_slo_key(name: str, prefix: str) -> Optional[tuple[str, str, str]]:
    """``serve.slo.<tenant>.<rest...>`` -> (tenant, kind, detail)."""
    if not name.startswith(prefix + "."):
        return None
    rest = name[len(prefix) + 1 :].split(".")
    if len(rest) >= 3 and rest[-1] == "latency_ms":
        return rest[0], "latency", ".".join(rest[1:-1])
    if len(rest) >= 3 and rest[1] == "errors":
        return rest[0], "error", ".".join(rest[2:])
    return None


def slo_report(counters: dict, *, prefix: str = SLO_PREFIX) -> dict:
    """Summarize a flat counter dict into per-tenant SLO numbers."""
    tenants: dict[str, dict] = {}
    for name, value in counters.items():
        parsed = _split_slo_key(name, prefix)
        if parsed is None:
            continue
        tenant, kind, detail = parsed
        entry = tenants.setdefault(tenant, {"ops": {}, "errors": {}})
        if kind == "latency" and isinstance(value, dict):
            entry["ops"][detail] = {
                "count": value.get("count", 0),
                "p50_ms": histogram_percentile(value, 0.50),
                "p95_ms": histogram_percentile(value, 0.95),
                "p99_ms": histogram_percentile(value, 0.99),
                "max_ms": value.get("max"),
            }
        elif kind == "error" and isinstance(value, (int, float)):
            entry["errors"][detail] = entry["errors"].get(detail, 0) + int(value)
    return {"tenants": tenants}


def check_slo(report: dict, thresholds: dict) -> list[str]:
    """Violations of a threshold file against a :func:`slo_report`."""
    default = thresholds.get("default") or {}
    per_tenant = thresholds.get("tenants") or {}
    violations: list[str] = []
    for tenant, entry in sorted(report.get("tenants", {}).items()):
        limits = dict(default)
        limits.update(per_tenant.get(tenant) or {})
        for op, stats in sorted(entry.get("ops", {}).items()):
            for pct in ("p50", "p95", "p99"):
                limit = limits.get(f"{pct}_ms")
                got = stats.get(f"{pct}_ms")
                if limit is not None and got is not None and got > limit:
                    shown = (
                        "beyond the largest bucket" if math.isinf(got) else f"{got:.3f}ms"
                    )
                    violations.append(
                        f"{tenant}/{op}: {pct} {shown} exceeds budget {limit:.3f}ms"
                    )
        max_errors = limits.get("max_errors") or {}
        for code, cap in sorted(max_errors.items()):
            got = entry.get("errors", {}).get(code, 0)
            if got > cap:
                violations.append(
                    f"{tenant}: error budget burned — {code} {got} > {cap}"
                )
    return violations
