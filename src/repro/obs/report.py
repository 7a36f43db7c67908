"""SLO reporting: counters in, per-tenant report + threshold gate out.

Backs ``python -m repro.obs report``.  The input is any of the counter
surfaces the stack already produces — OpenMetrics exposition text (a
saved ``/metrics`` scrape, or ``--url`` to scrape a live gateway), a
telemetry profile JSON, or a raw registry ``as_dict()`` JSON — sniffed
automatically, so the CLI works against whatever artifact a run left
behind.  With ``--slo thresholds.json`` the report is scored by
:func:`repro.obs.slo.check_slo` and the process exits non-zero on any
budget burn, which is what lets CI gate on it.
"""

from __future__ import annotations

import json
from typing import Optional

from ..perf.metrics_export import counters_from_openmetrics
from .slo import check_slo, slo_report


def load_counters(text: str) -> dict:
    """Sniff + parse one counters source into a flat counter dict.

    Accepts OpenMetrics exposition text, a telemetry profile JSON
    (flat counters under a ``"counters"`` key), or a raw registry
    ``as_dict()`` JSON.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("counters JSON must be an object")
        counters = payload.get("counters")
        if isinstance(counters, dict):
            return counters
        return payload
    return counters_from_openmetrics(text)


def read_source(source: str) -> str:
    """The text of ``source``: a file path, ``-`` for stdin, or a URL."""
    if source == "-":
        import sys

        return sys.stdin.read()
    if source.startswith(("http://", "https://")):
        from urllib.request import urlopen

        with urlopen(source, timeout=10) as resp:  # noqa: S310 - user-given URL
            return resp.read().decode("utf-8", "replace")
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def render_report(report: dict, violations: Optional[list[str]] = None) -> str:
    """Human-readable rendering of one :func:`slo_report`."""

    def _ms(v) -> str:
        return f"{v:8.3f}" if isinstance(v, (int, float)) else "       -"

    out = ["== per-tenant SLO report =="]
    tenants = report.get("tenants", {})
    if not tenants:
        out.append("(no serve.slo.* instruments found in the source)")
    for tenant, entry in sorted(tenants.items()):
        out.append(f"tenant {tenant}:")
        ops = entry.get("ops", {})
        if ops:
            out.append(
                f"  {'op':12s} {'count':>8s} {'p50_ms':>8s} {'p95_ms':>8s} "
                f"{'p99_ms':>8s} {'max_ms':>8s}"
            )
            for op, stats in sorted(ops.items()):
                out.append(
                    f"  {op:12s} {stats.get('count', 0):>8d}"
                    f" {_ms(stats.get('p50_ms'))} {_ms(stats.get('p95_ms'))}"
                    f" {_ms(stats.get('p99_ms'))} {_ms(stats.get('max_ms'))}"
                )
        errors = {k: v for k, v in sorted(entry.get("errors", {}).items()) if v}
        if errors:
            out.append(
                "  errors: "
                + "  ".join(f"{code}={n}" for code, n in errors.items())
            )
    if violations is not None:
        if violations:
            out.append("")
            out.append(f"SLO VIOLATIONS ({len(violations)}):")
            out.extend(f"  - {v}" for v in violations)
        else:
            out.append("")
            out.append("all SLO budgets met")
    return "\n".join(out)


def run_report(
    source: str,
    *,
    slo_path: Optional[str] = None,
    as_json: bool = False,
) -> tuple[int, str]:
    """The ``report`` subcommand: returns ``(exit_code, output_text)``."""
    counters = load_counters(read_source(source))
    report = slo_report(counters)
    violations: Optional[list[str]] = None
    if slo_path is not None:
        with open(slo_path, "r", encoding="utf-8") as fh:
            thresholds = json.load(fh)
        violations = check_slo(report, thresholds)
    if as_json:
        payload = dict(report)
        if violations is not None:
            payload["violations"] = violations
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = render_report(report, violations)
    return (1 if violations else 0), text
