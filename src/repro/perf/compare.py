"""The regression sentinel: diff two bench snapshots, gate CI.

For every case present in both snapshots the sentinel compares median
wall-clock with a noise-aware threshold::

    regression  iff  new_median - base_median > max(rel_tol * base_median,
                                                    k * max(base_mad, new_mad))

``rel_tol`` absorbs run-to-run jitter the MAD underestimates on tiny
repeat counts; ``k * MAD`` widens the gate when a snapshot admits (via
its own spread) that its central estimate is soft.  Improvements are
reported, never fatal.

Wall-clock gating only applies when the two machine fingerprints match
— a laptop baseline must not fail a CI runner for being a slower
computer.  Three families gate regardless of machine:

* ``cycles_per_sample`` — deterministic; any increase beyond a strict
  tolerance is an architectural regression, not noise;
* overhead ``ratio``s — relative measures taken on one machine, checked
  against their recorded ``budget`` (the telemetry budget pins the
  documented <5% claim);
* fleet-sweep ratios (every key in :data:`repro.perf.fleet.SWEEPS`:
  ``speedup``, ``overhead``, ``speedup_vs_*``) — paired same-process
  measures, checked against the baseline snapshot's within
  ``SWEEP_REL_TOL``.

Every banded verdict (time, cycles, serve, sweeps) goes through one
rule, :func:`_banded`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .fleet import SWEEPS, Sweep, gate_points
from .snapshot import fingerprints_match

#: Default relative slowdown tolerated before a wall-clock regression.
DEFAULT_REL_TOL = 0.10

#: Default MAD multiplier in the threshold.
DEFAULT_K = 4.0

#: Deterministic cycle counts get a much tighter relative gate.
CYCLES_REL_TOL = 0.01

#: Serve-path throughput tolerance: loopback sockets + thread scheduling
#: are far noisier than numpy loops, so the gate is wider than rel_tol.
SERVE_REL_TOL = 0.25

#: Serve p99 action latency may double before the sentinel calls it a
#: regression (tail latency on a busy CI host is the noisiest number
#: the observatory records).
SERVE_P99_REL_TOL = 1.00

#: Fleet-sweep band.  The sweep ratios are same-process relative
#: measures (both sides timed back-to-back on one machine), so they gate
#: across fingerprints — but they still move with cache pressure and
#: core count, hence a wide band.  Absolute updates/sec share it.
SWEEP_REL_TOL = 0.25

#: Sweep record fields that define its shape; records that differ in
#: any of them (where present) are not comparable.
SWEEP_SHAPE_KEYS = ("quick", "kernel", "n_lanes", "cpu_count")


@dataclass
class Finding:
    """One sentinel verdict line."""

    kind: str  # "time" | "cycles" | "ratio" | "budget" | "info"
    case: str
    verdict: str  # "ok" | "regression" | "improvement" | "skipped"
    detail: str

    @property
    def failed(self) -> bool:
        return self.verdict == "regression"


@dataclass
class CompareResult:
    """Everything the CLI renders; ``ok`` drives the exit code."""

    base_source: str
    new_source: str
    same_machine: bool
    findings: list[Finding] = field(default_factory=list)

    @property
    def regressions(self) -> list[Finding]:
        return [f for f in self.findings if f.failed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _median_mad(case: dict) -> tuple[Optional[float], float]:
    sec = case.get("seconds")
    if not isinstance(sec, dict) or sec.get("median") is None:
        return None, 0.0
    return float(sec["median"]), float(sec.get("mad") or 0.0)


def compare_snapshots(
    base: dict,
    new: dict,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    k: float = DEFAULT_K,
    force_absolute: bool = False,
) -> CompareResult:
    """Run the sentinel over two loaded snapshots."""
    if rel_tol < 0 or k < 0:
        raise ValueError("rel_tol and k must be non-negative")
    same_machine = fingerprints_match(base.get("machine"), new.get("machine"))
    gate_time = same_machine or force_absolute
    result = CompareResult(
        base_source=base.get("source", "?"),
        new_source=new.get("source", "?"),
        same_machine=same_machine,
    )
    findings = result.findings

    base_cases = base.get("cases", {})
    new_cases = new.get("cases", {})
    shared = sorted(set(base_cases) & set(new_cases))
    for name in sorted(set(base_cases) - set(new_cases)):
        findings.append(Finding("info", name, "skipped", "case missing from new snapshot"))
    for name in sorted(set(new_cases) - set(base_cases)):
        findings.append(Finding("info", name, "skipped", "case new in this snapshot"))

    for name in shared:
        b, n = base_cases[name], new_cases[name]

        # Wall-clock medians (machine-bound).
        b_med, b_mad = _median_mad(b)
        n_med, n_mad = _median_mad(n)
        if b_med is not None and n_med is not None:
            if not gate_time:
                findings.append(
                    Finding(
                        "time",
                        name,
                        "skipped",
                        "different machine fingerprint; wall-clock not gated "
                        "(use --absolute to force)",
                    )
                )
            else:
                threshold = max(rel_tol * b_med, k * max(b_mad, n_mad))
                findings.append(
                    _banded("time", name, "median", b_med, n_med, threshold / b_med,
                            lower_is_better=True, unit="s")
                )

        # Cycle counts (deterministic, machine-independent).
        b_cps, n_cps = b.get("cycles_per_sample"), n.get("cycles_per_sample")
        if b_cps and n_cps is not None:
            findings.append(
                _banded("cycles", name, "cycles/sample", b_cps, n_cps, CYCLES_REL_TOL,
                        lower_is_better=True)
            )

    # Serve-path throughput and latency (wall-clock; machine-bound),
    # healthy and degraded (mid-recovery) alike.
    _compare_serve(
        base.get("serve_throughput"),
        new.get("serve_throughput"),
        gate_time=gate_time,
        findings=findings,
    )
    _compare_serve(
        base.get("degraded_throughput"),
        new.get("degraded_throughput"),
        gate_time=gate_time,
        findings=findings,
        label="degraded",
    )

    # Fleet sweeps (ratios machine-portable; updates/sec machine-bound).
    for spec in SWEEPS.values():
        _compare_sweep(
            spec, base.get(spec.key), new.get(spec.key),
            gate_time=gate_time, findings=findings,
        )

    # Overhead budgets (relative; machine-independent).
    new_over = new.get("overheads", {})
    base_over = base.get("overheads", {})
    for name in sorted(set(new_over) | set(base_over)):
        entry = new_over.get(name)
        if entry is None:
            findings.append(
                Finding("budget", name, "skipped", "overhead not measured in new snapshot")
            )
            continue
        ratio = entry.get("ratio")
        budget = entry.get("budget")
        if budget is None and name in base_over:
            budget = base_over[name].get("budget")
        if ratio is None:
            findings.append(Finding("budget", name, "skipped", "no ratio recorded"))
            continue
        b_ratio = (base_over.get(name) or {}).get("ratio")
        trend = f" (baseline {b_ratio:.4g})" if b_ratio is not None else ""
        if budget is None:
            findings.append(
                Finding("budget", name, "ok", f"ratio {ratio:.4g}{trend}; informational")
            )
        elif ratio > budget:
            findings.append(
                Finding(
                    "budget",
                    name,
                    "regression",
                    f"ratio {ratio:.4g} exceeds budget {budget:.4g}{trend}",
                )
            )
        else:
            findings.append(
                Finding("budget", name, "ok", f"ratio {ratio:.4g} within budget {budget:.4g}{trend}")
            )

    return result


def _banded(
    kind: str,
    case: str,
    what: str,
    base: float,
    new: float,
    band: float,
    *,
    lower_is_better: bool = False,
    gain_band: Optional[float] = None,
    unit: str = "",
) -> Finding:
    """Judge ``new`` against a positive ``base`` with relative bands.

    Moving more than ``band`` the bad way is a regression; moving more
    than ``gain_band`` (default ``band``) the good way is an improvement;
    anything between is ok.
    """
    gain = band if gain_band is None else gain_band
    change = (new - base) / base
    better = -change if lower_is_better else change
    verdict = "regression" if better < -band else "improvement" if better > gain else "ok"
    bound = f"ceiling +{100 * band:.3g}%" if lower_is_better else f"floor -{100 * band:.3g}%"
    detail = f"{what} {base:.4g}{unit} -> {new:.4g}{unit} ({100 * change:+.1f}%, {bound})"
    return Finding(kind, case, verdict, detail)


def _both_present(label: str, base, new, findings: list) -> bool:
    """True when both snapshots carry the record; else note which lacks it."""
    if base is not None and new is not None:
        return True
    if base is not None or new is not None:
        where = "new in this snapshot" if base is None else "missing from new snapshot"
        findings.append(Finding("info", label, "skipped", f"{label} bench {where}"))
    return False


def _compare_serve(
    base: Optional[dict],
    new: Optional[dict],
    *,
    gate_time: bool,
    findings: list,
    label: str = "serve",
) -> None:
    """Sentinel findings for one serve-bench snapshot key.

    Used for both ``serve_throughput`` (``label="serve"``) and its
    chaos-mode twin ``degraded_throughput`` (``label="degraded"``, the
    same workload timed through a hung-worker recovery).  Throughput
    (sessions/sec, transitions/sec) regresses when it drops by more
    than ``SERVE_REL_TOL``; p99 action latency regresses when it grows
    by more than ``SERVE_P99_REL_TOL``.  Both are wall-clock numbers,
    so — like case timings — they only gate when the machine
    fingerprints match.  Records taken at different load shapes
    (engine/lanes/concurrency, healthy vs chaos) are not comparable
    and are skipped.
    """
    if not _both_present(label, base, new, findings):
        return
    if not gate_time:
        findings.append(
            Finding(
                "time",
                label,
                "skipped",
                f"different machine fingerprint; {label} throughput not gated",
            )
        )
        return
    shape_keys = (
        "engine", "lanes", "concurrency", "sessions",
        "transitions_per_session", "chaos",
    )
    if any(base.get(k) != new.get(k) for k in shape_keys):
        findings.append(
            Finding(
                "time",
                label,
                "skipped",
                f"{label} bench shapes differ between snapshots; not comparable",
            )
        )
        return

    for metric in ("sessions_per_sec", "transitions_per_sec"):
        b, n = base.get(metric), new.get(metric)
        if b is None or n is None or b <= 0:
            continue
        findings.append(_banded("time", f"{label}.{metric}", metric, b, n, SERVE_REL_TOL))

    b_p99 = (base.get("act_latency_ms") or {}).get("p99")
    n_p99 = (new.get("act_latency_ms") or {}).get("p99")
    if b_p99 and n_p99:
        findings.append(
            _banded("time", f"{label}.act_p99", "act p99", b_p99, n_p99,
                    SERVE_P99_REL_TOL, lower_is_better=True,
                    gain_band=SERVE_REL_TOL, unit="ms")
        )


def _compare_sweep(
    spec: Sweep,
    base: Optional[dict],
    new: Optional[dict],
    *,
    gate_time: bool,
    findings: list,
) -> None:
    """Sentinel findings for one fleet-sweep snapshot key.

    The ratios (``spec.ratios``) are two back-to-back timings in one
    process, so they gate across machine fingerprints, within
    ``SWEEP_REL_TOL``; the candidate's absolute ``updates_per_sec`` is
    wall-clock and gates only when the fingerprints match.  Both are
    read at the points the sweep's CLI gate reads (the largest ladder
    point; every rule of the rule sweep).  Records whose shape fields
    (``SWEEP_SHAPE_KEYS``) differ are not comparable and are skipped.
    """
    label = spec.name
    if not _both_present(label, base, new, findings):
        return
    if any(base.get(k) != new.get(k) for k in SWEEP_SHAPE_KEYS):
        findings.append(
            Finding(
                "time",
                label,
                "skipped",
                f"{label} sweep shapes differ ({', '.join(SWEEP_SHAPE_KEYS)}); "
                "not comparable",
            )
        )
        return
    b_points, n_points = base.get("points") or {}, new.get("points") or {}
    common = [key for key in b_points if key in n_points]
    if not common:
        findings.append(
            Finding("time", label, "skipped", f"no common {spec.axis} between sweeps")
        )
        return
    for key in gate_points(spec, common):
        b_pt, n_pt = b_points[key], n_points[key]
        for field in spec.ratios:
            b, n = b_pt.get(field), n_pt.get(field)
            if b and n:
                findings.append(
                    _banded("ratio", f"{label}.{field}@{key}", field, b, n,
                            SWEEP_REL_TOL, lower_is_better=spec.lower_is_better,
                            unit="x")
                )
        side = spec.candidate.engine
        b_ups = spec.side(b_pt, side).get("updates_per_sec")
        n_ups = spec.side(n_pt, side).get("updates_per_sec")
        if not (b_ups and n_ups):
            continue
        case = f"{label}.updates_per_sec@{key}"
        if gate_time:
            findings.append(
                _banded("time", case, f"{side} updates/s", b_ups, n_ups, SWEEP_REL_TOL)
            )
        else:
            findings.append(
                Finding("time", case, "skipped",
                        f"different machine fingerprint; {label} wall-clock not gated")
            )


def render_comparison(result: CompareResult) -> str:
    """Human-readable sentinel report."""
    out = ["== perf sentinel =="]
    out.append(f"base: {result.base_source}   new: {result.new_source}")
    out.append(
        "machine fingerprints match — wall-clock gated"
        if result.same_machine
        else "machine fingerprints differ — wall-clock informational only"
    )
    width = max((len(f.case) for f in result.findings), default=4)
    mark = {"ok": " ok ", "regression": "FAIL", "improvement": "GAIN", "skipped": "skip"}
    for f in result.findings:
        out.append(f"[{mark[f.verdict]}] {f.kind:7s} {f.case.ljust(width)}  {f.detail}")
    n_fail = len(result.regressions)
    out.append(
        "sentinel: PASS (no regressions)"
        if result.ok
        else f"sentinel: FAIL ({n_fail} regression{'s' if n_fail != 1 else ''})"
    )
    return "\n".join(out)
