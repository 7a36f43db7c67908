"""``python -m repro.telemetry`` — read what an instrumented run left behind.

Usage::

    python -m repro.telemetry profile run.profile.json [--counters]
    python -m repro.telemetry profile run.trace.json         # event digest
    python -m repro.telemetry profile old.profile.json new.profile.json
    python -m repro.telemetry slo metrics.txt --slo thresholds.json
    python -m repro.telemetry slo --url http://127.0.0.1:9100/metrics
    python -m repro.telemetry trace flight_dump.jsonl -o trace.json

``profile`` renders an exported profile (or digests a Chrome trace);
with two profiles it prints per-counter deltas (new minus old, with
percentages).  ``slo`` summarizes the per-tenant SLO instruments
(``serve.slo.*``) of any counters source — OpenMetrics text (a saved
``/metrics`` scrape, or ``--url`` for a live gateway), a profile JSON
or a registry ``as_dict()`` JSON — and with ``--slo`` scores them
against a threshold file.  ``trace`` converts the span records of a
flight-recorder dump into a Chrome ``trace_event`` file.

Exit status: 0 on success, 1 when an SLO budget is burned (or a dump
holds no spans), 2 on unreadable input of any kind.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .counters import counters_from_openmetrics
from .export import flatten_profile, validate_chrome_trace, write_chrome_trace
from .recorder import read_records
from .slo import check_slo, slo_report, validate_thresholds
from .tracing import Span


def _table(rows, headers) -> str:
    """The one fixed-width table renderer every subcommand shares."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


# ---------------------------------------------------------------------- #
# profile
# ---------------------------------------------------------------------- #


def render_profile(profile: dict, *, show_counters: bool = False) -> str:
    """Human-readable summary of a profile dict."""
    totals = profile.get("totals", {})
    meta = profile.get("meta", {})
    out = [
        "== telemetry profile ==",
        f"cycles={totals.get('cycles', 0)}  retired={totals.get('retired', 0)}  "
        f"ipc={_fmt(totals.get('ipc', 0.0))}",
        f"trace events: total={meta.get('events_total', 0)} "
        f"retained={meta.get('events_retained', 0)} "
        f"dropped={meta.get('events_dropped', 0)}",
    ]
    for name, pipe in sorted(profile.get("pipes", {}).items()):
        derived = pipe.get("derived", {})
        rows = sorted(pipe.get("stats", {}).items())
        rows.append(("cycles_per_sample", derived.get("cycles_per_sample")))
        for key in ("ipc", "forward_hits_total", "qmax_raises"):
            rows.append((key, derived.get(key, 0)))
        out += [f"\n-- {name} --", _table(rows, ("stat", "value"))]
        occ = derived.get("occupancy", {})
        if occ:
            out.append(
                "stage occupancy: "
                + "  ".join(f"{s}={_fmt(f)}" for s, f in sorted(occ.items()))
            )
    engines = profile.get("engines", {})
    if engines:
        out.append("\n-- attached engines --")
        for name, snap in sorted(engines.items()):
            flat = ", ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(flatten_profile(snap).items())
            )
            out.append(f"{name}: {flat}")
    device = profile.get("device")
    if device:
        out += ["\n-- device model --", _table(sorted(device.items()), ("key", "value"))]
    if show_counters:
        counters = _scalar_counters(profile)
        out += ["\n-- counters --", _table(sorted(counters.items()), ("counter", "value"))]
    return "\n".join(out)


def _scalar_counters(profile: dict) -> dict:
    """A profile's counters minus the (dict-valued) histograms."""
    return {
        k: v for k, v in profile.get("counters", {}).items() if not isinstance(v, dict)
    }


def render_profile_delta(base: dict, new: dict) -> str:
    """Per-counter deltas between two profile dicts (``new - base``).

    Histogram counters (dict-valued) are skipped; counters present in
    only one profile render with ``-`` on the missing side.
    """
    b_counters, n_counters = _scalar_counters(base), _scalar_counters(new)
    b_tot, n_tot = base.get("totals", {}), new.get("totals", {})
    out = [
        "== telemetry profile delta ==",
        f"cycles  {b_tot.get('cycles', 0)} -> {n_tot.get('cycles', 0)}   "
        f"retired {b_tot.get('retired', 0)} -> {n_tot.get('retired', 0)}   "
        f"ipc {_fmt(b_tot.get('ipc', 0.0))} -> {_fmt(n_tot.get('ipc', 0.0))}",
    ]
    rows = []
    for key in sorted(set(b_counters) | set(n_counters)):
        old, cur = b_counters.get(key), n_counters.get(key)
        if old == cur:
            continue
        delta = pct = None
        if old is not None and cur is not None:
            delta = cur - old
            pct = f"{100.0 * (cur - old) / old:+.1f}%" if old else None
        rows.append((key, old, cur, delta, pct))
    if rows:
        out.append(_table(rows, ("counter", "old", "new", "delta", "pct")))
    shared = set(b_counters) & set(n_counters)
    unchanged = sum(1 for k in shared if b_counters[k] == n_counters[k])
    out.append(f"{len(rows)} counter(s) differ, {unchanged} unchanged")
    return "\n".join(out)


def render_chrome_trace(trace: dict) -> str:
    """Event-count digest of a Chrome trace_event file."""
    by_name: dict[str, int] = {}
    pids: set = set()
    stamps = []
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "X":
            by_name[ev["name"]] = by_name.get(ev["name"], 0) + 1
            pids.add(ev["pid"])
            stamps.append(ev["ts"])
    out = ["== chrome trace digest ==", f"processes: {len(pids)}"]
    if stamps:
        out.append(f"span: ts {min(stamps)} .. {max(stamps)}")
    out.append(_table(sorted(by_name.items()), ("event", "count")))
    out.append("open in chrome://tracing or https://ui.perfetto.dev")
    return "\n".join(out)


def _load_profile_or_trace(path: str) -> dict:
    """A profile or valid Chrome trace; ``ValueError``/``OSError`` if not."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    if "traceEvents" in data:
        problems = validate_chrome_trace(data)
        if problems:
            raise ValueError(f"invalid chrome trace: {'; '.join(problems[:3])}")
    return data


def _cmd_profile(args) -> int:
    loaded = {}
    for path in filter(None, (args.path, args.other)):
        try:
            loaded[path] = _load_profile_or_trace(path)
        except (OSError, ValueError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
    data = loaded[args.path]
    if args.other is not None:
        other = loaded[args.other]
        if "traceEvents" in data or "traceEvents" in other:
            print("delta mode needs two profile files, not traces", file=sys.stderr)
            return 2
        print(render_profile_delta(data, other))
    elif "traceEvents" in data:
        print(render_chrome_trace(data))
    else:
        print(render_profile(data, show_counters=args.counters))
    return 0


# ---------------------------------------------------------------------- #
# slo
# ---------------------------------------------------------------------- #


def load_counters(text: str) -> dict:
    """Sniff + parse one counters source into a flat counter dict.

    Accepts OpenMetrics exposition text, a telemetry profile JSON
    (flat counters under a ``"counters"`` key), or a raw registry
    ``as_dict()`` JSON.
    """
    if not text.lstrip().startswith("{"):
        return counters_from_openmetrics(text)
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("counters JSON must be an object")
    counters = payload.get("counters")
    return counters if isinstance(counters, dict) else payload


def read_source(source: str) -> str:
    """The text of ``source``: a file path, ``-`` for stdin, or a URL."""
    if source == "-":
        return sys.stdin.read()
    if source.startswith(("http://", "https://")):
        from urllib.request import urlopen

        with urlopen(source, timeout=10) as resp:  # noqa: S310 - user-given URL
            return resp.read().decode("utf-8", "replace")
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def render_slo(report: dict, violations: Optional[list[str]] = None) -> str:
    """Human-readable rendering of one :func:`slo_report`."""
    out = ["== per-tenant SLO report =="]
    tenants = report.get("tenants", {})
    rows = [
        (tenant, op, stats.get("count", 0))
        + tuple(stats.get(f"{k}_ms") for k in ("p50", "p95", "p99", "max"))
        for tenant, entry in sorted(tenants.items())
        for op, stats in sorted(entry.get("ops", {}).items())
    ]
    if rows:
        out.append(
            _table(rows, ("tenant", "op", "count", "p50_ms", "p95_ms", "p99_ms", "max_ms"))
        )
    elif not tenants:
        out.append("(no serve.slo.* instruments found in the source)")
    for tenant, entry in sorted(tenants.items()):
        errors = {k: v for k, v in sorted(entry.get("errors", {}).items()) if v}
        if errors:
            out.append(
                f"errors {tenant}: " + "  ".join(f"{c}={n}" for c, n in errors.items())
            )
    if violations:
        out.append(f"\nSLO VIOLATIONS ({len(violations)}):")
        out.extend(f"  - {v}" for v in violations)
    elif violations is not None:
        out.append("\nall SLO budgets met")
    return "\n".join(out)


def _cmd_slo(args) -> int:
    source = args.url or args.source
    if source is None:
        print("slo: give a counters file/URL (or --url)", file=sys.stderr)
        return 2
    thresholds = None
    if args.slo is not None:
        try:
            with open(args.slo, "r", encoding="utf-8") as fh:
                thresholds = json.load(fh)
            validate_thresholds(thresholds)
        except (OSError, ValueError) as exc:
            print(f"slo: bad threshold file {args.slo!r}: {exc}", file=sys.stderr)
            return 2
    try:
        report = slo_report(load_counters(read_source(source)))
    except (OSError, ValueError) as exc:
        print(f"slo: cannot read {source!r}: {exc}", file=sys.stderr)
        return 2
    violations = None if thresholds is None else check_slo(report, thresholds)
    if args.json:
        payload = dict(report)
        if violations is not None:
            payload["violations"] = violations
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_slo(report, violations))
    return 1 if violations else 0


# ---------------------------------------------------------------------- #
# trace
# ---------------------------------------------------------------------- #


def _cmd_trace(args) -> int:
    spans: list[Span] = []
    skipped = 0
    try:
        for record in read_records(args.dump):
            if record is None:  # torn or corrupt line
                skipped += 1
            elif record.get("type") == "span":
                try:
                    spans.append(Span.from_dict(record))
                except ValueError:  # non-numeric timestamp
                    skipped += 1
    except OSError as exc:
        print(f"trace: cannot read {args.dump!r}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"trace: no span records in {args.dump!r}", file=sys.stderr)
        return 1
    try:
        write_chrome_trace(args.output, spans, meta={"source": args.dump})
    except ValueError as exc:
        print(f"trace: invalid trace produced: {exc}", file=sys.stderr)
        return 1
    note = f" ({skipped} corrupt line(s) skipped)" if skipped else ""
    print(f"{len(spans)} span(s) -> {args.output}{note}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Render telemetry profiles, score SLOs, convert span dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prof = sub.add_parser("profile", help="render a profile or Chrome trace")
    p_prof.add_argument("path", help="profile .json (or Chrome trace .json)")
    p_prof.add_argument(
        "other",
        nargs="?",
        help="second profile .json: print per-counter deltas (other - path)",
    )
    p_prof.add_argument(
        "--counters", action="store_true", help="also dump every raw counter"
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_slo = sub.add_parser("slo", help="per-tenant SLO report (+ threshold gate)")
    p_slo.add_argument(
        "source",
        nargs="?",
        help="counters source: OpenMetrics text, profile JSON, registry JSON, or -",
    )
    p_slo.add_argument("--url", metavar="URL", help="scrape a live /metrics endpoint")
    p_slo.add_argument(
        "--slo", metavar="PATH", help="threshold JSON; exit 1 when any budget is burned"
    )
    p_slo.add_argument("--json", action="store_true", help="machine-readable output")
    p_slo.set_defaults(func=_cmd_slo)

    p_tr = sub.add_parser("trace", help="flight-recorder dump -> Chrome trace_event JSON")
    p_tr.add_argument("dump", help="flight_dump.jsonl (or any recorder segment)")
    p_tr.add_argument(
        "-o", "--output", default="trace.json", help="output path (default trace.json)"
    )
    p_tr.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # |head and friends — not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
