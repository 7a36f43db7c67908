"""Exporters: Chrome ``trace_event`` JSON and flat profile JSON/CSV.

The Chrome trace format (one JSON object with a ``traceEvents`` list)
is readable by ``chrome://tracing`` and https://ui.perfetto.dev.  One
renderer covers both trace record kinds of
:mod:`repro.telemetry.tracing`:

* cycle :class:`~repro.telemetry.tracing.TraceEvent` — one simulated
  clock cycle is one microsecond of trace time, each pipeline is a
  process (``pid``) and each pipeline stage a thread (``tid`` 1..4 for
  S1..S4), so the four-stage occupancy reads as four swim-lanes per
  pipeline with the sample index attached to every slice;
* :class:`~repro.telemetry.tracing.Span` — one ``pid`` per process
  label (``client`` / ``gateway`` / ``session`` / ``backend`` /
  ``shard<n>``), one ``tid`` per trace inside that process so
  concurrent requests stack as separate rows, microsecond timestamps
  relative to the earliest span.

Profile summaries are plain nested dicts (see
:meth:`repro.telemetry.session.TelemetrySession.profile`); this module
serialises them to JSON or to a two-column ``key,value`` CSV via
:func:`flatten_profile`.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Optional, Union

from .tracing import STAGES, TraceEvent, merge_spans

#: tid assigned to each stage lane (S1 at the top of the swim-lanes).
_STAGE_TID = {stage: i + 1 for i, stage in enumerate(STAGES)}


def _meta(name: str, pid: int, tid: int, label: str) -> dict:
    return {"name": name, "ph": "M", "pid": pid, "tid": tid, "args": {"name": label}}


def chrome_trace(records: Iterable, *, meta: Optional[dict] = None) -> dict:
    """Render trace records as a Chrome ``trace_event`` JSON object.

    ``records`` mixes cycle events, spans and span dicts freely.  The
    result holds one complete (``"X"``) slice per record plus the
    metadata (``"M"``) records naming every process and thread; ``meta``
    is merged into ``otherData``.
    """
    records = list(records)
    events = [r for r in records if isinstance(r, TraceEvent)]
    spans = merge_spans(r for r in records if not isinstance(r, TraceEvent))

    slices: list[dict] = []
    pids: dict[str, int] = {}
    metadata: list[dict] = []
    for ev in events:
        pid = pids.get(ev.pipe)
        if pid is None:
            pid = pids[ev.pipe] = len(pids) + 1
            metadata.append(_meta("process_name", pid, 0, ev.pipe))
            metadata.extend(
                _meta("thread_name", pid, tid, stage)
                for stage, tid in _STAGE_TID.items()
            )
        args: dict[str, int] = {"cycle": ev.cycle}
        if ev.index >= 0:
            args["sample"] = ev.index
        if ev.arg:
            args["arg"] = ev.arg
        slices.append(
            {
                "name": ev.kind,
                "cat": ev.stage,
                "ph": "X",
                "ts": ev.cycle,
                "dur": 1,
                "pid": pid,
                "tid": _STAGE_TID.get(ev.stage, 0),
                "args": args,
            }
        )

    t0 = spans[0].start if spans else 0.0
    tids: dict[tuple[int, str], int] = {}
    per_pid_traces: dict[int, int] = {}
    for span in spans:
        pid = pids.get(span.proc)
        if pid is None:
            pid = pids[span.proc] = len(pids) + 1
            metadata.append(_meta("process_name", pid, 0, span.proc))
        tid = tids.get((pid, span.trace_id))
        if tid is None:
            tid = tids[(pid, span.trace_id)] = per_pid_traces[pid] = (
                per_pid_traces.get(pid, 0) + 1
            )
            metadata.append(
                _meta("thread_name", pid, tid, f"trace {span.trace_id[:8]}")
            )
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        if span.attrs:
            args.update(span.attrs)
        slices.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": (span.start - t0) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return {
        "traceEvents": metadata + slices,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.telemetry",
            "records": len(slices),
            "procs": sorted(pids),
            **(meta or {}),
        },
    }


def validate_chrome_trace(doc) -> list[str]:
    """Problems in a Chrome ``trace_event`` document (empty == valid)."""
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    problems: list[str] = []
    named_pids: set = set()
    slice_pids: set = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                named_pids.add(ev.get("pid"))
            continue
        if ph != "X":
            problems.append(f"event {i}: unsupported phase {ph!r}")
            continue
        for key in ("name", "pid", "tid", "ts", "dur"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        for key in ("ts", "dur"):
            value = ev.get(key)
            if isinstance(value, (int, float)) and value < 0:
                problems.append(f"event {i}: negative {key}")
        slice_pids.add(ev.get("pid"))
    for pid in sorted(p for p in slice_pids if p not in named_pids):
        problems.append(f"pid {pid}: no process_name metadata")
    return problems


def write_chrome_trace(path, records: Iterable, *, meta: Optional[dict] = None) -> dict:
    """Render, validate and write a trace file; returns the document.

    Raises ``ValueError`` if the rendered document fails its own
    validator — a trace artifact that does not load is worse than none.
    """
    doc = chrome_trace(records, meta=meta)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(f"invalid chrome trace: {problems[:5]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return doc


def flatten_profile(profile: dict, prefix: str = "") -> dict[str, Union[int, float, str]]:
    """Flatten a nested profile dict to ``{dotted.key: scalar}``."""
    out: dict[str, Union[int, float, str]] = {}
    for key, value in profile.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten_profile(value, f"{name}."))
        else:
            out[name] = value
    return out


def write_profile_json(path, profile: dict) -> None:
    """Write a profile summary as indented JSON."""
    with open(path, "w") as fh:
        json.dump(profile, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_profile_csv(path, profile: dict) -> None:
    """Write a profile summary as ``key,value`` CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for key, value in sorted(flatten_profile(profile).items()):
        writer.writerow([key, value])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
