"""Live metrics export: OpenMetrics text and periodic emitters.

Two consumers, one registry:

* **Scrapers** — :func:`render_openmetrics` renders a
  :class:`~repro.telemetry.counters.CounterRegistry` as
  OpenMetrics/Prometheus exposition text.  Instruments keep their
  dotted names as a ``name`` label on three metric families
  (``<ns>_counter_total``, ``<ns>_gauge``, ``<ns>_histogram``) so a
  thousand pipeline counters don't mint a thousand metric families;
  histogram buckets are converted to the format's cumulative ``le``
  form with the mandatory ``+Inf`` bucket.
* **Tails** — :class:`JsonlEmitter` appends one JSON object per emit
  (wall-time, sequence number, flat counters) so a fleet run leaves a
  scrub-friendly time series; :class:`OpenMetricsTextfileEmitter`
  atomically rewrites a textfile for the node-exporter
  textfile-collector pattern.

Emitters hook into a :class:`~repro.telemetry.session.TelemetrySession`
via ``session.add_emitter(...)``; long-running engines (the shared and
batch fleets, the fleet supervisor) pulse their session inside their
run loops, and each emitter rate-limits itself (``interval_s``), so a
mid-flight scrape costs nothing when no emitter is registered and a
clock check when one is.

:func:`validate_openmetrics` is the conformance checker the golden
fixture test and the live fleet-run test share, and
:func:`counters_from_openmetrics` parses the text back into a flat
counter dict (the SLO report reads scrapes through it).
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from pathlib import Path
from typing import Optional

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Sample line of the exposition format (after comment lines are set
#: aside): name, optional label set, value, optional timestamp.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:\\.|[^\"\\])*\",?)*)\})?"
    r" (?P<value>[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN))"
    r"(?: (?P<ts>[0-9]+(?:\.[0-9]+)?))?$"
)

_TYPES = ("counter", "gauge", "histogram", "summary", "untyped", "info", "stateset")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary string into a legal metric name.

    Dots and other illegal characters become underscores; a leading
    digit gets a guard underscore.  Idempotent on already-legal names.
    """
    if _NAME_OK.match(name):
        return name
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not re.match(r"[a-zA-Z_:]", out[0]):
        out = "_" + out
    return out


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    f = float(v)
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labels(pairs: dict[str, str]) -> str:
    if not pairs:
        return ""
    for key in pairs:
        if not _LABEL_OK.match(key):
            raise ValueError(f"illegal label name {key!r}")
    inner = ",".join(f'{k}="{escape_label_value(str(v))}"' for k, v in pairs.items())
    return "{" + inner + "}"


def render_openmetrics(
    registry,
    *,
    namespace: str = "qtaccel",
    labels: Optional[dict[str, str]] = None,
    eof: bool = True,
) -> str:
    """Render every instrument in ``registry`` as exposition text.

    ``labels`` are attached to every sample (e.g. ``{"run": "fleet3"}``)
    in addition to the per-instrument ``name`` label.  ``eof=False``
    omits the terminating ``# EOF`` for embedding in a larger page.
    """
    from ..telemetry.counters import Counter, Gauge, Histogram

    ns = sanitize_metric_name(namespace)
    extra = dict(labels or {})
    counters: list[tuple[str, object]] = []
    gauges: list[tuple[str, object]] = []
    histograms: list[tuple[str, object]] = []
    for inst in registry.instruments():
        if isinstance(inst, Histogram):
            histograms.append((inst.name, inst))
        elif isinstance(inst, Gauge):
            gauges.append((inst.name, inst))
        elif isinstance(inst, Counter):
            counters.append((inst.name, inst))

    lines: list[str] = []
    if counters:
        metric = f"{ns}_counter"
        lines.append(f"# HELP {metric} QTAccel telemetry counters by dotted name.")
        lines.append(f"# TYPE {metric} counter")
        for name, inst in sorted(counters):
            lab = _labels({"name": name, **extra})
            lines.append(f"{metric}_total{lab} {_fmt_value(inst.value)}")
    if gauges:
        metric = f"{ns}_gauge"
        lines.append(f"# HELP {metric} QTAccel telemetry gauges by dotted name.")
        lines.append(f"# TYPE {metric} gauge")
        for name, inst in sorted(gauges):
            lab = _labels({"name": name, **extra})
            lines.append(f"{metric}{lab} {_fmt_value(inst.value)}")
    if histograms:
        metric = f"{ns}_histogram"
        lines.append(f"# HELP {metric} QTAccel telemetry histograms by dotted name.")
        lines.append(f"# TYPE {metric} histogram")
        for name, inst in sorted(histograms):
            cumulative = 0
            for bound, count in zip(inst.bounds, inst.buckets):
                cumulative += count
                lab = _labels({"name": name, **extra, "le": _fmt_value(bound)})
                lines.append(f"{metric}_bucket{lab} {cumulative}")
            lab = _labels({"name": name, **extra, "le": "+Inf"})
            lines.append(f"{metric}_bucket{lab} {inst.count}")
            lab = _labels({"name": name, **extra})
            lines.append(f"{metric}_sum{lab} {_fmt_value(inst.total)}")
            lines.append(f"{metric}_count{lab} {inst.count}")
    if eof:
        lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Parsing
# ---------------------------------------------------------------------- #


def counters_from_openmetrics(text: str) -> dict:
    """Parse ``render_openmetrics`` output back into a flat counter dict.

    Counters and gauges come back as numbers keyed by their dotted
    instrument name; histograms come back as summary dicts
    (``count``/``sum``/``buckets``) — the shape a registry ``as_dict()``
    produces, minus the ``min``/``max`` the format does not carry — so
    :func:`repro.obs.slo.slo_report` accepts either source.
    """
    flat: dict = {}
    hists: dict[str, dict] = {}
    cumulative: dict[str, list[tuple[float, float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            continue
        metric = m.group("name")
        labels_raw = m.group("labels") or ""
        value_raw = m.group("value")
        labels = dict(re.findall(r'(\w+)="([^"]*)"', labels_raw))
        name = labels.get("name")
        if not name:
            continue
        value = float(value_raw)
        if metric.endswith("_counter_total") or metric.endswith("_gauge"):
            flat[name] = value
        elif metric.endswith("_histogram_bucket"):
            le = labels.get("le", "+Inf")
            bound = float("inf") if le == "+Inf" else float(le)
            cumulative.setdefault(name, []).append((bound, value))
        elif metric.endswith("_histogram_count"):
            hists.setdefault(name, {})["count"] = int(value)
        elif metric.endswith("_histogram_sum"):
            hists.setdefault(name, {})["sum"] = value
    for name, pairs in cumulative.items():
        pairs.sort()
        buckets: dict[str, int] = {}
        prev = 0.0
        for bound, cum in pairs:
            n = int(cum - prev)
            prev = cum
            if bound == float("inf"):
                buckets["overflow"] = n
            else:
                key = f"le_{int(bound)}" if float(bound).is_integer() else f"le_{bound}"
                buckets[key] = n
        summary = hists.setdefault(name, {})
        summary.setdefault("count", int(pairs[-1][1]) if pairs else 0)
        summary["buckets"] = buckets
    flat.update(hists)
    return flat


# ---------------------------------------------------------------------- #
# Conformance checking
# ---------------------------------------------------------------------- #


def validate_openmetrics(text: str) -> list[str]:
    """Check exposition text for format conformance; return error list.

    Enforces the rules the golden-fixture test relies on: legal sample
    syntax, ``# TYPE`` declared before a family's samples, one TYPE per
    family, counter samples carrying the ``_total`` suffix, histogram
    buckets cumulative with a ``+Inf`` bucket equal to ``_count``, and
    the terminating ``# EOF``.  An empty list means conformant.
    """
    errors: list[str] = []
    if not text.endswith("\n"):
        errors.append("text must end with a newline")
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        errors.append("missing terminating '# EOF' line")
    types: dict[str, str] = {}
    hist_state: dict[tuple[str, str], dict] = {}
    for i, line in enumerate(lines, 1):
        if not line:
            errors.append(f"line {i}: blank line")
            continue
        if line == "# EOF":
            if i != len(lines):
                errors.append(f"line {i}: '# EOF' before end of text")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE", "UNIT"):
                errors.append(f"line {i}: malformed comment {line!r}")
                continue
            _, kind, family = parts[0], parts[1], parts[2]
            if not _NAME_OK.match(family):
                errors.append(f"line {i}: illegal metric family name {family!r}")
            if kind == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    errors.append(f"line {i}: unknown metric type in {line!r}")
                elif family in types:
                    errors.append(f"line {i}: duplicate TYPE for {family}")
                else:
                    types[family] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {i}: malformed sample {line!r}")
            continue
        name = m.group("name")
        family, suffix = _family_of(name, types)
        if family is None:
            errors.append(f"line {i}: sample {name!r} has no preceding TYPE")
            continue
        mtype = types[family]
        label_str = m.group("labels") or ""
        if mtype == "counter" and suffix not in ("_total", "_created"):
            errors.append(f"line {i}: counter sample {name!r} must end in _total")
        if mtype == "histogram":
            key = (family, _strip_le(label_str))
            state = hist_state.setdefault(
                key, {"last_bucket": None, "saw_inf": False, "count": None}
            )
            if suffix == "_bucket":
                le = _le_value(label_str)
                if le is None:
                    errors.append(f"line {i}: histogram bucket without 'le' label")
                    continue
                value = float(m.group("value"))
                last = state["last_bucket"]
                if last is not None and value < last:
                    errors.append(f"line {i}: histogram buckets not cumulative")
                state["last_bucket"] = value
                if le == "+Inf":
                    state["saw_inf"] = True
                    state["inf_value"] = value
            elif suffix == "_count":
                state["count"] = float(m.group("value"))
    for (family, labels), state in hist_state.items():
        where = f"{family}{{{labels}}}" if labels else family
        if not state["saw_inf"]:
            errors.append(f"{where}: histogram missing '+Inf' bucket")
        elif state["count"] is not None and state.get("inf_value") != state["count"]:
            errors.append(f"{where}: '+Inf' bucket != _count")
    return errors


def _family_of(name: str, types: dict[str, str]) -> tuple[Optional[str], str]:
    """Resolve a sample name to its declared family and suffix."""
    for suffix in ("_total", "_created", "_bucket", "_sum", "_count", ""):
        base = name[: -len(suffix)] if suffix else name
        if suffix and not name.endswith(suffix):
            continue
        if base in types:
            return base, suffix
    return None, ""


def _strip_le(label_str: str) -> str:
    return ",".join(
        part for part in label_str.split(",") if part and not part.startswith("le=")
    )


def _le_value(label_str: str) -> Optional[str]:
    m = re.search(r'le="((?:\\.|[^"\\])*)"', label_str)
    return m.group(1) if m else None


# ---------------------------------------------------------------------- #
# Periodic emitters
# ---------------------------------------------------------------------- #


class _PeriodicEmitter:
    """Shared rate limiting: emit at most once per ``interval_s``.

    ``interval_s=0`` emits on every pulse — what the tests use for
    deterministic line counts.  ``clock`` is injectable for testing.
    """

    def __init__(self, path, *, interval_s: float = 1.0, clock=time.monotonic):
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        self.path = Path(path)
        self.interval_s = interval_s
        self.emits = 0
        self._clock = clock
        self._last: Optional[float] = None

    def maybe_emit(self, session) -> bool:
        now = self._clock()
        if self._last is not None and now - self._last < self.interval_s:
            return False
        self._last = now
        self.emit(session)
        return True

    def emit(self, session) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class JsonlEmitter(_PeriodicEmitter):
    """Append one JSON object per emit: a scrapeable counter time series.

    Each line carries the emit sequence number, a wall-clock timestamp,
    and the registry's flat counter snapshot, so a long fleet run can be
    tailed (``tail -f run.metrics.jsonl | jq``) or loaded as a frame per
    line after the fact.
    """

    def emit(self, session) -> None:
        record = {
            "seq": self.emits,
            "time_unix": time.time(),
            "counters": session.registry.as_dict(),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.emits += 1


class OpenMetricsTextfileEmitter(_PeriodicEmitter):
    """Atomically rewrite an OpenMetrics textfile on each emit.

    The node-exporter textfile-collector pattern: a scraper reads the
    file at its own cadence and always sees a complete exposition
    (write to ``<path>.tmp``, then rename).
    """

    def __init__(
        self,
        path,
        *,
        interval_s: float = 1.0,
        namespace: str = "qtaccel",
        labels: Optional[dict[str, str]] = None,
        clock=time.monotonic,
    ):
        super().__init__(path, interval_s=interval_s, clock=clock)
        self.namespace = namespace
        self.labels = labels

    def emit(self, session) -> None:
        text = render_openmetrics(
            session.registry, namespace=self.namespace, labels=self.labels
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, self.path)
        self.emits += 1
