"""Named, hierarchical counters, gauges and histograms.

Instruments are plain attribute-bearing objects (``__slots__``, no
locks, no string formatting on the hot path): incrementing a counter is
one attribute add, which is what lets the cycle-accurate pipeline keep
its own bookkeeping on a :class:`CounterRegistry` without measurable
cost.  Names are dot-separated paths (``pipe0.stage.s2.active``); the
registry can render them flat (:meth:`CounterRegistry.as_dict`) or as a
nested tree (:meth:`CounterRegistry.tree`).

When telemetry is disabled there is nothing to pay at all: code that
*would* emit into a session holds ``None`` and skips the call.  For the
rarer pattern of an instrument handle that must always exist,
:data:`NULL_REGISTRY` hands out shared no-op singletons without
allocating per name.

The registry's wire format is OpenMetrics/Prometheus exposition text:
:func:`render_openmetrics` renders it (the gateway's ``/metrics`` page
and :class:`~repro.telemetry.session.OpenMetricsTextfileEmitter`),
:func:`counters_from_openmetrics` parses a scrape back into the flat
``as_dict()`` shape the SLO report reads, and
:func:`validate_openmetrics` is the conformance checker the golden
fixture test and the live fleet-run test share.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Iterable, Optional, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds (powers of two; one overflow
#: bucket is appended implicitly).
DEFAULT_BOUNDS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically *intended* integer counter.

    ``value`` is a public attribute on purpose — the pipeline's hot loop
    does ``counter.value += 1`` directly rather than paying a method
    call.  :meth:`inc` exists for call sites where clarity beats the
    nanoseconds.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value-wins instrument (occupancy, configured sizes...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Number = 0):
        self.name = name
        self.value = value

    def set(self, v: Number) -> None:
        self.value = v

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A bucketed distribution with count/sum/min/max sidecars.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last bound.  Bucketing is a bisect over
    a tuple — cheap enough for per-event observation, and the summary
    stays bounded no matter how many observations arrive.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Iterable[Number] = DEFAULT_BOUNDS):
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, v: Number) -> None:
        self.buckets[bisect.bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def summary(self) -> dict:
        """JSON-ready digest of the distribution."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {
                **{f"le_{b}": n for b, n in zip(self.bounds, self.buckets)},
                "overflow": self.buckets[-1],
            },
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.3g})"


class CounterRegistry:
    """Get-or-create home for named instruments.

    One registry per producer (a pipeline's stats, a telemetry
    session); readers snapshot with :meth:`as_dict` / :meth:`tree`.
    Asking for an existing name returns the same object; asking for it
    as a different instrument kind is an error (it would silently fork
    the measurement).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, kind: type, factory):
        inst = self._instruments.get(name)
        if inst is None:
            inst = factory()
            self._instruments[name] = inst
            return inst
        if not isinstance(inst, kind):
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{type(inst).__name__}, not {kind.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Iterable[Number] = DEFAULT_BOUNDS
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> list[Union[Counter, Gauge, Histogram]]:
        """Every registered instrument, sorted by name (typed view for
        exporters that must distinguish counter/gauge/histogram)."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def as_dict(self) -> dict:
        """Flat ``{dotted.name: value-or-summary}`` snapshot, sorted."""
        out: dict = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            out[name] = inst.summary() if isinstance(inst, Histogram) else inst.value
        return out

    def tree(self) -> dict:
        """Nested-dict view, splitting names on dots."""
        root: dict = {}
        for name, value in self.as_dict().items():
            node = root
            *path, leaf = name.split(".")
            for part in path:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ValueError(f"name {name!r} nests under a leaf value")
            node[leaf] = value
        return root

    def reset(self) -> None:
        for inst in self._instruments.values():
            inst.reset()


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled telemetry."""

    __slots__ = ()
    name = "<null>"
    value = 0
    count = 0
    total = 0
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, v: Number) -> None:
        pass

    def observe(self, v: Number) -> None:
        pass

    def reset(self) -> None:
        pass

    def summary(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """A registry that hands out one shared no-op instrument.

    Requesting a thousand names allocates nothing — the disabled-mode
    guarantee the tests pin.
    """

    def counter(self, name: str) -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str, bounds=DEFAULT_BOUNDS) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def instruments(self) -> list:
        return []

    def as_dict(self) -> dict:
        return {}

    def tree(self) -> dict:
        return {}

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: The process-wide disabled registry.
NULL_REGISTRY = NullRegistry()


# ---------------------------------------------------------------------- #
# OpenMetrics codec: render for scrapers, parse back for the SLO report,
# validate for conformance tests
# ---------------------------------------------------------------------- #

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

    Instruments keep their dotted names as a ``name`` label on three
    metric families (``<ns>_counter_total``, ``<ns>_gauge``,
    ``<ns>_histogram``) so a thousand pipeline counters don't mint a
    thousand metric families; histogram buckets are converted to the
    format's cumulative ``le`` form with the mandatory ``+Inf`` bucket.
    ``labels`` are attached to every sample (e.g. ``{"run": "fleet3"}``)
    in addition to the per-instrument ``name`` label.  ``eof=False``
    omits the terminating ``# EOF`` for embedding in a larger page.
    """
    ns = sanitize_metric_name(namespace)
    extra = dict(labels or {})
    instruments = registry.instruments()
    lines: list[str] = []
    for kind in (Counter, Gauge, Histogram):
        members = [inst for inst in instruments if isinstance(inst, kind)]
        if not members:
            continue
        family = kind.__name__.lower()
        metric = f"{ns}_{family}"
        lines.append(f"# HELP {metric} QTAccel telemetry {family}s by dotted name.")
        lines.append(f"# TYPE {metric} {family}")
        for inst in members:
            lab = _labels({"name": inst.name, **extra})
            if kind is Counter:
                lines.append(f"{metric}_total{lab} {_fmt_value(inst.value)}")
            elif kind is Gauge:
                lines.append(f"{metric}{lab} {_fmt_value(inst.value)}")
            else:
                cumulative = 0
                for bound, count in zip(inst.bounds, inst.buckets):
                    cumulative += count
                    le = _labels({"name": inst.name, **extra, "le": _fmt_value(bound)})
                    lines.append(f"{metric}_bucket{le} {cumulative}")
                le = _labels({"name": inst.name, **extra, "le": "+Inf"})
                lines.append(f"{metric}_bucket{le} {inst.count}")
                lines.append(f"{metric}_sum{lab} {_fmt_value(inst.total)}")
                lines.append(f"{metric}_count{lab} {inst.count}")
    if eof:
        lines.append("# EOF")
    return "\n".join(lines) + "\n"


def counters_from_openmetrics(text: str) -> dict:
    """Parse ``render_openmetrics`` output back into a flat counter dict.

    Counters and gauges come back as numbers keyed by their dotted
    instrument name; histograms come back as summary dicts
    (``count``/``sum``/``buckets``) — the shape a registry ``as_dict()``
    produces, minus the ``min``/``max`` the format does not carry — so
    :func:`repro.telemetry.slo.slo_report` accepts either source.
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
